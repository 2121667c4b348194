package core

import (
	"fmt"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// forcedSide is pullSide with every component forced down one path
// (forcedCandidates): the block path over score blocks when blocks is
// set, the row path's expansion and reach otherwise.
func forcedSide(blocks bool) sidePass {
	return func(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa) {
		s := in.side(cfg, ads)
		s.pass(cfg, forcedCandidates(s, opp, sym, blocks), dst, workers, spas)
	}
}

// zeroRateGraph is a graph whose rate channel carries many zero walk
// factors: a third of its edges have expected click rate 0, so the
// gathers' fi == 0 skip runs on both paths.
func zeroRateGraph(seed uint64) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for e := 0; e < 45; e++ {
		w := clickgraph.EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: float64(next(3)) / 2}
		if err := b.AddEdge(fmt.Sprintf("q%d", next(12)), fmt.Sprintf("ad%d", next(10)), w); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// mixedDensityGraph has components that turn dense at different depths:
// complete clusters (dense from the second pass on), a random cluster, a
// star (one ad, dense from the first pass), a path of eight queries and
// seven ads, whose scores spread one hop a depth and fit blocks only from
// the third depth on, so the chain admits it mid-run, and isolated
// queries, which put the engine's numbering off the graph's, so a run
// over it passes through a mix of block and expansion gathers and ends in
// passes with no sparse component.
func mixedDensityGraph() *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	edge := func(q, ad string) {
		if err := b.AddEdge(q, ad, clickgraph.EdgeWeights{Impressions: 6, Clicks: 2, ExpectedClickRate: 0.3}); err != nil {
			panic(err)
		}
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			b.AddQuery(fmt.Sprintf("iso%d-%d", c, i))
			for a := 0; a < 3; a++ {
				edge(fmt.Sprintf("k%d-q%d", c, i), fmt.Sprintf("k%d-ad%d", c, a))
			}
		}
	}
	addRandomCluster(b, "r-", 99, 12, 9, 20)
	for i := 0; i < 5; i++ {
		edge(fmt.Sprintf("s-q%d", i), "s-ad")
	}
	for i := 0; i < 7; i++ {
		edge(fmt.Sprintf("p-q%d", i), fmt.Sprintf("p-ad%d", i))
		edge(fmt.Sprintf("p-q%d", i+1), fmt.Sprintf("p-ad%d", i))
	}
	return b.Build()
}

// TestGatherPathsAgree forces every component of every pass down each
// path — the block path's products over score blocks, and the row path's
// expansion and reach — through whole runs, and holds both to the engine's own
// per-pass choice bit for bit: the chain's query side at depth k equals
// the forced Jacobi loop's at k and its ad side the loop's at k+1, for k
// of both parities (the chain starts on the query side when k is odd),
// across variants, strict evidence, pruning and zero walk factors, on
// graphs whose layout is and is not the graph's own numbering.
func TestGatherPathsAgree(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3":  clickgraph.Fig3(),
		"multi": multiComponentGraph(5, 6, 14, 10, 40),
		"mixed": mixedDensityGraph(),
		"zeros": zeroRateGraph(7),
	}
	cfgs := bitIdenticalConfigs()
	zeros := DefaultConfig().WithVariant(Weighted) // rate channel: zero factors
	cfgs = append(cfgs, zeros)
	for name, g := range graphs {
		for _, cfg := range cfgs {
			for _, k := range []int{3, 4} {
				cfg.Iterations = k
				label := fmt.Sprintf("%s/%v/%v/strict=%v/prune=%g/k=%d", name, cfg.Variant, cfg.Channel, cfg.StrictEvidence, cfg.PruneEpsilon, k)
				chain := mustRun(t, g, cfg)
				for _, blocks := range []bool{true, false} {
					jq, err := runJacobiWith(g, cfg, 1, nil, forcedSide(blocks))
					if err != nil {
						t.Fatal(err)
					}
					deeper := cfg
					deeper.Iterations = k + 1
					ja, err := runJacobiWith(g, deeper, 1, nil, forcedSide(blocks))
					if err != nil {
						t.Fatal(err)
					}
					requireTablesBitIdentical(t, fmt.Sprintf("%s/blocks=%v/queries", label, blocks), jq.QueryScores, chain.QueryScores)
					requireTablesBitIdentical(t, fmt.Sprintf("%s/blocks=%v/ads", label, blocks), ja.AdScores, chain.AdScores)
				}
			}
		}
	}
}

// TestMixedPassesAtEveryWidth runs the engine on a graph whose passes mix
// block and expansion gathers and then gather from blocks alone, where no
// expansion is made and the multi-worker split weighs rows without one.
// A single-shard RunSharded at pool widths 1, 2 and 4 (its one engine gets
// every worker) and runEngine at the same widths must equal the serial
// run bit for bit. The test first checks, on the same scores, that the
// chain's passes do include both kinds. The pass computing one side at
// depth d finds a component held as blocks
// when willFill marks it or when the other side's depth d−1 rows and
// this side's depth d−2 rows both fit (the last admission before it; the
// pairs only grow with depth), and the Jacobi loop computes those scores
// too: each side at depth d−1 is the opposite side of a pass at depth d.
func TestMixedPassesAtEveryWidth(t *testing.T) {
	g := mixedDensityGraph()
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = 6

	in := newPassInputs(g, cfg)
	if in.qIdx.order == nil {
		t.Fatal("the graph's layout is its own numbering; the fixture should renumber")
	}
	fill := in.willFill(2, 2, new([]uint64))
	rowsFit := func(idx *memberIndex, f *sparse.PairFrontier) []bool {
		fit := make([]bool, len(fill))
		for c := range fit {
			lo, hi := idx.span(int32(c))
			pairs := 0
			for x := lo; x < hi; x++ {
				cols, _ := f.Row(x)
				pairs += len(cols)
			}
			fit[c] = blockFits(hi-lo, 2*pairs)
		}
		return fit
	}
	fits := map[[2]int][]bool{ // (ads, depth) → per component: the rows fit a block
		{0, 0}: rowsFit(in.qIdx, sparse.NewPairFrontier(g.NumQueries())),
		{1, 0}: rowsFit(in.aIdx, sparse.NewPairFrontier(g.NumAds())),
	}
	type plan struct{ dense, sparse int } // components that gather, by path
	plans := map[[2]int]plan{}            // (ads, depth) → plan
	depth := 0
	record := func(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa) {
		s := in.side(cfg, ads)
		side := 0
		if ads {
			side = 1
			depth++ // the ad pass ends an iteration
		}
		d := depth + 1 - side
		oppFit := rowsFit(s.oppIdx, opp)
		fits[[2]int{1 - side, d - 1}] = oppFit
		ownFit := fits[[2]int{side, max(d-2, 0)}]
		cand := forcedCandidates(s, opp, sym, true)
		var p plan
		for c := range cand.block {
			if !fill[c] && !(oppFit[c] && ownFit[c]) {
				cand.block[c] = nil
			}
			if lo, hi := s.idx.span(int32(c)); hi > lo && len(s.thisNbr[lo]) > 0 {
				if cand.block[c] != nil {
					p.dense++
				} else {
					p.sparse++
				}
			}
		}
		plans[[2]int{side, d}] = p
		s.pass(cfg, cand, dst, workers, spas)
	}
	deeper := cfg
	deeper.Iterations++
	if _, err := runJacobiWith(g, deeper, 1, nil, record); err != nil {
		t.Fatal(err)
	}
	mixed, blocksOnly := 0, 0
	for p := 0; p <= cfg.Iterations; p++ {
		side := 1 // the chain's pass p computes depth p+1, ads when Iterations−p is even
		if (cfg.Iterations-p)%2 == 1 {
			side = 0
		}
		switch pl := plans[[2]int{side, p + 1}]; {
		case pl.dense > 0 && pl.sparse > 0:
			mixed++
		case pl.dense > 0:
			blocksOnly++
		}
	}
	if mixed == 0 || blocksOnly == 0 {
		t.Fatalf("the chain has %d mixed passes and %d of blocks alone; the fixture needs both (plans %v)", mixed, blocksOnly, plans)
	}

	want := mustRun(t, g, cfg)
	plan1 := partition.WholePlan(g)
	for _, workers := range []int{1, 2, 4} {
		got, err := runEngine(g, cfg, workers, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("runEngine workers=%d", workers), want, got)
		sh, err := RunSharded(g, cfg, plan1, ShardOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, fmt.Sprintf("RunSharded workers=%d", workers), want, sh)
	}
}

// hubGraph is one component whose two sides differ in density: nq queries
// that all click one hub ad, each also clicking priv ads of its own. Every
// query pair shares the hub, so the query side fits a block; under
// weighted strict evidence two private ads of different queries share no
// neighbor and score exactly zero, so the ad side never fits one, and the
// component stays in rows on both sides.
func hubGraph(nq, priv int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for i := 0; i < nq; i++ {
		q := fmt.Sprintf("q%d", i)
		if err := b.AddEdge(q, "hub", clickgraph.EdgeWeights{Impressions: 9, Clicks: 3, ExpectedClickRate: 0.3}); err != nil {
			panic(err)
		}
		for k := 0; k < priv; k++ {
			w := clickgraph.EdgeWeights{Impressions: 6, Clicks: 2, ExpectedClickRate: 0.2 + 0.1*float64(k%3)}
			if err := b.AddEdge(q, fmt.Sprintf("p%d-%d", i, k), w); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// TestDenseBlocksMatchReach holds whole runs of the engine — dense
// components kept as score blocks from pass to pass and computed by the
// block path into them — to the same runs with every component kept in
// rows, which takes the expansion and the reach on every pass (noBlocks),
// bit for bit: both sides' scores and the depth reached, at engine widths
// 1 and 3. It covers every variant and strict evidence, pruning (at 1e-5,
// and at 1e-2, which zeroes cells of held blocks), the tolerance stop and
// both chain parities, on graphs whose components enter the block form at
// different depths (mixed), carry zero walk factors (zeros), span several
// strips (wide), or have one side that fits a block and one that never
// does (hub under weighted strict evidence), where the run holds no block
// on either side: a component is a block on both sides or on neither.
// Under evidence with strict evidence the same hub is a block from the
// identity and no pass takes the row path: evidence passes run the plain
// kernel, so willFill measures them to the second depth. A component never
// leaves the block form: its pairs only grow with depth.
func TestDenseBlocksMatchReach(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"mixed": mixedDensityGraph(),
		"zeros": zeroRateGraph(7),
		"wide":  randomGraph(11, 100, 80, 600),
		"hub":   hubGraph(6, 30),
	}
	var cfgs []Config
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		for _, strict := range []bool{false, true} {
			if strict && variant == Simple {
				continue
			}
			for _, prune := range []float64{0, 1e-5, 1e-2} {
				for _, stop := range []struct {
					iters int
					tol   float64
				}{{6, 0}, {7, 0}, {15, 1e-4}} {
					cfg := DefaultConfig().WithVariant(variant)
					cfg.StrictEvidence = strict
					cfg.PruneEpsilon = prune
					cfg.Iterations, cfg.Tolerance = stop.iters, stop.tol
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	panel := map[string]int{} // the largest panel the block path grew, by graph
	for name, g := range graphs {
		for _, cfg := range cfgs {
			label := fmt.Sprintf("%s/%v/strict=%v/prune=%g/k=%d/tol=%g", name, cfg.Variant, cfg.StrictEvidence, cfg.PruneEpsilon, cfg.Iterations, cfg.Tolerance)
			rows := cfg
			rows.noBlocks = true
			want, err := runEngine(g, rows, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				ar := &engineArena{}
				got, err := runEngine(g, cfg, workers, ar, nil)
				if err != nil {
					t.Fatal(err)
				}
				l := fmt.Sprintf("%s/workers=%d", label, workers)
				if name == "hub" && cfg.Variant == Weighted && cfg.StrictEvidence && (ar.poolQ.taken != 0 || ar.poolA.taken != 0) {
					t.Fatalf("%s: the pools handed out %d query and %d ad cells; the ad side never fits, so neither side is a block", l, ar.poolQ.taken, ar.poolA.taken)
				}
				if name == "hub" && cfg.Variant == Evidence && cfg.StrictEvidence && (len(ar.symQ.RowPtr) != 0 || len(ar.symA.RowPtr) != 0) {
					t.Fatalf("%s: a pass took the row path; evidence passes run the plain kernel, whose reach fills both sides by the second depth, so the component is a block from the identity", l)
				}
				assertBitIdentical(t, l, want, got)
				if got.Iterations != want.Iterations || got.Converged != want.Converged {
					t.Fatalf("%s: depth %d converged %v, rows reach %d %v", l, got.Iterations, got.Converged, want.Iterations, want.Converged)
				}
				for _, sp := range ar.spas {
					panel[name] = max(panel[name], cap(sp.strip.cell))
				}
			}
			if name == "hub" && cfg.Variant == Weighted && cfg.StrictEvidence {
				if cfg.PruneEpsilon < 1e-3 &&
					(!blockFits(g.NumQueries(), 2*want.QueryScores.Len()) || blockFits(g.NumAds(), 2*want.AdScores.Len())) {
					t.Fatalf("%s: %d query pairs and %d ad pairs; the fixture needs a query side that fits a block and an ad side that does not", label, want.QueryScores.Len(), want.AdScores.Len())
				}
				sh, err := RunSharded(g, cfg, partition.WholePlan(g), ShardOptions{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if b := sh.ShardStats[0].BlockBytes; b != 0 {
					t.Fatalf("%s: RunSharded's BlockBytes = %d, want 0", label, b)
				}
			}
		}
	}
	// The block path must have run on every graph, and on several strips
	// of a component where one spans them.
	for name := range graphs {
		need := stripWidth
		if name == "wide" {
			need *= 1 + stripWidth
		}
		if panel[name] < need {
			t.Errorf("%s: the block path's panel grew to %d cells, want ≥ %d", name, panel[name], need)
		}
	}
}

// pathsAndSpiders is components whose scores never fill a block: long
// paths, and spiders — a hub query whose legs are long paths — so every
// side has many nodes and each node reaches only those a few hops along
// its path, or along the legs near the hub.
func pathsAndSpiders() *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	edge := func(q, ad string) {
		if err := b.AddEdge(q, ad, clickgraph.EdgeWeights{Impressions: 5, Clicks: 2, ExpectedClickRate: 0.4}); err != nil {
			panic(err)
		}
	}
	for p := 0; p < 3; p++ {
		for i := 0; i < 100; i++ {
			edge(fmt.Sprintf("p%d-q%d", p, i), fmt.Sprintf("p%d-ad%d", p, i))
			edge(fmt.Sprintf("p%d-q%d", p, i+1), fmt.Sprintf("p%d-ad%d", p, i))
		}
	}
	for s := 0; s < 2; s++ {
		for leg := 0; leg < 6; leg++ {
			q := fmt.Sprintf("s%d-hub", s)
			for i := 0; i < 50; i++ {
				ad := fmt.Sprintf("s%d-l%d-ad%d", s, leg, i)
				edge(q, ad)
				q = fmt.Sprintf("s%d-l%d-q%d", s, leg, i)
				edge(q, ad)
			}
		}
	}
	return b.Build()
}

// TestSparseComponentsAreNeverBlocks runs long paths and spiders under
// every variant, the production settings among them: willFill marks no
// component, so none is held as a block and the arena's float pools stay
// empty. As a control, complete clusters and a short spider — whose
// leaves share nothing at depth 1 and reach one another at depth 2 — are
// marked.
func TestSparseComponentsAreNeverBlocks(t *testing.T) {
	g := pathsAndSpiders()
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		cfg := DefaultConfig().WithVariant(variant)
		cfg.Iterations, cfg.Tolerance, cfg.PruneEpsilon = 15, 1e-4, 1e-5
		in := newPassInputs(g, cfg)
		for c, fill := range in.willFill(2, 2, new([]uint64)) {
			if fill {
				t.Fatalf("%v: component %d marked to fill", variant, c)
			}
		}
		ar := &engineArena{}
		if _, err := runEngine(g, cfg, 2, ar, nil); err != nil {
			t.Fatal(err)
		}
		if len(ar.poolQ.chunks) != 0 || len(ar.poolA.chunks) != 0 {
			t.Fatalf("%v: the float pools hold %d and %d chunks, want none", variant, len(ar.poolQ.chunks), len(ar.poolA.chunks))
		}
	}

	b := clickgraph.NewBuilder()
	for c := 0; c < 2; c++ {
		for q := 0; q < 6; q++ {
			for a := 0; a < 5; a++ {
				if err := b.AddClick(fmt.Sprintf("k%d-q%d", c, q), fmt.Sprintf("k%d-ad%d", c, a), 0.5); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for leg := 0; leg < 8; leg++ {
		ad := fmt.Sprintf("hub-ad%d", leg)
		for _, q := range []string{"hub", fmt.Sprintf("leaf%d", leg)} {
			if err := b.AddClick(q, ad, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	control := b.Build()
	in := newPassInputs(control, DefaultConfig())
	fill := in.willFill(2, 2, new([]uint64))
	for c, f := range fill {
		if !f {
			t.Errorf("control component %d not marked", c)
		}
	}
	if len(fill) != 3 {
		t.Fatalf("control has %d components, want 3", len(fill))
	}
}

// TestWillFillMatchesScores holds willFill to the scores it predicts:
// without pruning, a one-iteration run puts the query side at depth 1 and
// the ad side at depth 2, and a component is marked exactly when both
// sides' scores fit a block (a side of one node or none always does) — on
// clusters of every density, with zero walk factors, in the simple and
// the weighted walk; some components with a side of two nodes or more are
// marked, and some are not.
func TestWillFillMatchesScores(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"mixed":  mixedDensityGraph(),
		"zeros":  zeroRateGraph(7),
		"multi":  multiComponentGraph(5, 12, 14, 10, 30),
		"sparse": multiComponentGraph(9, 12, 30, 25, 40),
		"hub":    hubGraph(6, 30),
		"paths":  pathsAndSpiders(),
	}
	marked, unmarked := 0, 0
	for name, g := range graphs {
		for _, variant := range []Variant{Simple, Weighted} {
			cfg := DefaultConfig().WithVariant(variant)
			cfg.Iterations, cfg.Tolerance, cfg.PruneEpsilon = 1, 0, 0
			cfg.noBlocks = true
			res, err := runEngine(g, cfg, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			in := newPassInputs(g, cfg)
			qs, as := toLayout(in.qIdx, res.QueryScores), toLayout(in.aIdx, res.AdScores)
			for c, fill := range in.willFill(1, 2, new([]uint64)) {
				ql, qh := in.qIdx.span(int32(c))
				al, ah := in.aIdx.span(int32(c))
				qp, ap := 0, 0
				for x := ql; x < qh; x++ {
					cols, _ := qs.Row(x)
					qp += len(cols)
				}
				for x := al; x < ah; x++ {
					cols, _ := as.Row(x)
					ap += len(cols)
				}
				if want := blockFits(qh-ql, 2*qp) && blockFits(ah-al, 2*ap); fill != want {
					t.Errorf("%s/%v: component %d (%d queries, %d pairs; %d ads, %d pairs) marked %v, its scores fit blocks: %v",
						name, variant, c, qh-ql, qp, ah-al, ap, fill, want)
				}
				if qh-ql < 2 && ah-al < 2 {
					continue
				}
				if fill {
					marked++
				} else {
					unmarked++
				}
			}
		}
	}
	t.Logf("%d components with a side of two nodes or more marked, %d not", marked, unmarked)
	if marked == 0 || unmarked == 0 {
		t.Fatal("every component is marked or none is: the test tells nothing apart")
	}
}

// TestBlockBytesCountsTheBlockPath holds ShardStat.BlockBytes to a count
// by hand. An uncut giant in the production mode is held as blocks from
// the identity on both sides, 650² and 450² cells, and the block path
// computes both, so each side has pair factors (m(m−1)/2 cells) and
// operands: a 4-byte row pointer a node plus one, and an 8-byte factor
// and a 4-byte row a nonzero walk factor. Each of the two engine workers
// has strip buffers for the 650-node side: U and Uᵀ of 64 × 650 cells and
// a 650 × 64 panel. Components that never fill a block count nothing.
func TestBlockBytesCountsTheBlockPath(t *testing.T) {
	g, cfg := giantGraph(1), productionConfig()
	const q, a = 650, 450
	if g.NumQueries() != q || g.NumAds() != a {
		t.Fatalf("giant has %d queries and %d ads, want %d and %d", g.NumQueries(), g.NumAds(), q, a)
	}
	res, err := RunSharded(g, cfg, partition.WholePlan(g), ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := newPassInputs(g, cfg)
	nonzero := 0
	for _, rows := range [][][]float64{in.qW, in.aW} {
		for _, row := range rows {
			for _, f := range row {
				if f != 0 {
					nonzero++
				}
			}
		}
	}
	want := 8*(q*q+a*a) + 8*(q*(q-1)/2+a*(a-1)/2) + 4*(q+1+a+1) + 12*nonzero + 2*8*(64*q+q*64+q*64)
	if got := res.ShardStats[0].BlockBytes; got != int64(want) {
		t.Fatalf("BlockBytes = %d, want %d", got, want)
	}

	paths := pathsAndSpiders()
	res, err = RunSharded(paths, cfg, partition.WholePlan(paths), ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ShardStats[0].BlockBytes; got != 0 {
		t.Fatalf("paths and spiders: BlockBytes = %d, want 0", got)
	}
}
