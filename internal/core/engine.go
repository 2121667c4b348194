package core

import (
	"math/bits"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// Run computes the configured similarity with flat sparse pair frontiers.
// With PruneEpsilon == 0 it is exact: its query scores agree with
// RunDense at depth Iterations and its ad scores with RunDense at depth
// Iterations+1 (the test suite checks this differentially; runEngine
// says why the ad side ends deeper). With a positive epsilon, scores
// below the threshold are dropped between passes, bounding memory on
// large graphs at the cost of exactness.
//
// Each iteration is computed output-row-major: for every node x of one
// side, gather u(j) = Σ_{i∈E(x)} s(i, j) over the opposite side into a
// dense accumulator, scatter u over each touched node's neighbor row into
// a dense row accumulator, and harvest the normalized row, in ascending
// order off a bit mark per cell, straight into a sparse.PairFrontier
// (per-row sorted storage, no hashing and no sorting anywhere). Work
// stays proportional to the nonzero structure — the sparsity the click
// graph actually has — but every contribution costs an array add instead
// of the hash probe the map-based engine paid, and the frontiers ping-pong
// across iterations so steady-state passes barely allocate.
func Run(g *clickgraph.Graph, cfg Config) (*Result, error) {
	return runEngine(g, cfg, 1, nil, nil)
}

// passInputs holds the per-run immutable inputs of the iteration passes:
// neighbor rows, weighted-walk factor rows (reversed onto the opposite
// side once per run, not once per pass), and evidence tables.
type passInputs struct {
	qNbr, aNbr   [][]int
	qW, aW       [][]float64 // Weighted only: forward factor rows
	revWQ, revWA [][]float64 // Weighted only: reversed factor rows
	evQ, evA     *evidenceTable
}

func newPassInputs(g *clickgraph.Graph, cfg Config) *passInputs {
	nq, na := g.NumQueries(), g.NumAds()
	in := &passInputs{
		qNbr: make([][]int, nq),
		aNbr: make([][]int, na),
	}
	for q := 0; q < nq; q++ {
		in.qNbr[q], _ = g.AdsOf(q)
	}
	for a := 0; a < na; a++ {
		in.aNbr[a], _ = g.QueriesOf(a)
	}
	if cfg.Variant == Weighted {
		model := newTransitionModel(g, cfg.Channel, cfg.DisableSpread)
		in.qW, in.aW = carveRows(in.qNbr), carveRows(in.aNbr)
		for q := 0; q < nq; q++ {
			model.queryRow(q, in.qW[q])
		}
		for a := 0; a < na; a++ {
			model.adRow(a, in.aW[a])
		}
		in.revWQ = reverseFactors(in.qNbr, in.aNbr, in.qW)
		in.revWA = reverseFactors(in.aNbr, in.qNbr, in.aW)
	}
	if cfg.Variant != Simple {
		in.evQ = newEvidenceTable(in.qNbr, in.aNbr, cfg.EvidenceForm, cfg.StrictEvidence)
		in.evA = newEvidenceTable(in.aNbr, in.qNbr, cfg.EvidenceForm, cfg.StrictEvidence)
	}
	return in
}

// carveRows returns one zeroed float row per neighbor row, aligned with
// it, all carved from a single allocation: a shard has thousands of rows
// a few cells long, and the factor tables live exactly as long as each
// other.
func carveRows(nbr [][]int) [][]float64 {
	cells := 0
	for _, row := range nbr {
		cells += len(row)
	}
	slab := make([]float64, cells)
	rows := make([][]float64, len(nbr))
	for i, row := range nbr {
		rows[i], slab = slab[:len(row):len(row)], slab[len(row):]
	}
	return rows
}

// reverseFactors builds revW[o][k] = W(x, o) where x is the k-th neighbor
// of opposite node o: the walk factor attached to the (o → x) direction,
// looked up from this side's factor rows. thisNbr rows and oppNbr rows are
// both ascending, so x appears in oppNbr[o] at the next unfilled position.
func reverseFactors(thisNbr, oppNbr [][]int, w [][]float64) [][]float64 {
	revW := carveRows(oppNbr)
	pos := make([]int, len(oppNbr))
	for x, nbrs := range thisNbr {
		for k, o := range nbrs {
			revW[o][pos[o]] = w[x][k]
			pos[o]++
		}
	}
	return revW
}

// engineArena is the reusable allocation state of one engine run:
// ping-pong frontiers, symmetric adjacencies, dense accumulators, and the
// change bitsets. A fresh runEngine call with a nil arena allocates its
// own; the shard scheduler keeps one arena per pool worker and re-runs it
// across shards, so every shard after a worker's first reuses the
// previous shard's capacity instead of reallocating — and since the
// structures are sized to the shard being run, a worker's footprint is
// proportional to the largest shard it sees, never the whole graph.
type engineArena struct {
	prevQ, curQ, prevA, curA *sparse.PairFrontier
	symQ, symA               *sparse.SymAdj
	spas                     []*spa
	chgQ, chgA               *sparse.Bitset
}

// frontier returns *slot resized to rows, allocating on first use.
func arenaFrontier(slot **sparse.PairFrontier, rows int) *sparse.PairFrontier {
	if *slot == nil {
		*slot = sparse.NewPairFrontier(rows)
	} else {
		(*slot).Resize(rows)
	}
	return *slot
}

func arenaBitset(slot **sparse.Bitset, n int) *sparse.Bitset {
	if *slot == nil {
		*slot = sparse.NewBitset(n)
	} else {
		(*slot).Resize(n)
	}
	return *slot
}

// ensureSPAs returns workers accumulators with dense arrays of at least n
// cells, growing the arena's pool as needed. Reused spa arrays are already
// zero: the kernels restore every touched cell and mark to zero as they
// harvest, and runRowPass clears the cursors.
func (ar *engineArena) ensureSPAs(workers, n int) []*spa {
	for len(ar.spas) < workers {
		ar.spas = append(ar.spas, &spa{})
	}
	spas := ar.spas[:workers]
	for _, sp := range spas {
		if len(sp.u) < n {
			sp.u, sp.t = make([]float64, n), make([]float64, n)
			sp.marks, sp.cur = make([]uint64, (n+63)/64), make([]int32, n)
		}
	}
	return spas
}

// runEngine is the shared iteration loop behind Run (workers == 1) and
// the per-shard engines of RunSharded. Each output row is computed by
// exactly one of workers goroutines (contiguous row ranges balanced by
// gather weight, emitted into disjoint rows of one frontier) in the
// serial order, so scores do not depend on workers. ar supplies reusable
// allocation state (nil for a standalone run); warm, when non-nil, seeds
// the starting frontiers from a previous generation's scores instead of
// the identity start (see warmstart.go).
//
// On the bipartite click graph the query equation reads only ad scores
// and the ad equation only query scores, so the iteration is one chain of
// passes, each computing one side from the other side's newest frontier
// (Gauss–Seidel order; PERF.md, "One chain, not two"). Pass p computes
// depth p+1: the chain starts on the query side when Iterations is odd
// and on the ad side when it is even, and always ends on an ad pass, so
// the query side reaches depth Iterations and the ad side Iterations+1 in
// Iterations+1 passes — every score an exact iterate of the paper's
// recursion, where computing both sides from the previous iteration
// (Jacobi order, as RunDense does) spends 2·Iterations passes on two
// independent chains. Each side ping-pongs two frontiers: cur is reset,
// filled row by row from the opposite side's newest frontier (expanded to
// a symmetric adjacency once per pass), and swapped in.
//
// Iteration is change-tracked: the diff of a side's new value against its
// previous one on the chain also marks which nodes' scores moved
// (MaxAbsDiffChanged), and an output row whose neighbors all went
// unmarked is copied forward from the side's previous value instead of
// recomputed — once that value was itself computed by the chain, from the
// inputs the marks were taken against. With the default exact-equality
// tracking the copy is bit-identical to recomputation — SimRank converges
// row by row, so late passes approach the cost of only their still-moving
// rows. See Config.DeltaSkipTolerance / Config.DisableDeltaSkip.
func runEngine(g *clickgraph.Graph, cfg Config, workers int, ar *engineArena, warm warmSeed) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ar == nil {
		ar = &engineArena{}
	}
	in := newPassInputs(g, cfg)
	nq, na := g.NumQueries(), g.NumAds()

	q := &chainSide{
		prev: arenaFrontier(&ar.prevQ, nq), cur: arenaFrontier(&ar.curQ, nq),
		thisNbr: in.qNbr, oppNbr: in.aNbr, w: in.qW, revW: in.revWQ, ev: in.evQ, c: cfg.C1,
	}
	a := &chainSide{
		prev: arenaFrontier(&ar.prevA, na), cur: arenaFrontier(&ar.curA, na),
		thisNbr: in.aNbr, oppNbr: in.qNbr, w: in.aW, revW: in.revWA, ev: in.evA, c: cfg.C2,
	}
	if warm != nil {
		warm(q.prev, a.prev)
		if cfg.Variant == Evidence {
			// Stored Evidence scores are iteration-space scores × evidence;
			// map them back so the seed lives where the iteration does.
			unapplyEvidence(q.prev, in.evQ)
			unapplyEvidence(a.prev, in.evA)
		}
		if cfg.PruneEpsilon > 0 {
			q.prev.Prune(cfg.PruneEpsilon)
			a.prev.Prune(cfg.PruneEpsilon)
		}
	}
	if ar.symQ == nil {
		ar.symQ, ar.symA = &sparse.SymAdj{}, &sparse.SymAdj{}
	}
	q.sym, a.sym = ar.symQ, ar.symA
	side := nq
	if na > side {
		side = na
	}
	spas := ar.ensureSPAs(workers, side)
	if !cfg.DisableDeltaSkip {
		q.chg, a.chg = arenaBitset(&ar.chgQ, nq), arenaBitset(&ar.chgA, na)
	}

	depth := 0
	converged := false
	// One stat per ad pass, covering the query pass before it (none
	// before the first ad pass of an even-depth chain).
	stats := make([]IterationStat, 0, cfg.Iterations/2+1)
	var st IterationStat
	start := time.Now()
	for p := 0; p <= cfg.Iterations; p++ {
		if (cfg.Iterations-p)%2 == 1 {
			st.QueryRowsSkipped, st.QueryRows = q.pass(a, cfg, workers, spas), nq
			depth = p + 1
			continue
		}
		st.AdRowsSkipped, st.AdRows = a.pass(q, cfg, workers, spas), na
		st.Duration = time.Since(start)
		stats = append(stats, st)
		st, start = IterationStat{}, time.Now()
		if cfg.Tolerance > 0 && q.computed && q.diff < cfg.Tolerance && a.diff < cfg.Tolerance {
			converged = true
			break
		}
	}

	if cfg.Variant == Evidence {
		applyEvidence(q.prev, in.evQ)
		applyEvidence(a.prev, in.evA)
	}
	return &Result{
		Graph:  g,
		Config: cfg,
		// Detached copies: the arena's frontiers are the next run's scratch.
		QueryScores: q.prev.Clone(),
		AdScores:    a.prev.Clone(),
		Iterations:  depth,
		Converged:   converged,
		IterStats:   stats,
	}, nil
}

// chainSide is one side of the engine's chain: its newest scores, the
// scratch frontier its next pass fills, the expansion and change marks
// the opposite side's pass reads, and the per-run inputs of its kernel.
type chainSide struct {
	prev, cur *sparse.PairFrontier // prev holds the newest value
	sym       *sparse.SymAdj       // prev expanded for the opposite pass
	// chg marks the nodes whose newest scores moved from the previous
	// value on the chain, two depths back (nil with delta skip disabled).
	chg *sparse.Bitset
	// computed reports that prev came from a pass of this run, not the
	// start: only then is a row of it what the kernel would compute again
	// from inputs chg found unmoved.
	computed bool
	diff     float64 // max |newest − previous| over all pairs

	thisNbr, oppNbr [][]int
	w, revW         [][]float64 // Weighted only
	ev              *evidenceTable
	c               float64
}

// pass computes s's next value from opp's newest scores and returns how
// many rows the delta skip copied forward.
func (s *chainSide) pass(opp *chainSide, cfg Config, workers int, spas []*spa) int {
	var skip *sparse.Bitset // nil recomputes every row
	if s.computed {
		skip = opp.chg
	}
	// With skip marking nothing, every row that has neighbors is copied
	// forward and the empty rows' kernels return before touching the
	// adjacency, so the expansion would never be read: a drained side is
	// not expanded again.
	if skip == nil || skip.Count() > 0 {
		opp.sym = opp.prev.ExpandSymmetric(opp.sym)
	}
	var skipped int
	if cfg.Variant == Weighted {
		skipped = weightedPass(opp.sym, s.thisNbr, s.oppNbr, s.w, s.revW, s.ev, s.c, s.cur, s.prev, skip, workers, spas)
	} else {
		skipped = simplePass(opp.sym, s.thisNbr, s.oppNbr, s.c, s.cur, s.prev, skip, workers, spas)
	}
	if cfg.PruneEpsilon > 0 {
		s.cur.Prune(cfg.PruneEpsilon)
	}
	if s.chg != nil || cfg.Tolerance > 0 {
		if s.chg != nil {
			s.chg.Clear()
		}
		s.diff = s.cur.MaxAbsDiffChanged(s.prev, cfg.DeltaSkipTolerance, s.chg)
	}
	s.prev, s.cur = s.cur, s.prev
	s.computed = true
	return skipped
}

// spa is one worker's sparse-accumulator state: dense value arrays for the
// gather (u, over the opposite side, with its touched list) and the row
// accumulation (t, over this side, with one mark bit per cell), the
// scatter cursors, plus the row emit buffers. Arrays are sized to the
// larger side so one spa serves both passes.
type spa struct {
	u []float64 // gathered opposite-side scores, zeroed via ut
	// ut lists the touched cells of u in first-touch order. The scatter
	// walks it, so it fixes the order t's sums are taken in.
	ut []int
	t  []float64 // accumulated output row, zeroed via marks
	// marks has bit p set for every cell t[p] the scatter added to, zero
	// contributions included; the harvest walks the set bits, which come
	// out ascending, and clears them.
	marks []uint64
	// cur[j] is the first position of oppNbr[j] holding a node above the
	// last row that scattered j. A worker's rows ascend, so the cursor
	// only moves forward; runRowPass clears it when a worker starts.
	cur  []int32
	rowC []int32
	rowV []float64
}

// spaBytes is the footprint of one spa's dense arrays over n cells: u and
// t (8 bytes each), cur (4) and one mark bit.
func spaBytes(n int) int64 { return 20*int64(n) + 8*int64((n+63)/64) }

// gather accumulates u(j) = Σ_{i∈nbrs} f(i)·s(i, j) from the symmetric
// score rows of one output row's neighbors (the diagonal s(i, i) = 1
// included), listing the touched cells in sp.ut. fx holds the walk factors
// aligned with nbrs; nil is plain SimRank's all-ones, and multiplying by
// one is exact.
func (sp *spa) gather(nbrs []int, fx []float64, sym *sparse.SymAdj) {
	u, ut := sp.u, sp.ut[:0]
	for ki, i := range nbrs {
		fi := 1.0
		if fx != nil {
			if fi = fx[ki]; fi == 0 {
				continue
			}
		}
		if u[i] == 0 {
			ut = append(ut, i)
		}
		u[i] += fi // s(i, i) = 1
		lo, hi := sym.RowPtr[i], sym.RowPtr[i+1]
		col, val := sym.Col[lo:hi], sym.Val[lo:hi]
		for k, c := range col {
			j := int(c)
			if u[j] == 0 {
				ut = append(ut, j)
			}
			u[j] += fi * val[k]
		}
	}
	sp.ut = ut
}

// scatter drains the gathered u into t: every touched j, in sp.ut's order,
// adds u(j) — times j's reversed walk factors when revW is non-nil — to
// t(p) for its neighbors p > x and marks the cell. oppNbr[j] ascends and so
// do a worker's rows, so where it crosses x is a cursor that only advances
// (a delta-skipped row just leaves it to catch up later). Returns the
// lowest and highest index scattered to, pmin > pmax when there is none.
func (sp *spa) scatter(x int, oppNbr [][]int, revW [][]float64) (pmin, pmax int) {
	u, t, marks, cur := sp.u, sp.t, sp.marks, sp.cur
	pmin, pmax = len(t), -1
	for _, j := range sp.ut {
		uj := u[j]
		u[j] = 0
		if uj == 0 {
			continue
		}
		ps := oppNbr[j]
		k := int(cur[j])
		for k < len(ps) && ps[k] <= x {
			k++
		}
		cur[j] = int32(k)
		if k == len(ps) {
			continue
		}
		ps = ps[k:]
		pmin, pmax = min(pmin, ps[0]), max(pmax, ps[len(ps)-1])
		if revW != nil {
			scatterRow(t, marks, ps, revW[j][k:], uj)
			continue
		}
		for _, p := range ps {
			t[p] += uj
			marks[uint(p)>>6] |= 1 << (uint(p) & 63)
		}
	}
	return pmin, pmax
}

// scatterRow is the loop every weighted contribution leaves through: one
// multiply-add and one unconditional mark. It is kept out of line because,
// inlined into scatter, which has some twenty values live around it, its
// counter and p are spilled to the stack and reloaded on every iteration
// (PERF.md, "The kernel: cursor scatter, marked harvest"); gather's loop
// fits in registers where it is.
//
//go:noinline
func scatterRow(t []float64, marks []uint64, ps []int, fw []float64, uj float64) {
	fw = fw[:len(ps)]
	for k, p := range ps {
		t[p] += fw[k] * uj
		marks[uint(p)>>6] |= 1 << (uint(p) & 63)
	}
}

// runRowPass drives kernel over every output row of one side, returning
// how many rows the delta skip copied forward instead of computing. With
// workers > 1 the row space is split into contiguous ranges weighted by
// expected gather work; each worker owns disjoint rows and a private spa,
// so rows are computed and emitted with no locks and no merge phase. A
// worker visits its rows in ascending order, which is what lets the
// kernels keep scatter cursors (spa.cur) across rows.
//
// When changed is non-nil it marks the opposite-side nodes whose scores
// moved last iteration; an output row x depends only on the score rows of
// i ∈ thisNbr[x], so if none of them is marked, row x of prev is copied
// into dst — identical to what the kernel would recompute, for free.
func runRowPass(thisNbr [][]int, sym *sparse.SymAdj, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa, kernel func(sp *spa, x int)) int {
	n := len(thisNbr)
	dst.Reset()
	if workers > n {
		workers = n
	}
	unchanged := func(x int) bool {
		// Rows with no neighbors are always empty and free to recompute;
		// not counting them keeps the skip metrics honest.
		if changed == nil || len(thisNbr[x]) == 0 {
			return false
		}
		for _, i := range thisNbr[x] {
			if changed.Has(i) {
				return false
			}
		}
		return true
	}
	skipped := 0
	if workers <= 1 {
		sp := spas[0]
		clear(sp.cur)
		for x := 0; x < n; x++ {
			if unchanged(x) {
				dst.CopyRowFrom(prev, x)
				skipped++
				continue
			}
			kernel(sp, x)
		}
	} else {
		weights := make([]int, n)
		var skip []bool // decided once here, read by the workers
		if changed != nil {
			skip = make([]bool, n)
		}
		for x, nbrs := range thisNbr {
			if unchanged(x) {
				skip[x] = true
				weights[x] = 1 // a copy, not a gather
				continue
			}
			w := 1
			for _, i := range nbrs {
				w += 1 + sym.RowNNZ(i)
			}
			weights[x] = w
		}
		bounds := sparse.SplitByWeight(weights, workers)
		skips := make([]int, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			lo, hi := bounds[wk], bounds[wk+1]
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(sp *spa, wk, lo, hi int) {
				defer wg.Done()
				clear(sp.cur)
				for x := lo; x < hi; x++ {
					if skip != nil && skip[x] {
						dst.CopyRowFrom(prev, x)
						skips[wk]++
						continue
					}
					kernel(sp, x)
				}
			}(spas[wk], wk, lo, hi)
		}
		wg.Wait()
		for _, s := range skips {
			skipped += s
		}
	}
	return skipped
}

// simplePass computes one plain-SimRank iteration for one side ("this"
// side) from the opposite side's symmetric score adjacency into dst.
// thisNbr maps this side's nodes to opposite-side neighbors; oppNbr the
// reverse.
//
// Row x gathers T(x, y) = Σ_{i∈E(x)} Σ_{j∈E(y)} s(i, j) in two phases:
// u(j) = Σ_{i∈E(x)} s(i, j) (spa.gather), then each touched j scatters
// u(j) to t(p) for its neighbors p ∈ E(j) with p > x (spa.scatter) — T is
// symmetric, so row x's computation alone yields the full sum for every
// stored pair (x, y), y > x.
//
// Every contribution is one add and one unconditional mark; the harvest
// walks the marks between the lowest and highest scattered index, so rows
// come out sorted and its cost follows what the row touched, not the side.
func simplePass(sym *sparse.SymAdj, thisNbr, oppNbr [][]int, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return runRowPass(thisNbr, sym, dst, prev, changed, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		sp.gather(nbrs, nil, sym)
		pmin, pmax := sp.scatter(x, oppNbr, nil)
		t, marks := sp.t, sp.marks
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		dx := float64(len(nbrs))
		for wi := pmin >> 6; wi <= pmax>>6; wi++ {
			word := marks[wi]
			marks[wi] = 0
			for ; word != 0; word &= word - 1 {
				p := wi<<6 | bits.TrailingZeros64(word)
				tv := t[p]
				t[p] = 0
				if s := c * tv / (dx * float64(len(thisNbr[p]))); s != 0 {
					rowC = append(rowC, int32(p))
					rowV = append(rowV, s)
				}
			}
		}
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// weightedPass computes one weighted-SimRank iteration for one side into
// dst: the same two-phase row gather as simplePass with every
// contribution scaled by the walk factors of the two edges it traverses.
// w holds this side's forward factor rows (aligned with thisNbr) and revW
// the factors reversed onto the opposite side (reverseFactors), both
// built once per run.
//
// Evidence is fused into the harvest: the marks yield the row's cells in
// ascending order, which is the order the evidence table's precomputed
// multiplier row for x is stored in, so the two are merge-walked —
// O(d + k) sequential reads instead of k binary-searched lookups each
// paying the multiplier math. A zero walk factor contributes an exact zero
// and a mark; the emit's s != 0 test drops the cell if nothing else
// reached it.
func weightedPass(sym *sparse.SymAdj, thisNbr, oppNbr [][]int, w, revW [][]float64, ev *evidenceTable, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return runRowPass(thisNbr, sym, dst, prev, changed, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		sp.gather(nbrs, w[x], sym)
		pmin, pmax := sp.scatter(x, oppNbr, revW)
		t, marks := sp.t, sp.marks
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		evC, evV := ev.mult.Row(x)
		def := ev.def
		k := 0 // merge-walk cursor into the evidence row; p ascends with it
		for wi := pmin >> 6; wi <= pmax>>6; wi++ {
			word := marks[wi]
			marks[wi] = 0
			for ; word != 0; word &= word - 1 {
				p := wi<<6 | bits.TrailingZeros64(word)
				tv := t[p]
				t[p] = 0
				for k < len(evC) && int(evC[k]) < p {
					k++
				}
				e := def
				if k < len(evC) && int(evC[k]) == p {
					e = evV[k]
				}
				if e > 0 {
					if s := e * c * tv; s != 0 {
						rowC = append(rowC, int32(p))
						rowV = append(rowV, s)
					}
				}
			}
		}
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// evidenceTable holds one side's evidence multipliers, fully expanded into
// a symmetric CSR (sparse.SymAdj) whose values are the precomputed
// EvidenceMultiplier of each pair's common-neighbor count. The exp/shift
// math of Equation 7.3/7.4 is paid once per pair at build; the weighted
// harvest merge-walks a row instead of probing a table, and pairs with no
// common neighbors fall through to def (1 pass-through, or 0 under
// Config.StrictEvidence).
type evidenceTable struct {
	mult *sparse.SymAdj
	def  float64
}

// newEvidenceTable counts common neighbors for every pair on one side and
// maps the counts to multipliers. thisNbr maps this side's nodes to their
// opposite-side neighbors and oppNbr the reverse, so the nodes reached in
// two steps from x are the ones sharing a neighbor with it, once per
// neighbor shared. Row x is counted the way the kernel accumulates a
// score row: one increment and one unconditional mark a step into a dense
// array, then a walk of the marks, which yields the row ascending and
// leaves the array zero for the next.
func newEvidenceTable(thisNbr, oppNbr [][]int, form EvidenceForm, strict bool) *evidenceTable {
	n := len(thisNbr)
	// A row holds at most one cell per two-step walk that leaves x, and at
	// most one per other node: sized so, the table is allocated once.
	cells := 0
	for _, nbrs := range thisNbr {
		walks := 0
		for _, o := range nbrs {
			walks += len(oppNbr[o]) - 1
		}
		cells += min(walks, n-1)
	}
	mult := &sparse.SymAdj{RowPtr: make([]int, n+1), Col: make([]int32, 0, cells), Val: make([]float64, 0, cells)}
	cnt := make([]int32, n)
	marks := make([]uint64, (n+63)/64)
	for x, nbrs := range thisNbr {
		ymin, ymax := n, -1
		for _, o := range nbrs {
			ys := oppNbr[o] // holds x, so it is not empty
			ymin, ymax = min(ymin, ys[0]), max(ymax, ys[len(ys)-1])
			for _, y := range ys {
				cnt[y]++
				marks[uint(y)>>6] |= 1 << (uint(y) & 63)
			}
		}
		for wi := ymin >> 6; wi <= ymax>>6; wi++ {
			word := marks[wi]
			marks[wi] = 0
			for ; word != 0; word &= word - 1 {
				y := wi<<6 | bits.TrailingZeros64(word)
				c := cnt[y]
				cnt[y] = 0
				if y != x {
					mult.Col = append(mult.Col, int32(y))
					mult.Val = append(mult.Val, EvidenceScore(form, int(c)))
				}
			}
		}
		mult.RowPtr[x+1] = len(mult.Col)
	}
	def := 1.0
	if strict {
		def = 0
	}
	return &evidenceTable{mult: mult, def: def}
}

// score returns the multiplier for the pair (x, y): a binary search of
// x's symmetric multiplier row. The hot path (weightedPass) does not call
// it — it merge-walks the row — but applyEvidence and the map reference
// passes in the tests do.
func (e *evidenceTable) score(x, y int) float64 {
	cols, vals := e.mult.Row(x)
	target := int32(y)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cols[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == target {
		return vals[lo]
	}
	return e.def
}

// applyEvidence multiplies every stored pair by its evidence in place,
// dropping pairs whose evidence is zero (no common neighbors).
func applyEvidence(f *sparse.PairFrontier, ev *evidenceTable) {
	f.Map(func(i, j int, v float64) (float64, bool) {
		v *= ev.score(i, j)
		return v, v != 0
	})
}
