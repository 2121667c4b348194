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
// dense accumulator, then pull every cell of x's row as one dot product,
// t(x, p) = Σ_{j∈E(p)} u(j), over p's own neighbor row, for each
// candidate p > x of x's connected component, and emit the row in
// ascending order straight into a sparse.PairFrontier (per-row sorted
// storage, no hashing and no sorting anywhere). The weighted dot product
// also counts |E(x) ∩ E(p)|, the one input of the pair's evidence, so no
// per-pair evidence table is built or read. Where the opposite side's
// scores in a component are dense, u is gathered by adding whole rows of
// a dense block of them; where they are sparse, it is gathered from their
// symmetric expansion and the candidates are only the nodes the gathered
// u can reach, so work stays proportional to the nonzero structure — the
// sparsity the click graph actually has — while every term costs a
// multiply-add in a register instead of the hash probe the map-based
// engine paid, and the frontiers ping-pong across iterations so
// steady-state passes barely allocate.
func Run(g *clickgraph.Graph, cfg Config) (*Result, error) {
	return runEngine(g, cfg, 1, nil, nil)
}

// scoreSink is where runEngine writes a run's final scores: frontiers over
// the id space qIDs and aIDs (ascending; nil keeps the graph's ids) map
// the run's graph into — for a shard, the stitched frontiers.
type scoreSink struct {
	q, a       *sparse.PairFrontier
	qIDs, aIDs []int
}

// passInputs holds the per-run immutable inputs of the iteration passes:
// neighbor rows, weighted-walk factor rows, the evidence multiplier of
// every common-neighbor count, and the component layout the pull kernel
// draws its candidates and score blocks from. Everything is in the
// engine's numbering (memberIndex): each side's nodes renumbered component
// by component, ascending within each. The renumbering is monotone on
// every neighbor row and every stored pair, so rows keep their order and
// every sum its terms' order; the run maps its frontiers back to the
// graph's ids when it emits them (memberIndex.emit).
type passInputs struct {
	qNbr, aNbr [][]int
	qW, aW     [][]float64 // Weighted only: forward factor rows
	ev         []float64   // Weighted and Evidence only: see evidenceByCount
	qIdx, aIdx *memberIndex
}

// newPassInputs builds g's pass inputs for cfg. Nothing in them is per
// pair: the evidence of a pair is read from ev by the common-neighbor
// count the kernel takes in the pull, so its size is the largest degree.
func newPassInputs(g *clickgraph.Graph, cfg Config) *passInputs {
	nq, na := g.NumQueries(), g.NumAds()
	comps := clickgraph.Components(g)
	in := &passInputs{qIdx: newMemberIndex(nq, comps, false), aIdx: newMemberIndex(na, comps, true)}
	in.qNbr = layoutRows(in.qIdx, in.aIdx, g.NumEdges(), func(q int) []int { ads, _ := g.AdsOf(q); return ads })
	in.aNbr = layoutRows(in.aIdx, in.qIdx, g.NumEdges(), func(a int) []int { qs, _ := g.QueriesOf(a); return qs })
	if cfg.Variant == Weighted {
		model := newTransitionModel(g, cfg.Channel, cfg.DisableSpread)
		in.qW, in.aW = carveRows(in.qNbr), carveRows(in.aNbr)
		for q := 0; q < nq; q++ {
			model.queryRow(in.qIdx.graphID(q), in.qW[q])
		}
		for a := 0; a < na; a++ {
			model.adRow(in.aIdx.graphID(a), in.aW[a])
		}
	}
	if cfg.Variant != Simple {
		in.ev = evidenceByCount(cfg.EvidenceForm, cfg.StrictEvidence, in.qNbr, in.aNbr)
	}
	return in
}

// layoutRows returns one side's neighbor rows in the engine's numbering:
// row x is the graph row of idx's node x with every neighbor renumbered by
// opp. Where opp keeps the graph's numbering the graph's rows are used as
// they are; otherwise the rows are carved from one slab of edges cells.
func layoutRows(idx, opp *memberIndex, edges int, row func(int) []int) [][]int {
	rows := make([][]int, len(idx.comp))
	if opp.pos == nil {
		for x := range rows {
			rows[x] = row(idx.graphID(x))
		}
		return rows
	}
	slab := make([]int, edges)
	for x := range rows {
		src := row(idx.graphID(x))
		dst := slab[:len(src):len(src)]
		slab = slab[len(src):]
		for k, j := range src {
			dst[k] = opp.pos[j]
		}
		rows[x] = dst
	}
	return rows
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

// memberIndex is one side's layout in the engine's numbering: nodes
// numbered component by component (clickgraph.Components), ascending
// within each, so component c is the range [bounds[c], bounds[c+1]). A
// pair in two components scores zero at every depth, so the pull kernel's
// candidates for row x are at most the nodes of x's component above x,
// and the opposite side's scores in one component fit one square block
// (planPass). The two sides' indexes of one run share component numbers.
type memberIndex struct {
	bounds []int32 // component c is [bounds[c], bounds[c+1])
	comp   []int32 // node → its component
	iota   []int32 // iota[x] == x: above(x) is a window of it
	// order maps a node to its graph id and pos a graph id to its node;
	// both are nil where the numbering is the graph's own.
	order, pos []int
}

// newMemberIndex numbers one side (the ads when ads is set) of n nodes by
// comps, which list every node once, each component's nodes ascending.
func newMemberIndex(n int, comps []clickgraph.Component, ads bool) *memberIndex {
	m := &memberIndex{bounds: make([]int32, 1, len(comps)+1), comp: make([]int32, n), iota: make([]int32, n), order: make([]int, 0, n)}
	identity := true
	for c, comp := range comps {
		nodes := comp.Queries
		if ads {
			nodes = comp.Ads
		}
		for _, v := range nodes {
			identity = identity && v == len(m.order)
			m.comp[len(m.order)] = int32(c)
			m.order = append(m.order, v)
		}
		m.bounds = append(m.bounds, int32(len(m.order)))
	}
	for x := range m.iota {
		m.iota[x] = int32(x)
	}
	if identity {
		m.order = nil
		return m
	}
	m.pos = make([]int, n)
	for x, v := range m.order {
		m.pos[v] = x
	}
	return m
}

// graphID returns node x's id in the graph.
func (m *memberIndex) graphID(x int) int {
	if m.order == nil {
		return x
	}
	return m.order[x]
}

// span returns component c's node range.
func (m *memberIndex) span(c int32) (lo, hi int) {
	return int(m.bounds[c]), int(m.bounds[c+1])
}

// above returns the nodes of x's component above x, ascending.
func (m *memberIndex) above(x int) []int32 {
	return m.iota[x+1 : m.bounds[m.comp[x]+1]]
}

// emit copies f, a frontier of this side in the engine's numbering, into
// dst: node x's row lands in row ids[graphID(x)] (graphID(x) for nil ids).
// ids ascend and the renumbering is monotone within a component, which no
// stored pair leaves, so the composed map keeps copied rows sorted.
func (m *memberIndex) emit(dst, f *sparse.PairFrontier, ids []int) {
	to := ids
	switch {
	case m.order == nil:
	case ids == nil:
		to = m.order
	default:
		to = make([]int, len(m.order))
		for x, v := range m.order {
			to[x] = ids[v]
		}
	}
	dst.SetRowsRemapped(f, to)
}

// candidates is one pass's gather plan: for every component of this side,
// how row x gathers u and which candidates it evaluates. A dense
// component's opposite-side scores are a square block (block[c]), and its
// rows add whole block rows into u and evaluate the component range
// (memberIndex.above), an index read. A sparse one (block[c] nil) gathers
// from the opposite side's expansion sym, listing the cells it touches,
// and evaluates the union of E(j) over the j it touched (spa.reach), which
// leaves out the members x cannot reach. A member left out scores exactly
// zero — each of its dot-product terms reads a u(j) the gather never
// touched — and a block row adds the same terms to each cell in the same
// order as the expansion's row plus its diagonal (the zeros it adds
// besides change nothing), so both paths give the same rows bit for bit
// and the choice is one of cost alone.
type candidates struct {
	idx, opp *memberIndex   // this side's layout and the opposite side's
	sym      *sparse.SymAdj // the opposite side's expansion; nil when no gathering component is sparse
	block    [][]float64    // per component: its m × m score block, or nil
}

// blockFits reports whether a component with m opposite-side nodes and
// nnz expanded partners (each stored pair counted from both ends) gathers
// from a block: when the block, 8 bytes a cell, is no larger than the
// expansion's rows it replaces, 12 bytes a partner plus an 8-byte row
// pointer a node. So blocks never take more memory than the expansion
// would, and a dense block's extra zeros cost at most what the index
// loads they replace do.
func blockFits(m, nnz int) bool { return 8*m*m <= 12*nnz+8*m }

// planPass decides every component's gather for one pass from prev, the
// opposite side's newest scores, reading only its row lengths, and fills
// the dense components' blocks (fillBlocks). A component none of whose
// opposite-side nodes skip marks gets neither a block nor a test: each of
// its rows is copied forward or has no neighbors, so none gathers (skip
// nil recomputes every row). expand reports whether a component that
// gathers is sparse — the expansion's only reader, so a pass without one
// skips it. dense and block hold one cell per component and are
// overwritten; the blocks are carved from *slab, grown as needed.
func planPass(idx, opp *memberIndex, prev *sparse.PairFrontier, skip *sparse.Bitset, dense []bool, block [][]float64, slab *[]float64) (cand candidates, expand bool) {
	for c := range dense {
		lo, hi := opp.span(int32(c))
		dense[c] = false
		if !anyMarked(skip, lo, hi) {
			continue
		}
		pairs := 0
		for j := lo; j < hi; j++ {
			cols, _ := prev.Row(j)
			pairs += len(cols)
		}
		dense[c] = blockFits(hi-lo, 2*pairs)
		expand = expand || !dense[c]
	}
	fillBlocks(opp, prev, dense, block, slab)
	return candidates{idx: idx, opp: opp, block: block}, expand
}

// anyMarked reports whether skip marks a node of [lo, hi); a nil skip
// marks every node.
func anyMarked(skip *sparse.Bitset, lo, hi int) bool {
	if skip == nil {
		return true
	}
	for j := lo; j < hi; j++ {
		if skip.Has(j) {
			return true
		}
	}
	return false
}

// fillBlocks sets block[c] to component c's m × m block of prev's scores
// where dense[c] is set, and to nil elsewhere. Row i of a block is node
// lo+i's scores against the component's nodes, s(i, i) = 1 on the
// diagonal and zero where prev stores no pair. The blocks are carved from
// *slab, which grows to their total when it is short.
func fillBlocks(opp *memberIndex, prev *sparse.PairFrontier, dense []bool, block [][]float64, slab *[]float64) {
	cells := 0
	for c, d := range dense {
		if d {
			lo, hi := opp.span(int32(c))
			cells += (hi - lo) * (hi - lo)
		}
	}
	if cap(*slab) < cells {
		*slab = make([]float64, cells)
	}
	buf := (*slab)[:cells]
	clear(buf)
	for c, d := range dense {
		block[c] = nil
		if !d {
			continue
		}
		lo, hi := opp.span(int32(c))
		m := hi - lo
		blk := buf[: m*m : m*m]
		buf = buf[m*m:]
		for i := 0; i < m; i++ {
			blk[i*m+i] = 1
		}
		for i := lo; i < hi; i++ {
			cols, vals := prev.Row(i)
			ri := (i - lo) * m
			for k, p := range cols {
				pl := int(p) - lo
				blk[ri+pl] = vals[k]
				blk[pl*m+i-lo] = vals[k]
			}
		}
		block[c] = blk
	}
}

// weight is row x's expected gather work, which the multi-worker split
// balances: a block row per neighbor on a dense component, the neighbor's
// expansion row plus its diagonal on a sparse one.
func (cand candidates) weight(x int, nbrs []int) int {
	c := cand.idx.comp[x]
	if cand.block[c] != nil {
		lo, hi := cand.opp.span(c)
		return 1 + len(nbrs)*(hi-lo)
	}
	w := 1
	for _, i := range nbrs {
		w += 1 + cand.sym.RowNNZ(i)
	}
	return w
}

// engineArena is the reusable allocation state of one engine run:
// ping-pong frontiers, symmetric adjacencies, the score blocks' slab,
// dense accumulators, and the change bitsets. A fresh runEngine call with
// a nil arena allocates its own; the shard scheduler keeps one arena per pool worker and re-runs it
// across shards, so every shard after a worker's first reuses the
// previous shard's capacity instead of reallocating — and since the
// structures are sized to the shard being run, a worker's footprint is
// proportional to the largest shard it sees, never the whole graph.
type engineArena struct {
	prevQ, curQ, prevA, curA *sparse.PairFrontier
	symQ, symA               *sparse.SymAdj
	blocks                   []float64 // one pass's score blocks (planPass)
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
// zero: the kernel restores every gathered cell and mark to zero before
// it emits a row.
func (ar *engineArena) ensureSPAs(workers, n int) []*spa {
	for len(ar.spas) < workers {
		ar.spas = append(ar.spas, &spa{})
	}
	spas := ar.spas[:workers]
	for _, sp := range spas {
		if len(sp.u) < n {
			sp.u, sp.marks, sp.inX = make([]float64, n), make([]uint64, (n+63)/64), make([]uint8, n)
			sp.ut, sp.pt = make([]int32, 0, n), make([]int32, 0, n)
		}
	}
	return spas
}

// runEngine is the shared iteration loop behind Run (workers == 1) and
// the per-shard engines of RunSharded. Each output row is computed by
// exactly one of workers goroutines (contiguous row ranges balanced by
// gather weight, emitted into disjoint rows of one frontier) in the
// serial order, so scores do not depend on workers. ar supplies reusable
// allocation state (nil for a standalone run); out receives the final
// scores (nil: new frontiers in g's ids). Every run starts from the
// identity, so its scores are the paper's iterates and depend on g and
// cfg alone.
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
// filled row by row from the opposite side's newest frontier (blocked or
// expanded once per pass, as planPass decides), and swapped in.
//
// Iteration is change-tracked: the diff of a side's new value against its
// previous one on the chain also marks which nodes' scores moved
// (MaxAbsDiffChanged), and an output row whose neighbors all went
// unmarked is copied forward from the side's previous value instead of
// recomputed — once that value was itself computed by the chain, from the
// inputs the marks were taken against. With the default exact-equality
// tracking the copy is bit-identical to recomputation — SimRank converges
// row by row, so late passes approach the cost of only their still-moving
// rows. See Config.DeltaSkipTolerance.
func runEngine(g *clickgraph.Graph, cfg Config, workers int, ar *engineArena, out *scoreSink) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ar == nil {
		ar = &engineArena{}
	}
	in := newPassInputs(g, cfg)
	nq, na := g.NumQueries(), g.NumAds()
	comps := len(in.qIdx.bounds) - 1

	q := &chainSide{
		prev: arenaFrontier(&ar.prevQ, nq), cur: arenaFrontier(&ar.curQ, nq),
		thisNbr: in.qNbr, oppNbr: in.aNbr, w: in.qW, c: cfg.C1,
		idx: in.qIdx, dense: make([]bool, comps), block: make([][]float64, comps),
	}
	a := &chainSide{
		prev: arenaFrontier(&ar.prevA, na), cur: arenaFrontier(&ar.curA, na),
		thisNbr: in.aNbr, oppNbr: in.qNbr, w: in.aW, c: cfg.C2,
		idx: in.aIdx, dense: make([]bool, comps), block: make([][]float64, comps),
	}
	spas := ar.ensureSPAs(workers, max(nq, na))
	if ar.symQ == nil {
		ar.symQ, ar.symA = &sparse.SymAdj{}, &sparse.SymAdj{}
	}
	q.sym, a.sym = ar.symQ, ar.symA
	if !cfg.noDeltaSkip {
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
			st.QueryRowsSkipped, st.QueryRows = q.pass(a, cfg, in.ev, workers, spas, &ar.blocks), nq
			depth = p + 1
			continue
		}
		st.AdRowsSkipped, st.AdRows = a.pass(q, cfg, in.ev, workers, spas, &ar.blocks), na
		st.Duration = time.Since(start)
		stats = append(stats, st)
		st, start = IterationStat{}, time.Now()
		if cfg.Tolerance > 0 && q.computed && q.diff < cfg.Tolerance && a.diff < cfg.Tolerance {
			converged = true
			break
		}
	}

	if cfg.Variant == Evidence {
		spas[0].applyEvidence(q.prev, in.qNbr, in.ev)
		spas[0].applyEvidence(a.prev, in.aNbr, in.ev)
	}
	// The arena's frontiers are the next run's scratch: the scores leave
	// them in one copy, straight into out's ids.
	if out == nil {
		out = &scoreSink{q: sparse.NewPairFrontier(nq), a: sparse.NewPairFrontier(na)}
	}
	in.qIdx.emit(out.q, q.prev, out.qIDs)
	in.aIdx.emit(out.a, a.prev, out.aIDs)
	return &Result{
		Graph:       g,
		Config:      cfg,
		QueryScores: out.q,
		AdScores:    out.a,
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
	sym       *sparse.SymAdj       // prev expanded for the opposite pass, when one reads it
	// chg marks the nodes whose newest scores moved from the previous
	// value on the chain, two depths back (nil with delta skip disabled).
	chg *sparse.Bitset
	// computed reports that prev came from a pass of this run, not the
	// start: only then is a row of it what the kernel would compute again
	// from inputs chg found unmoved.
	computed bool
	diff     float64 // max |newest − previous| over all pairs

	thisNbr, oppNbr [][]int
	w               [][]float64 // Weighted only
	c               float64
	idx             *memberIndex // this side's layout
	dense           []bool       // planPass's scratch
	block           [][]float64  // planPass's blocks, one slot a component
}

// pass computes s's next value from opp's newest scores and returns how
// many rows the delta skip copied forward. ev is the run's evidence
// multiplier by common-neighbor count (passInputs.ev); the pass's score
// blocks are carved from *blocks (engineArena.blocks).
func (s *chainSide) pass(opp *chainSide, cfg Config, ev []float64, workers int, spas []*spa, blocks *[]float64) int {
	var skip *sparse.Bitset // nil recomputes every row
	if s.computed {
		skip = opp.chg
	}
	// opp is expanded only for a sparse component that gathers: a pass of
	// dense components reads blocks alone, and a drained side (skip marking
	// nothing) gathers nowhere.
	cand, expand := planPass(s.idx, opp.idx, opp.prev, skip, s.dense, s.block, blocks)
	if expand {
		opp.sym = opp.prev.ExpandSymmetric(opp.sym)
		cand.sym = opp.sym
	}
	var skipped int
	if cfg.Variant == Weighted {
		skipped = weightedPass(s.thisNbr, s.oppNbr, s.w, ev, cand, s.c, s.cur, s.prev, skip, workers, spas)
	} else {
		skipped = simplePass(s.thisNbr, s.oppNbr, cand, s.c, s.cur, s.prev, skip, workers, spas)
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

// spa is one worker's sparse-accumulator state: the dense gather array u
// over the opposite side with its touched list and the row's neighbor
// marks, the marks and candidate list of the sparse candidate path over
// this side, and the row emit buffers. Arrays are sized to the larger side
// so one spa serves both passes.
type spa struct {
	u  []float64 // gathered opposite-side scores
	ut []int32   // touched cells of u, in first-touch order (sparse gather)
	// lo, hi is the range of u a block gather wrote (dense gather).
	lo, hi int
	// inX is 1 at every j ∈ E(x) while row x is pulled and 0 elsewhere:
	// summed over E(p) beside the dot product, it counts the common
	// neighbors of x and p, which is all the pair's evidence depends on.
	inX []uint8
	// marks has bit p set for every candidate reach found; it walks the set
	// bits, which come out ascending, into pt and clears them.
	marks []uint64
	pt    []int32
	rowC  []int32
	rowV  []float64
	// cells counts the dot products the kernel evaluated over the spa's
	// life: the work the candidate sets are chosen to bound
	// (TestPullSparseGuard).
	cells int
}

// spaBytes is the footprint of one spa's arrays over n cells: u (8 bytes
// a cell), the touched list ut and the sparse path's candidate list pt (4
// each, both allocated at full capacity), the neighbor marks inX (1), and
// the sparse path's one mark bit.
func spaBytes(n int) int64 { return 17*int64(n) + 8*int64((n+63)/64) }

// gather prepares row x of a pass: it accumulates u from x's neighbors
// and returns x's candidates, ascending — on a dense component the block
// rows and the members above x, on a sparse one the expansion's rows and
// the nodes the touched cells reach.
func (sp *spa) gather(x int, nbrs []int, fx []float64, oppNbr [][]int, cand candidates) []int32 {
	c := cand.idx.comp[x]
	if blk := cand.block[c]; blk != nil {
		lo, hi := cand.opp.span(c)
		sp.addRows(nbrs, fx, blk, lo, hi)
		return cand.idx.above(x)
	}
	sp.accumulate(nbrs, fx, cand.sym)
	return sp.reach(x, oppNbr)
}

// addRows adds u(j) = Σ_{i∈nbrs} f(i)·s(i, j) for every j of a component
// [lo, hi) from its score block blk, one whole row per neighbor: the terms
// of each cell in the order accumulate adds them, with exact zeros where
// the expansion has no partner. fx is as in accumulate.
func (sp *spa) addRows(nbrs []int, fx []float64, blk []float64, lo, hi int) {
	u := sp.u[lo:hi]
	m := len(u)
	for ki, i := range nbrs {
		fi := 1.0
		if fx != nil {
			if fi = fx[ki]; fi == 0 {
				continue
			}
		}
		row := blk[(i-lo)*m:]
		row = row[:len(u)]
		for k, v := range row {
			u[k] += fi * v
		}
	}
	sp.ut, sp.lo, sp.hi = sp.ut[:0], lo, hi
}

// accumulate adds u(j) = Σ_{i∈nbrs} f(i)·s(i, j) from the symmetric score
// rows of nbrs (the diagonal s(i, i) = 1 included), listing the touched
// cells in sp.ut in first-touch order. fx holds the walk factors aligned
// with nbrs; nil is plain SimRank's all-ones, and multiplying by one is
// exact.
func (sp *spa) accumulate(nbrs []int, fx []float64, sym *sparse.SymAdj) {
	u, ut := sp.u, sp.ut[:0]
	for ki, i := range nbrs {
		fi := 1.0
		if fx != nil {
			if fi = fx[ki]; fi == 0 {
				continue
			}
		}
		if u[i] == 0 {
			ut = append(ut, int32(i))
		}
		u[i] += fi // s(i, i) = 1
		lo, hi := sym.RowPtr[i], sym.RowPtr[i+1]
		col, val := sym.Col[lo:hi], sym.Val[lo:hi]
		for k, c := range col {
			if u[c] == 0 {
				ut = append(ut, c)
			}
			u[c] += fi * val[k]
		}
	}
	sp.ut, sp.lo, sp.hi = ut, 0, 0
}

// reach collects the union of the nodes above x in E(j) over every j with
// u(j) ≠ 0: each E(j) ascends, so its members above x are a suffix, walked
// from the top down and marked; the marks between the lowest and highest
// marked node are then read off ascending into sp.pt and cleared.
func (sp *spa) reach(x int, oppNbr [][]int) []int32 {
	u, marks := sp.u, sp.marks
	pmin, pmax := len(marks)<<6, -1
	for _, j := range sp.ut {
		if u[j] == 0 {
			continue
		}
		ps := oppNbr[j]
		k := len(ps)
		for k > 0 && ps[k-1] > x {
			k--
			p := uint(ps[k])
			marks[p>>6] |= 1 << (p & 63)
		}
		if k < len(ps) {
			pmin, pmax = min(pmin, ps[k]), max(pmax, ps[len(ps)-1])
		}
	}
	pt := sp.pt[:0]
	for wi := pmin >> 6; wi <= pmax>>6; wi++ {
		word := marks[wi]
		marks[wi] = 0
		for ; word != 0; word &= word - 1 {
			pt = append(pt, int32(wi<<6|bits.TrailingZeros64(word)))
		}
	}
	sp.pt = pt
	return pt
}

// release zeroes the cells of u the row's gather wrote.
func (sp *spa) release() {
	u := sp.u
	clear(u[sp.lo:sp.hi])
	for _, j := range sp.ut {
		u[j] = 0
	}
}

// mark sets inX to v at every neighbor in nbrs: 1 before a row, 0 after.
func (sp *spa) mark(nbrs []int, v uint8) {
	inX := sp.inX
	for _, j := range nbrs {
		inX[j] = v
	}
}

// runRowPass drives kernel over every output row of one side, returning
// how many rows the delta skip copied forward instead of computing. With
// workers > 1 the row space is split into contiguous ranges weighted by
// expected gather work; each worker owns disjoint rows and a private spa,
// so rows are computed and emitted with no locks and no merge phase. A
// row's value depends on nothing but the pass's inputs, so it does not
// depend on which worker computes it, or in what order.
//
// When changed is non-nil it marks the opposite-side nodes whose scores
// moved last iteration; an output row x depends only on the score rows of
// i ∈ thisNbr[x], so if none of them is marked, row x of prev is copied
// into dst — identical to what the kernel would recompute, for free.
func runRowPass(thisNbr [][]int, cand candidates, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa, kernel func(sp *spa, x int)) int {
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
			weights[x] = cand.weight(x, nbrs)
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
// side) from the opposite side's scores, as cand plans them, into dst.
// thisNbr maps this side's nodes to opposite-side neighbors; oppNbr the
// reverse.
//
// Row x computes T(x, p) = Σ_{i∈E(x)} Σ_{j∈E(p)} s(i, j) in two phases:
// u(j) = Σ_{i∈E(x)} s(i, j) with x's candidates (spa.gather), then for
// each candidate p > x the pull t = Σ_{j∈E(p)} u(j), one dot product over
// p's own neighbor row in ascending j — T is symmetric, so row x's
// computation alone yields the full sum for every stored pair (x, p),
// p > x. The candidates ascend, so the row comes out sorted, and each
// cell is final when computed: no row accumulator, no marks to harvest.
func simplePass(thisNbr, oppNbr [][]int, cand candidates, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return runRowPass(thisNbr, cand, dst, prev, changed, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		ps := sp.gather(x, nbrs, nil, oppNbr, cand)
		u := sp.u
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		dx := float64(len(nbrs))
		for _, p := range ps {
			js := thisNbr[p]
			t := 0.0
			for _, j := range js {
				t += u[j]
			}
			if s := c * t / (dx * float64(len(js))); s != 0 {
				rowC = append(rowC, p)
				rowV = append(rowV, s)
			}
		}
		sp.release()
		sp.cells += len(ps)
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// weightedPass computes one weighted-SimRank iteration for one side into
// dst: the same gather and pull as simplePass with every term scaled by
// the walk factors of the two edges it traverses — W(x, i) in the gather,
// and W(p, j), p's own forward factor row aligned with its neighbor row,
// in the pull. w holds this side's forward factor rows, built once per
// run.
//
// Evidence is counted in the pull: E(x) is marked in sp.inX before the
// row, so the loop that sums W(p, j)·u(j) over j ∈ E(p) also sums the
// marks, |E(x) ∩ E(p)|, and the cell is scaled by ev at that count — no
// per-pair table to build or walk. Under StrictEvidence ev[0] is 0, so a
// pair with no common neighbor scores exactly zero and the emit's s != 0
// test drops it, as it drops a cell only zero walk factors reached.
func weightedPass(thisNbr, oppNbr [][]int, w [][]float64, ev []float64, cand candidates, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return runRowPass(thisNbr, cand, dst, prev, changed, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		ps := sp.gather(x, nbrs, w[x], oppNbr, cand)
		sp.mark(nbrs, 1)
		u, inX := sp.u, sp.inX
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		for _, p := range ps {
			js, wp := thisNbr[p], w[p]
			wp = wp[:len(js)]
			t, n := 0.0, 0
			for kj, j := range js {
				t += wp[kj] * u[j]
				n += int(inX[j])
			}
			if s := ev[n] * c * t; s != 0 {
				rowC = append(rowC, p)
				rowV = append(rowV, s)
			}
		}
		sp.mark(nbrs, 0)
		sp.release()
		sp.cells += len(ps)
		sp.rowC, sp.rowV = rowC, rowV
		dst.SetSortedRow(x, rowC, rowV)
	})
}

// applyEvidence multiplies every stored pair (x, p) of f in place by the
// multiplier of its common-neighbor count, counted as the weighted pull
// counts it: E(x) marked once per row, the marks summed over E(p). Pairs
// whose evidence is zero (no common neighbors) are dropped. nbr is the
// side's neighbor rows and ev the run's multiplier by count.
func (sp *spa) applyEvidence(f *sparse.PairFrontier, nbr [][]int, ev []float64) {
	row := -1
	f.Map(func(x, p int, v float64) (float64, bool) {
		if x != row {
			if row >= 0 {
				sp.mark(nbr[row], 0)
			}
			sp.mark(nbr[x], 1)
			row = x
		}
		n := 0
		for _, j := range nbr[p] {
			n += int(sp.inX[j])
		}
		v *= ev[n]
		return v, v != 0
	})
	if row >= 0 {
		sp.mark(nbr[row], 0)
	}
}
