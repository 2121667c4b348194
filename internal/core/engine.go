package core

import (
	"math/bits"
	"slices"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// Run computes the configured similarity with flat sparse pair frontiers.
// With PruneEpsilon == 0 it is exact: its query scores agree with the
// dense reference (RunDense, in dense_test.go) at depth Iterations and its
// ad scores with it at depth Iterations+1 (the test suite checks this differentially; runEngine
// says why the ad side ends deeper). With a positive epsilon, scores
// below the threshold are dropped between passes, bounding memory on
// large graphs at the cost of exactness.
//
// Each iteration computes one side's scores from the other's, per
// connected component, by one of two paths. Where the opposite side's
// scores in a component are sparse, the row path works output-row-major:
// for every node x, gather u(j) = Σ_{i∈E(x)} s(i, j) from their symmetric
// expansion into a dense accumulator, then pull every cell of x's row as
// one dot product, t(x, p) = Σ_{j∈E(p)} u(j), over p's own neighbor row,
// for each p > x the gathered u can reach, and emit the row in ascending
// order straight into a sparse.PairFrontier (per-row sorted storage, no
// hashing and no sorting anywhere); the weighted dot product also counts
// |E(x) ∩ E(p)|, the one input of the pair's evidence. Where both sides'
// scores in a component are dense enough to fit square blocks, the
// component is held as a block on each side from pass to pass, and each
// pass computes it as two dense products over the opposite side's block —
// the gather U = W·S and the pull T = U·Wᵀ, a strip of rows at a time —
// into its own block, in the row path's summation order cell for cell, so
// the two paths' scores are the same bits. Work stays proportional to the
// nonzero structure the click graph actually has, and the frontiers and
// blocks are reused across iterations, so steady-state passes barely
// allocate.
func Run(g *clickgraph.Graph, cfg Config) (*Result, error) {
	return runEngine(g, cfg, 1, nil, nil)
}

// scoreSink is where runEngine writes a run's final scores: frontiers over
// the id space qIDs and aIDs (ascending; nil keeps the graph's ids) map
// the run's graph into — for a shard, the stitched frontiers.
type scoreSink struct {
	q, a       *sparse.PairFrontier
	qIDs, aIDs []int
	blockBytes int64 // set by the run: engineArena.blockBytes
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
		model := newTransitionModel(g, cfg.Channel)
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
// and a side's scores in one component fit one square block
// (denseScores). The two sides' indexes of one run share component numbers.
type memberIndex struct {
	bounds []int32 // component c is [bounds[c], bounds[c+1])
	comp   []int32 // node → its component
	// order maps a node to its graph id and pos a graph id to its node;
	// both are nil where the numbering is the graph's own.
	order, pos []int
}

// newMemberIndex numbers one side (the ads when ads is set) of n nodes by
// comps, which list every node once, each component's nodes ascending.
func newMemberIndex(n int, comps []clickgraph.Component, ads bool) *memberIndex {
	m := &memberIndex{bounds: make([]int32, 1, len(comps)+1), comp: make([]int32, n), order: make([]int, 0, n)}
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

// candidates is one pass's plan: for every component of this side, which
// path computes its rows. A component held as blocks takes the block path
// (blockPass) over the opposite side's block (block[c]): its rows are
// computed a strip at a time as two dense products over it, into this
// side's block. Any other takes the row path: each row gathers from the
// opposite side's expansion sym, listing the cells it touches, and
// evaluates the union of E(j) over the j it touched (spa.reach), which
// leaves out the members x cannot reach. A member left out scores exactly zero — each of its
// dot-product terms reads a u(j) the gather never touched — and the block
// path adds each cell's terms in the order the row path does (the zeros it
// adds besides change nothing), so both paths give the same rows bit for
// bit and the choice is one of cost alone.
type candidates struct {
	idx, opp *memberIndex   // this side's layout and the opposite side's
	sym      *sparse.SymAdj // the opposite side's expansion; nil when no row-path component gathers
	block    [][]float64    // per component: the opposite side's m × m score block, or nil
}

// blockFits reports whether a component with m nodes and nnz expanded
// partners (each stored pair counted from both ends) keeps its scores as a
// block: when the block, 8 bytes a cell, is no larger than the expansion's
// rows it replaces, 12 bytes a partner plus an 8-byte row pointer a node.
// So blocks never take more memory than the expansion would, and a dense
// block's extra zeros cost at most what the index loads they replace do.
func blockFits(m, nnz int) bool { return 8*m*m <= 12*nnz+8*m }

// fillBlock sets blk to the m × m block of f's scores over the component
// [lo, hi): row i is node lo+i's scores against the component's nodes,
// s(i, i) = 1 on the diagonal and zero where f stores no pair.
func fillBlock(blk []float64, f *sparse.PairFrontier, lo, hi int) {
	m := hi - lo
	clear(blk)
	for i := 0; i < m; i++ {
		blk[i*m+i] = 1
	}
	for i := lo; i < hi; i++ {
		cols, vals := f.Row(i)
		ri := (i - lo) * m
		for k, p := range cols {
			pl := int(p) - lo
			blk[ri+pl] = vals[k]
			blk[pl*m+i-lo] = vals[k]
		}
	}
}

// slabPool hands out slices carved from chunks it keeps across runs: the
// score blocks, pair factors and operand lists of one run, which live
// exactly as long as each other and are all given back when the next run
// resets the pool.
type slabPool[T any] struct {
	chunks  [][]T
	ci, off int
	taken   int // cells handed out since the last reset
}

func (p *slabPool[T]) reset() { p.ci, p.off, p.taken = 0, 0, 0 }

// take returns n cells, not zeroed.
func (p *slabPool[T]) take(n int) []T {
	p.taken += n
	for ; p.ci < len(p.chunks); p.ci, p.off = p.ci+1, 0 {
		if c := p.chunks[p.ci]; len(c)-p.off >= n {
			p.off += n
			return c[p.off-n : p.off : p.off]
		}
	}
	size := max(n, 1<<12) // no smaller than any chunk before it
	for _, c := range p.chunks {
		size = max(size, len(c))
	}
	p.chunks = append(p.chunks, make([]T, size))
	p.ci, p.off = len(p.chunks)-1, n
	return p.chunks[p.ci][:n:n]
}

// denseScores is one side's scores in the components held as m × m
// blocks across a run. A component is a block on both sides or on
// neither: it enters the block form on both at once (admit), and the
// block path then updates each side's block in place, so the opposite
// side's next pass gathers from it as it stands; the rows are written out
// when the run ends (toRows). The iterates never lose a pair — each score
// is a nonnegative sum over scores that only grow with depth, and pruning
// keeps that order — so a block, once it fits, fits for the rest of the
// run, and no component leaves the block form before the
// run ends.
type denseScores struct {
	blk [][]float64 // per component: its m × m block, or nil while in rows
	// fac holds, Weighted only, each component's pair factors
	// (pullKernel.pairFactors), and ops its operands
	// (pullKernel.operands), both built the first time the block path
	// computes it.
	fac  [][]float64
	ops  []operands
	pool *slabPool[float64]
	at   *slabPool[int32] // the operands' rows
}

func newDenseScores(comps int, pool *slabPool[float64], at *slabPool[int32]) denseScores {
	return denseScores{blk: make([][]float64, comps), fac: make([][]float64, comps), ops: make([]operands, comps), pool: pool, at: at}
}

// admit moves every component still in rows into the block form on both
// sides, q's and a's, from their newest rows, emptying those rows: where
// fill marks it (nil: none), or where both sides' rows fit a block
// (blockFits). The test reads both sides alike, so q and a may come in
// either order.
func admit(q, a *chainSide, fill []bool) {
	for c := range q.dense.blk {
		if q.dense.blk[c] == nil && (fill != nil && fill[c] || q.fits(c) && a.fits(c)) {
			q.hold(c)
			a.hold(c)
		}
	}
}

// fits reports whether s's newest rows in component c fit a block.
func (s *chainSide) fits(c int) bool {
	lo, hi := s.idx.span(int32(c))
	pairs := 0
	for x := lo; x < hi; x++ {
		cols, _ := s.prev.Row(x)
		pairs += len(cols)
	}
	return blockFits(hi-lo, 2*pairs)
}

// hold moves component c of s's newest rows into a block.
func (s *chainSide) hold(c int) {
	lo, hi := s.idx.span(int32(c))
	blk := s.dense.pool.take((hi - lo) * (hi - lo))
	fillBlock(blk, s.prev, lo, hi)
	for x := lo; x < hi; x++ {
		s.prev.SetSortedRow(x, nil, nil)
	}
	s.dense.blk[c] = blk
}

// reachNodes bounds the component sides willFill measures: its bitsets
// take a few m × m_opp bits, and a component with a side above it is
// admitted by blockFits alone.
const reachNodes = 1024

// willFill marks the components whose query side's and ad side's scores
// both fill a block (blockFits) within the first two depths the run
// computes for them, at most maxQ and maxA, so that holding them as
// blocks from the identity takes no more memory than the block form
// later would and every pass gathers by the block path. It counts the
// pairs of the observed reach: two hops — the nodes that share a
// neighbour, the pattern of depth-1 scores — and, at depth 2, the nodes
// two hops from the opposite side's two-hop reach. The hops follow the
// walk's nonzero factors, so the pattern bounds the scores' own, which
// pruning only thins. A side of one node or none counts as full: its
// block holds no pair. buf is scratch.
func (in *passInputs) willFill(maxQ, maxA int, buf *[]uint64) []bool {
	comps := len(in.qIdx.bounds) - 1
	fill := make([]bool, comps)
	for c := int32(0); c < int32(comps); c++ {
		ql, qh := in.qIdx.span(c)
		al, ah := in.aIdx.span(c)
		if qh-ql > reachNodes || ah-al > reachNodes {
			continue
		}
		q := reachSide{lo: ql, hi: qh, nbr: in.qNbr, w: in.qW}
		a := reachSide{lo: al, hi: ah, nbr: in.aNbr, w: in.aW}
		fill[c] = q.fills(a, maxQ, buf) && a.fills(q, maxA, buf)
	}
	return fill
}

// reachSide is one side of a component for willFill: its nodes [lo, hi),
// their neighbour rows and walk factors (nil: every factor nonzero).
type reachSide struct {
	lo, hi int
	nbr    [][]int
	w      [][]float64
}

// hops calls fn with every neighbour j of node x whose factor is nonzero.
func (s reachSide) hops(x int, fn func(j int)) {
	for k, j := range s.nbr[x] {
		if s.w == nil || s.w[x][k] != 0 {
			fn(j)
		}
	}
}

// owners sets, in the bitset of each node j of opp (words a node), the
// nodes of s that hop to j.
func (s reachSide) owners(opp reachSide, words int, bits []uint64) {
	for x := s.lo; x < s.hi; x++ {
		s.hops(x, func(j int) { bits[(j-opp.lo)*words+(x-s.lo)/64] |= 1 << ((x - s.lo) % 64) })
	}
}

// fills reports whether s's scores fill a block by depth d (at most 2).
func (s reachSide) fills(opp reachSide, d int, buf *[]uint64) bool {
	m, mo := s.hi-s.lo, opp.hi-opp.lo
	if m < 2 {
		return true // no pair to store
	}
	if d < 1 {
		return false
	}
	ws, wo := (m+63)/64, (mo+63)/64
	b := grown(buf, 2*mo*ws+m*wo+ws+wo)
	clear(b)
	into, b := b[:mo*ws], b[mo*ws:]  // into[j]: the nodes of s that hop to j
	reach, b := b[:mo*ws], b[mo*ws:] // reach[i]: the nodes of s that hop into i's two-hop reach
	from, b := b[:m*wo], b[m*wo:]    // from[y]: the nodes of opp that hop to y
	acc, p1 := b[:ws], b[ws:ws+wo]
	s.owners(opp, ws, into)
	// pairs counts x's reach through rows of width ws, less x itself.
	pairs := func(row []uint64) int {
		n := 0
		for x := s.lo; x < s.hi; x++ {
			clear(acc)
			s.hops(x, func(j int) { orWords(acc, row[(j-opp.lo)*ws:(j-opp.lo+1)*ws]) })
			n += onesCount(acc) - int(acc[(x-s.lo)/64]>>((x-s.lo)%64)&1)
		}
		return n
	}
	if fits := blockFits(m, pairs(into)); fits || d < 2 {
		return fits
	}
	opp.owners(s, wo, from)
	for i := opp.lo; i < opp.hi; i++ {
		clear(p1)
		p1[(i-opp.lo)/64] |= 1 << ((i - opp.lo) % 64)
		opp.hops(i, func(y int) { orWords(p1, from[(y-s.lo)*wo:(y-s.lo+1)*wo]) })
		ri := reach[(i-opp.lo)*ws : (i-opp.lo+1)*ws]
		for wi, word := range p1 {
			for ; word != 0; word &= word - 1 {
				j := wi*64 + bits.TrailingZeros64(word)
				orWords(ri, into[j*ws:(j+1)*ws])
			}
		}
	}
	return blockFits(m, pairs(reach))
}

func orWords(dst, src []uint64) {
	for k, w := range src {
		dst[k] |= w
	}
}

func onesCount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// toRows writes component c's block into f's rows, each row the block's
// nonzero cells above the diagonal.
func (d *denseScores) toRows(c int, idx *memberIndex, f *sparse.PairFrontier, sp *spa) {
	lo, hi := idx.span(int32(c))
	m, blk := hi-lo, d.blk[c]
	for x := lo; x < hi; x++ {
		xl := x - lo
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		for pl, v := range blk[xl*m+xl+1 : (xl+1)*m] {
			if v != 0 {
				rowC = append(rowC, int32(x+1+pl))
				rowV = append(rowV, v)
			}
		}
		sp.rowC, sp.rowV = rowC, rowV
		f.SetSortedRow(x, rowC, rowV)
	}
}

// engineArena is the reusable allocation state of one engine run:
// ping-pong frontiers, symmetric adjacencies, the score blocks' pools and
// dense accumulators. A fresh runEngine call with
// a nil arena allocates its own; the shard scheduler keeps one arena per pool worker and re-runs it
// across shards, so every shard after a worker's first reuses the
// previous shard's capacity instead of reallocating — and since the
// structures are sized to the shard being run, a worker's footprint is
// proportional to the largest shard it sees, never the whole graph.
type engineArena struct {
	prevQ, curQ, prevA, curA *sparse.PairFrontier
	symQ, symA               *sparse.SymAdj
	poolQ, poolA             slabPool[float64] // each side's score blocks, pair factors and operand factors (denseScores)
	atQ, atA                 slabPool[int32]   // each side's operand rows
	spas                     []*spa
	reach                    []uint64 // willFill's bitsets
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

// blockBytes is the block path's memory over a run of q and a on workers
// engine workers: the score blocks the two sides hold, their pair factors
// and operands — every cell the run took from the arena's pools — and,
// per worker, the strip buffers sized to the largest component the block
// path computed: its U and Uᵀ strips (stripWidth × m_opp cells each) and
// its panel (m × stripWidth), 8 bytes a cell. A worker's degrees, under
// 1 KB, are not counted.
func (ar *engineArena) blockBytes(q, a *chainSide, workers int) int64 {
	n := 8*int64(ar.poolQ.taken+ar.poolA.taken) + 4*int64(ar.atQ.taken+ar.atA.taken)
	m, mo := 0, 0
	for _, s := range [][2]*chainSide{{q, a}, {a, q}} {
		for c, o := range s[0].dense.ops {
			if o.ptr != nil {
				lo, hi := s[0].idx.span(int32(c))
				olo, ohi := s[1].idx.span(int32(c))
				m, mo = max(m, hi-lo), max(mo, ohi-olo)
			}
		}
	}
	return n + int64(workers)*8*stripWidth*int64(2*mo+m)
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
// exactly one of workers goroutines (contiguous row ranges, or strips of
// a block component, balanced by expected work and emitted into disjoint
// rows or cells) in the serial order, so scores do not depend on workers.
// ar supplies reusable allocation state (nil for a standalone run); out
// receives the final scores (nil: new frontiers in g's ids). Every run
// starts from the identity, so its scores are the paper's iterates and
// depend on g and cfg alone.
//
// On the bipartite click graph the query equation reads only ad scores
// and the ad equation only query scores, so the iteration is one chain of
// passes, each computing one side from the other side's newest scores
// (Gauss–Seidel order; PERF.md, "One chain, not two"). Pass p computes
// depth p+1: the chain starts on the query side when Iterations is odd
// and on the ad side when it is even, and always ends on an ad pass, so
// the query side reaches depth Iterations and the ad side Iterations+1 in
// Iterations+1 passes — every score an exact iterate of the paper's
// recursion, where computing both sides from the previous iteration
// (Jacobi order, as the dense reference does) spends 2·Iterations passes on two
// independent chains. A component is held as a block on both sides once
// both sides' scores fit one, or from the identity where its reach says
// they will by the second depth (denseScores), updated in place by every
// pass; the rest stay sparse rows in two ping-pong frontiers: cur is reset,
// filled row by row from the opposite side's newest scores (expanded
// once per pass where a row-path component gathers), and swapped in.
// Every pass computes every row: a score is the paper's iterate at its
// depth, whatever the rows around it did.
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
	ar.poolQ.reset()
	ar.poolA.reset()
	ar.atQ.reset()
	ar.atA.reset()

	q := &chainSide{
		prev: arenaFrontier(&ar.prevQ, nq), cur: arenaFrontier(&ar.curQ, nq),
		kernel: pullKernel{thisNbr: in.qNbr, oppNbr: in.aNbr, w: in.qW, ev: in.ev, c: cfg.C1},
		idx:    in.qIdx, block: make([][]float64, comps), dense: newDenseScores(comps, &ar.poolQ, &ar.atQ),
	}
	a := &chainSide{
		prev: arenaFrontier(&ar.prevA, na), cur: arenaFrontier(&ar.curA, na),
		kernel: pullKernel{thisNbr: in.aNbr, oppNbr: in.qNbr, w: in.aW, ev: in.ev, c: cfg.C2},
		idx:    in.aIdx, block: make([][]float64, comps), dense: newDenseScores(comps, &ar.poolA, &ar.atA),
	}
	spas := ar.ensureSPAs(workers, max(nq, na))
	if ar.symQ == nil {
		ar.symQ, ar.symA = &sparse.SymAdj{}, &sparse.SymAdj{}
	}
	q.sym, a.sym = ar.symQ, ar.symA
	if !cfg.noBlocks {
		// The identity: a component whose reach fills both sides by the
		// second depth is held from here. Under strict evidence the
		// weighted passes store no pair without a common neighbour (the
		// kernel scales each cell by ev, 0 there), so their scores keep the
		// two-hop pattern at every depth. Evidence runs the plain kernel
		// and applies evidence once at the end: its passes reach as far
		// as Simple's.
		maxQ, maxA := min(cfg.Iterations, 2), min(cfg.Iterations+1, 2)
		if cfg.StrictEvidence && cfg.Variant == Weighted {
			maxQ, maxA = min(maxQ, 1), 1
		}
		admit(q, a, in.willFill(maxQ, maxA, &ar.reach))
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
			q.pass(a, cfg, workers, spas)
			st.QueryRows = nq
			depth = p + 1
			continue
		}
		a.pass(q, cfg, workers, spas)
		st.AdRows = na
		st.Duration = time.Since(start)
		stats = append(stats, st)
		st, start = IterationStat{}, time.Now()
		if cfg.Tolerance > 0 && q.computed && q.diff < cfg.Tolerance && a.diff < cfg.Tolerance {
			converged = true
			break
		}
	}

	for _, s := range []*chainSide{q, a} {
		for c := range s.dense.blk {
			if s.dense.blk[c] != nil {
				s.dense.toRows(c, s.idx, s.prev, spas[0])
			}
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
	out.blockBytes = ar.blockBytes(q, a, workers)
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

// chainSide is one side of the engine's chain: its newest scores — blocks
// in the components held as blocks, sparse rows elsewhere — the scratch
// frontier its next pass fills, the expansion the opposite side's pass
// reads, and its kernel's per-run inputs.
type chainSide struct {
	prev, cur *sparse.PairFrontier // prev holds the newest rows
	sym       *sparse.SymAdj       // prev expanded for the opposite pass, when one reads it
	dense     denseScores          // the components held as blocks
	// computed reports that the scores came from a pass of this run, not
	// the start: only then does diff measure a pass's change.
	computed bool
	diff     float64 // Tolerance > 0 only: max |newest − previous| over all pairs

	kernel pullKernel
	idx    *memberIndex // this side's layout
	block  [][]float64  // the pass's plan: candidates.block
}

// pass computes s's next value from opp's newest scores. A component
// takes the block path where it is held as blocks and the row path
// elsewhere; after the pass, the components whose newest rows now fit
// blocks on both sides are admitted.
func (s *chainSide) pass(opp *chainSide, cfg Config, workers int, spas []*spa) {
	expand := false
	for c := range s.block {
		s.block[c] = opp.dense.blk[c]
		expand = expand || s.block[c] == nil
	}
	cand := candidates{idx: s.idx, opp: opp.idx, block: s.block}
	if expand {
		opp.sym = opp.prev.ExpandSymmetric(opp.sym)
		cand.sym = opp.sym
	}
	sink := &blockSink{dense: &s.dense, eps: cfg.PruneEpsilon}
	diff := s.kernel.pass(cand, sink, s.cur, workers, spas)
	if cfg.PruneEpsilon > 0 {
		s.cur.Prune(cfg.PruneEpsilon)
	}
	if cfg.Tolerance > 0 {
		s.diff = max(diff, s.cur.MaxAbsDiff(s.prev))
	}
	s.prev, s.cur = s.cur, s.prev
	s.computed = true
	if !cfg.noBlocks {
		admit(s, opp, nil)
	}
}

// pullKernel is one side's per-run kernel inputs: its neighbor rows and
// the opposite side's, its forward factor rows with the evidence
// multiplier by common-neighbor count (Weighted; w is nil for plain
// SimRank, whose every factor is one), and its decay.
type pullKernel struct {
	thisNbr, oppNbr [][]int
	w               [][]float64
	ev              []float64 // passInputs.ev
	c               float64
}

// pass computes every row of one side from the opposite side's scores as
// cand plans them: the row path's components into dst (rowPass), the
// block path's into sink's blocks (blockPass). It returns the largest
// change of a block cell.
func (k pullKernel) pass(cand candidates, sink *blockSink, dst *sparse.PairFrontier, workers int, spas []*spa) float64 {
	k.rowPass(cand, dst, workers, spas)
	return k.blockPass(cand, sink, workers, spas)
}

// spa is one worker's accumulator state. For the row path: the dense
// gather array u over the opposite side with its touched list and the
// row's neighbor marks, the marks and candidate list of the reach, and the
// row emit buffers. Arrays are sized to the larger side so one spa serves
// both passes. For the block path: a strip's gathered rows, their
// transpose and the strip's panel of output cells, grown to the largest
// component the spa has computed.
type spa struct {
	u  []float64 // gathered opposite-side scores
	ut []int32   // touched cells of u, in first-touch order
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

	strip stripScratch
}

// spaBytes is the footprint of one spa's row-path arrays over n cells: u
// (8 bytes a cell), the touched list ut and the candidate list pt (4
// each, both allocated at full capacity), the neighbor marks inX (1), and
// the reach's one mark bit. The block path's strip buffers are sized by
// components, not sides, and counted apart (engineArena.blockBytes).
func spaBytes(n int) int64 { return 17*int64(n) + 8*int64((n+63)/64) }

// accumulate adds u(j) = Σ_{i∈nbrs} f(i)·s(i, j) from the symmetric score
// rows of nbrs (the diagonal s(i, i) = 1 included), listing the touched
// cells in sp.ut in first-touch order. fx holds the walk factors aligned
// with nbrs; nil is plain SimRank's all-ones, and multiplying by one is
// exact. Here and in every sum of products in the engine a product is
// written float64(a*b): the conversion rounds it, which the Go spec does
// not let a compiler fuse into the add that follows, so every GOARCH
// rounds each term as amd64 does.
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
			u[c] += float64(fi * val[k])
		}
	}
	sp.ut = ut
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

// release zeroes the cells of u the row's gather touched.
func (sp *spa) release() {
	u := sp.u
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

// runRowPass drives kernel over every row-path row of one side (the rows
// of the components cand holds no block for). With workers > 1 the rows
// are split into contiguous ranges weighted by expected gather work (the
// expansion rows of the row's neighbors); each worker owns disjoint rows
// and a private spa, so rows are computed and emitted with no locks and no
// merge phase. A row's value depends on nothing but the pass's inputs, so
// it does not depend on which worker computes it, or in what order.
func runRowPass(thisNbr [][]int, cand candidates, dst *sparse.PairFrontier, workers int, spas []*spa, kernel func(sp *spa, x int)) {
	n := len(thisNbr)
	dst.Reset()
	rowPath := func(x int) bool { return cand.block == nil || cand.block[cand.idx.comp[x]] == nil }
	if workers = min(workers, n); workers <= 1 {
		for x := 0; x < n; x++ {
			if rowPath(x) {
				kernel(spas[0], x)
			}
		}
		return
	}
	weights := make([]int, n) // 0 for a row left to the block path
	for x, nbrs := range thisNbr {
		if rowPath(x) {
			w := 1
			for _, i := range nbrs {
				w += 1 + cand.sym.RowNNZ(i)
			}
			weights[x] = w
		}
	}
	bounds := sparse.SplitByWeight(weights, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo, hi := bounds[wk], bounds[wk+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(sp *spa, lo, hi int) {
			defer wg.Done()
			for x := lo; x < hi; x++ {
				if weights[x] > 0 {
					kernel(sp, x)
				}
			}
		}(spas[wk], lo, hi)
	}
	wg.Wait()
}

// rowPass computes the row path's rows of one side into dst, from the
// opposite side's expansion cand.sym.
//
// Row x of plain SimRank computes T(x, p) = Σ_{i∈E(x)} Σ_{j∈E(p)} s(i, j)
// in two phases: u(j) = Σ_{i∈E(x)} s(i, j) (spa.accumulate) with x's
// candidates (spa.reach), then for each candidate p > x the pull t = Σ_{j∈E(p)}
// u(j), one dot product over p's own neighbor row in ascending j — T is
// symmetric, so row x's computation alone yields the full sum for every
// stored pair (x, p), p > x. The candidates ascend, so the row comes out
// sorted, and each cell is final when computed: no row accumulator, no
// marks to harvest.
//
// Weighted SimRank scales every term by the walk factors of the two edges
// it traverses — W(x, i) in the gather, and W(p, j), p's own forward
// factor row aligned with its neighbor row, in the pull. Evidence is
// counted in the pull: E(x) is marked in sp.inX before the row, so the
// loop that sums W(p, j)·u(j) over j ∈ E(p) also sums the marks,
// |E(x) ∩ E(p)|, and the cell is scaled by ev at that count — no per-pair
// table to build or walk. Under StrictEvidence ev[0] is 0, so a pair with
// no common neighbor scores exactly zero and the emit's s != 0 test drops
// it, as it drops a cell only zero walk factors reached.
func (k pullKernel) rowPass(cand candidates, dst *sparse.PairFrontier, workers int, spas []*spa) {
	thisNbr, oppNbr, c := k.thisNbr, k.oppNbr, k.c
	if k.w == nil {
		runRowPass(thisNbr, cand, dst, workers, spas, func(sp *spa, x int) {
			nbrs := thisNbr[x]
			if len(nbrs) == 0 {
				return
			}
			sp.accumulate(nbrs, nil, cand.sym)
			ps := sp.reach(x, oppNbr)
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
		return
	}
	w, ev := k.w, k.ev
	runRowPass(thisNbr, cand, dst, workers, spas, func(sp *spa, x int) {
		nbrs := thisNbr[x]
		if len(nbrs) == 0 {
			return
		}
		sp.accumulate(nbrs, w[x], cand.sym)
		ps := sp.reach(x, oppNbr)
		sp.mark(nbrs, 1)
		u, inX := sp.u, sp.inX
		rowC, rowV := sp.rowC[:0], sp.rowV[:0]
		for _, p := range ps {
			js, wp := thisNbr[p], w[p]
			wp = wp[:len(js)]
			t, n := 0.0, 0
			for kj, j := range js {
				t += float64(wp[kj] * u[j])
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

// stripWidth is how many rows of a component one block-path task
// computes: the strip's gathered rows, their transpose and its panel of
// output cells stay cache-resident while the pull sweeps them.
const stripWidth = 64

// blockSink is where the block path writes: this side's block of the
// component (dense) in place, pruned below eps and diffed against the
// cells it overwrites. dense also keeps each component's operands and,
// Weighted, its pair factors.
type blockSink struct {
	dense *denseScores
	eps   float64
}

// stripScratch is one worker's block-path scratch, each buffer grown as
// needed: the strip's degrees |E(x)|, its rows of U (m_opp cells each),
// their transpose Uᵀ (m_opp rows of stripWidth cells), the panel of output
// cells (a row of stripWidth cells per node of the component), and the
// counts pairFactors scatters.
type stripScratch struct {
	dx    []float64
	u, ut []float64
	cell  []float64
	cnt   []int32
}

// grown returns (*buf)[:n], reallocated when its capacity is short.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// stripTask is one unit of the block path's work: rows [x0, x1) of
// component c.
type stripTask struct {
	c      int32
	x0, x1 int
}

// blockPass computes the rows of every component cand holds the opposite
// side's block for, a strip of stripWidth rows at a time (pullKernel.strip),
// into the component's own block in sink. It returns the largest change of
// a block cell. With workers > 1 the strips are split into contiguous
// ranges weighted by expected work; a strip writes only its own rows'
// cells (both halves of each of its pairs), so the strips need no locks.
func (k pullKernel) blockPass(cand candidates, sink *blockSink, workers int, spas []*spa) (diff float64) {
	var tasks []stripTask
	var weights []int
	for c, blk := range cand.block {
		if blk == nil {
			continue
		}
		lo, hi := cand.idx.span(int32(c))
		olo, ohi := cand.opp.span(int32(c))
		if k.w != nil && sink.dense.fac[c] == nil {
			sink.dense.fac[c] = k.pairFactors(lo, hi, sink.dense.pool, &spas[0].strip)
		}
		if sink.dense.ops[c].ptr == nil {
			sink.dense.ops[c] = k.operands(lo, hi, olo, sink.dense.pool, sink.dense.at)
		}
		for x0 := lo; x0 < hi; x0 += stripWidth {
			x1 := min(x0+stripWidth, hi)
			tasks = append(tasks, stripTask{int32(c), x0, x1})
			weights = append(weights, (x1-x0)*(ohi-olo+hi-x0))
		}
	}
	if workers = min(workers, len(tasks)); workers <= 1 {
		for _, t := range tasks {
			diff = max(diff, k.strip(spas[0], cand, t, sink))
		}
		return diff
	}
	bounds := sparse.SplitByWeight(weights, workers)
	diffs := make([]float64, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(sp *spa, wk int) {
			defer wg.Done()
			for _, t := range tasks[bounds[wk]:bounds[wk+1]] {
				diffs[wk] = max(diffs[wk], k.strip(sp, cand, t, sink))
			}
		}(spas[wk], wk)
	}
	wg.Wait()
	return slices.Max(diffs)
}

// strip computes task t's rows as two dense products over the opposite
// side's block S, in the row path's summation order cell for cell, by the
// leaf kernels (kernel.go) over the component's operands:
//
//   - the gather U = W·S: row x of U sums the block rows of x's neighbors
//     i, scaled by W(x, i), in ascending i from +0 — u = ((0 + f0·r0) +
//     f1·r1) + … ;
//   - the transpose of the strip's rows of U into Uᵀ, so that column j of
//     U — the strip's u(x, j) — is one contiguous row;
//   - the pull T = U·Wᵀ: for each p above the strip's first row, T(x, p)
//     for the strip's x < p sums the rows j ∈ E(p) of Uᵀ, scaled by
//     W(p, j), in ascending j from +0 — the row path's dot product, every
//     cell at once.
//
// A computed cell is then scaled as the row path scales it — ev[n]·c from
// the component's pair factors, or c/(|E(x)|·|E(p)|) — and written into
// this side's block, pruned and diffed in place, both halves. It returns
// the largest change of a cell.
func (k pullKernel) strip(sp *spa, cand candidates, t stripTask, sink *blockSink) (diff float64) {
	const B = stripWidth
	lo, hi := cand.idx.span(t.c)
	olo, ohi := cand.opp.span(t.c)
	m, mo, rows := hi-lo, ohi-olo, t.x1-t.x0
	S := cand.block[t.c]
	own, fac, ops := sink.dense.blk[t.c], sink.dense.fac[t.c], sink.dense.ops[t.c]
	kn := kernels()
	st := &sp.strip

	// U = W·S, row x of U in row x−x0 of the strip.
	u := grown(&st.u, B*mo)
	for r := 0; r < rows; r++ {
		f, at := ops.of(t.x0 + r - lo)
		kn.sumRows(u[r*mo:(r+1)*mo], S, mo, f, at)
	}
	// Uᵀ over whole tiles of four rows: the rows past the strip's it moves
	// are never read.
	ut := grown(&st.ut, mo*B)
	kn.transpose(ut, u, mo, 0, (rows+3)&^3)

	// T = U·Wᵀ: panel row p holds T(x, p) for the strip's x.
	cell := grown(&st.cell, m*B)
	for p := t.x0 + 1; p < hi; p++ {
		f, at := ops.of(p - lo)
		kn.sumRows(cell[(p-lo)*B:][:min(t.x1, p)-t.x0], ut, B, f, at)
	}

	dx := grown(&st.dx, B)
	for r := 0; r < rows; r++ {
		dx[r] = float64(len(k.thisNbr[t.x0+r]))
		sp.cells += hi - 1 - (t.x0 + r)
	}
	xl := t.x0 - lo
	for p := t.x0 + 1; p < hi; p++ {
		pl, n := p-lo, min(t.x1, p)-t.x0 // n: the strip's rows below p
		var fp []float64                 // their pair factors, Weighted only
		if fac != nil {
			fp = fac[pl*(pl-1)/2+xl:][:n]
		}
		d := kn.sink(cell[pl*B:][:n], own[pl*m+xl:][:n], own[xl*m+pl:], m, fp, dx[:n], k.c, float64(len(k.thisNbr[p])), sink.eps)
		diff = max(diff, d)
	}
	return diff
}

// operands is one component's gather and pull operands, node by node in
// the component's numbering: node x's nonzero walk factors
// f[ptr[x]:ptr[x+1]] (ones for plain SimRank) and the rows of the
// opposite side's component they scale, at. A zero factor is left out:
// its term is +0 in a sum of nonnegative terms from +0, so it changes no
// bit of either product.
type operands struct {
	ptr, at []int32
	f       []float64
}

// of returns node xl's factors and rows.
func (o operands) of(xl int) ([]float64, []int32) {
	lo, hi := o.ptr[xl], o.ptr[xl+1]
	return o.f[lo:hi], o.at[lo:hi]
}

// operands builds the operands of the component [lo, hi) whose opposite
// side starts at olo, carved from the side's pools.
func (k pullKernel) operands(lo, hi, olo int, pool *slabPool[float64], atPool *slabPool[int32]) operands {
	nonzero := func(x, ki int) bool { return k.w == nil || k.w[x][ki] != 0 }
	n := 0
	for x := lo; x < hi; x++ {
		for ki := range k.thisNbr[x] {
			if nonzero(x, ki) {
				n++
			}
		}
	}
	o := operands{ptr: atPool.take(hi - lo + 1), at: atPool.take(n), f: pool.take(n)}
	n = 0
	o.ptr[0] = 0
	for x := lo; x < hi; x++ {
		for ki, i := range k.thisNbr[x] {
			if !nonzero(x, ki) {
				continue
			}
			o.f[n], o.at[n] = 1, int32(i-olo)
			if k.w != nil {
				o.f[n] = k.w[x][ki]
			}
			n++
		}
		o.ptr[x-lo+1] = int32(n)
	}
	return o
}

// pairFactors returns the evidence-scaled decay of every pair of the
// component [lo, hi), ev[n]·c with n = |E(x) ∩ E(p)|, packed by the
// higher node: pair (x, p), x < p, at p(p−1)/2 + x in the component's
// numbering, the order the block sink reads them in. The counts are
// scattered once per run over each x's two-hop neighborhood (n never
// changes), so the block path does not count them in its pull; the
// product is the one the row path takes at every pass, ev[n]·c before t.
func (k pullKernel) pairFactors(lo, hi int, pool *slabPool[float64], st *stripScratch) []float64 {
	m := hi - lo
	fac := pool.take(m * (m - 1) / 2)
	cnt := grown(&st.cnt, m)
	clear(cnt)
	for p := lo; p < hi; p++ {
		for _, j := range k.thisNbr[p] {
			for _, x := range k.oppNbr[j] {
				if x >= p {
					break
				}
				cnt[x-lo]++
			}
		}
		pl := p - lo
		row := fac[pl*(pl-1)/2:][:pl]
		for xl := range row {
			row[xl] = k.ev[cnt[xl]] * k.c
			cnt[xl] = 0
		}
	}
	return fac
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
