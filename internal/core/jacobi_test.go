package core

import (
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// runJacobi is the engine loop before the chain (engine.go, runEngine):
// both sides computed from the previous iteration's scores, 2·Iterations
// passes to reach depth Iterations on each side. It is the paper's
// iteration order, the same one RunDense follows, kept as the reference
// the chain is held to bit for bit (TestChainMatchesJacobi): the chain's
// query side at depth k is runJacobi(k)'s and its ad side is
// runJacobi(k+1)'s. It calls the production pass kernels, so the digests
// of TestKernelBitsGolden, recorded on this loop, still pin their
// summation order.
func runJacobi(g *clickgraph.Graph, cfg Config, workers int, ar *engineArena) (*Result, error) {
	return runJacobiWith(g, cfg, workers, ar, pullSide)
}

// runJacobiWith is runJacobi with every pass computed by pass: the push
// reference (pushSide) runs the same loop as the production kernel.
func runJacobiWith(g *clickgraph.Graph, cfg Config, workers int, ar *engineArena, pass sidePass) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ar == nil {
		ar = &engineArena{}
	}
	in := newPassInputs(g, cfg)
	nq, na := g.NumQueries(), g.NumAds()

	prevQ, curQ := arenaFrontier(&ar.prevQ, nq), arenaFrontier(&ar.curQ, nq)
	prevA, curA := arenaFrontier(&ar.prevA, na), arenaFrontier(&ar.curA, na)
	spas := ar.ensureSPAs(workers, max(nq, na))
	if ar.symQ == nil {
		ar.symQ, ar.symA = &sparse.SymAdj{}, &sparse.SymAdj{}
	}
	symQ, symA := ar.symQ, ar.symA

	deltaSkip := !cfg.noDeltaSkip
	var chgQ, chgA *sparse.Bitset // nodes whose scores moved last iteration
	if deltaSkip {
		chgQ, chgA = arenaBitset(&ar.chgQ, nq), arenaBitset(&ar.chgA, na)
	}
	// skipQ/skipA gate row skipping in the passes; nil (the first
	// iteration, or always when delta skip is disabled) recomputes
	// everything.
	var skipQ, skipA *sparse.Bitset

	iters := 0
	converged := false
	stats := make([]IterationStat, 0, cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		start := time.Now()
		// A side whose change bitset came back empty needs no re-expansion:
		// with every opposite-side input row unmarked, the passes below copy
		// forward every output row that has neighbors and recompute only
		// empty rows (whose kernels return before touching the adjacency),
		// so the symmetric expansion would never be read — and the stale one
		// from the last changed iteration stays value-identical anyway.
		// Drained workloads used to pay both ExpandSymmetric calls every
		// iteration for rows that were 100% copied forward.
		if skipA == nil || popcount(skipA, na) > 0 {
			symA = prevA.ExpandSymmetric(symA)
		}
		if skipQ == nil || popcount(skipQ, nq) > 0 {
			symQ = prevQ.ExpandSymmetric(symQ)
		}
		sq := pass(in, cfg, false, prevA, symA, curQ, prevQ, skipA, workers, spas)
		sa := pass(in, cfg, true, prevQ, symQ, curA, prevA, skipQ, workers, spas)
		if cfg.PruneEpsilon > 0 {
			curQ.Prune(cfg.PruneEpsilon)
			curA.Prune(cfg.PruneEpsilon)
		}
		iters = it + 1
		var diffQ, diffA float64
		if deltaSkip || cfg.Tolerance > 0 {
			if deltaSkip {
				chgQ.Clear()
				chgA.Clear()
			}
			diffQ = curQ.MaxAbsDiffChanged(prevQ, cfg.DeltaSkipTolerance, chgQ)
			diffA = curA.MaxAbsDiffChanged(prevA, cfg.DeltaSkipTolerance, chgA)
		}
		stats = append(stats, IterationStat{
			Duration:         time.Since(start),
			QueryRowsSkipped: sq, QueryRows: nq,
			AdRowsSkipped: sa, AdRows: na,
		})
		prevQ, curQ = curQ, prevQ
		prevA, curA = curA, prevA
		if cfg.Tolerance > 0 && diffQ < cfg.Tolerance && diffA < cfg.Tolerance {
			converged = true
			break
		}
		if deltaSkip {
			skipQ, skipA = chgQ, chgA
		}
	}

	if cfg.Variant == Evidence {
		spas[0].applyEvidence(prevQ, in.qNbr, in.ev)
		spas[0].applyEvidence(prevA, in.aNbr, in.ev)
	}
	qs, as := sparse.NewPairFrontier(nq), sparse.NewPairFrontier(na)
	in.qIdx.emit(qs, prevQ, nil)
	in.aIdx.emit(as, prevA, nil)
	return &Result{
		Graph:       g,
		Config:      cfg,
		QueryScores: qs,
		AdScores:    as,
		Iterations:  iters,
		Converged:   converged,
		IterStats:   stats,
	}, nil
}

// sideInputs is one side's view of the pass inputs: the arguments a pass
// kernel of that side takes beside the scores.
type sideInputs struct {
	thisNbr, oppNbr [][]int
	w               [][]float64
	ev              []float64 // passInputs.ev
	idx, oppIdx     *memberIndex
	c               float64
}

func (in *passInputs) side(cfg Config, ads bool) sideInputs {
	if ads {
		return sideInputs{in.aNbr, in.qNbr, in.aW, in.ev, in.aIdx, in.qIdx, cfg.C2}
	}
	return sideInputs{in.qNbr, in.aNbr, in.qW, in.ev, in.qIdx, in.aIdx, cfg.C1}
}

// sidePass computes one side's next value (the ad side when ads is set)
// from the opposite side's scores opp and their expansion sym into dst: a
// pass kernel as the test loops (runJacobiWith) call it. Frontiers are in
// the engine's numbering (memberIndex).
type sidePass func(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int

// pullSide is the production kernel, its gathers and candidates planned
// as the engine's chain plans them.
func pullSide(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	s := in.side(cfg, ads)
	return s.pass(cfg, plannedCandidates(s, opp, sym, changed), dst, prev, changed, workers, spas)
}

// plannedCandidates returns side s's plan from the opposite side's scores
// opp, with sym as their expansion, by the density test on opp's side
// alone: a component that gathers takes the block path when opp's rows in
// it fit a block, the row path otherwise. The chain asks both sides' rows
// to fit (admit) and holds willFill's components from the identity; either
// path gives the same bits, so the plan moves only the cost.
func plannedCandidates(s sideInputs, opp *sparse.PairFrontier, sym *sparse.SymAdj, changed *sparse.Bitset) candidates {
	block := make([][]float64, len(s.idx.bounds)-1)
	for c := range block {
		lo, hi := s.oppIdx.span(int32(c))
		pairs := 0
		for j := lo; j < hi; j++ {
			cols, _ := opp.Row(j)
			pairs += len(cols)
		}
		if anyMarked(changed, lo, hi) && blockFits(hi-lo, 2*pairs) {
			block[c] = make([]float64, (hi-lo)*(hi-lo))
			fillBlock(block[c], opp, lo, hi)
		}
	}
	return candidates{idx: s.idx, opp: s.oppIdx, sym: sym, block: block}
}

// pass runs the production kernel of cfg's variant on side s, every row
// into dst.
func (s sideInputs) pass(cfg Config, cand candidates, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	if cfg.Variant == Weighted {
		return weightedPass(s.thisNbr, s.oppNbr, s.w, s.ev, cand, s.c, dst, prev, changed, workers, spas)
	}
	return simplePass(s.thisNbr, s.oppNbr, cand, s.c, dst, prev, changed, workers, spas)
}

// simplePass computes one plain-SimRank pass of one side ("this" side)
// from the opposite side's scores, as cand plans them, every row into dst;
// thisNbr maps this side's nodes to opposite-side neighbors, oppNbr the
// reverse. It returns how many rows the delta skip copied forward.
func simplePass(thisNbr, oppNbr [][]int, cand candidates, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return rowsPass(pullKernel{thisNbr: thisNbr, oppNbr: oppNbr, c: c}, cand, dst, prev, changed, workers, spas)
}

// rowsPass runs k over cand's plan with every row landing in dst, as a
// loop that keeps its scores in rows needs: each block-path component is
// given a block of this side's scores filled from prev (from no pairs
// where prev is nil), the block path updates it in place — a row the
// delta skip copies forward keeps prev's cells — and it is written to
// dst's rows after the pass (toRows).
func rowsPass(k pullKernel, cand candidates, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	d := newDenseScores(len(cand.block), &slabPool[float64]{}, &slabPool[int32]{})
	from := prev
	if from == nil {
		from = sparse.NewPairFrontier(len(k.thisNbr))
	}
	for c, blk := range cand.block {
		if blk != nil {
			lo, hi := cand.idx.span(int32(c))
			d.blk[c] = make([]float64, (hi-lo)*(hi-lo))
			fillBlock(d.blk[c], from, lo, hi)
		}
	}
	skipped, _ := k.pass(cand, &blockSink{dense: &d}, dst, prev, changed, workers, spas)
	for c, blk := range d.blk {
		if blk != nil {
			d.toRows(c, cand.idx, dst, spas[0])
		}
	}
	return skipped
}

// weightedPass is simplePass for weighted SimRank: w holds this side's
// forward factor rows and ev the evidence multiplier by common-neighbor
// count.
func weightedPass(thisNbr, oppNbr [][]int, w [][]float64, ev []float64, cand candidates, c float64, dst, prev *sparse.PairFrontier, changed *sparse.Bitset, workers int, spas []*spa) int {
	return rowsPass(pullKernel{thisNbr: thisNbr, oppNbr: oppNbr, w: w, ev: ev, c: c}, cand, dst, prev, changed, workers, spas)
}

// forcedCandidates returns side s's plan with every component forced down
// one path on the opposite side's scores opp: the block path over a block
// of them when blocks is set, the row path over the expansion sym
// otherwise — whatever the density test would choose.
func forcedCandidates(s sideInputs, opp *sparse.PairFrontier, sym *sparse.SymAdj, blocks bool) candidates {
	block := make([][]float64, len(s.idx.bounds)-1)
	for c := range block {
		if lo, hi := s.oppIdx.span(int32(c)); blocks {
			block[c] = make([]float64, (hi-lo)*(hi-lo))
			fillBlock(block[c], opp, lo, hi)
		}
	}
	return candidates{idx: s.idx, opp: s.oppIdx, sym: sym, block: block}
}

// toLayout returns f, a frontier of the side idx numbers in the graph's
// ids, in the engine's numbering: how the tests hand a Result's scores to
// a pass.
func toLayout(idx *memberIndex, f *sparse.PairFrontier) *sparse.PairFrontier {
	c := sparse.NewPairFrontier(f.NumRows())
	c.SetRowsRemapped(f, idx.pos)
	return c
}

// popcount counts the set bits among b's first n.
func popcount(b *sparse.Bitset, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if b.Has(i) {
			c++
		}
	}
	return c
}
