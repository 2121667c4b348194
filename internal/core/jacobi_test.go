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

	iters := 0
	converged := false
	stats := make([]IterationStat, 0, cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		start := time.Now()
		symA = prevA.ExpandSymmetric(symA)
		symQ = prevQ.ExpandSymmetric(symQ)
		pass(in, cfg, false, prevA, symA, curQ, workers, spas)
		pass(in, cfg, true, prevQ, symQ, curA, workers, spas)
		if cfg.PruneEpsilon > 0 {
			curQ.Prune(cfg.PruneEpsilon)
			curA.Prune(cfg.PruneEpsilon)
		}
		iters = it + 1
		stats = append(stats, IterationStat{Duration: time.Since(start), QueryRows: nq, AdRows: na})
		stop := cfg.Tolerance > 0 && curQ.MaxAbsDiff(prevQ) < cfg.Tolerance && curA.MaxAbsDiff(prevA) < cfg.Tolerance
		prevQ, curQ = curQ, prevQ
		prevA, curA = curA, prevA
		if stop {
			converged = true
			break
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
type sidePass func(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa)

// pullSide is the production kernel, its gathers and candidates planned
// as the engine's chain plans them.
func pullSide(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa) {
	s := in.side(cfg, ads)
	s.pass(cfg, plannedCandidates(s, opp, sym), dst, workers, spas)
}

// plannedCandidates returns side s's plan from the opposite side's scores
// opp, with sym as their expansion, by the density test on opp's side
// alone: a component takes the block path when opp's rows in it fit a
// block, the row path otherwise. The chain asks both sides' rows
// to fit (admit) and holds willFill's components from the identity; either
// path gives the same bits, so the plan moves only the cost.
func plannedCandidates(s sideInputs, opp *sparse.PairFrontier, sym *sparse.SymAdj) candidates {
	block := make([][]float64, len(s.idx.bounds)-1)
	for c := range block {
		lo, hi := s.oppIdx.span(int32(c))
		pairs := 0
		for j := lo; j < hi; j++ {
			cols, _ := opp.Row(j)
			pairs += len(cols)
		}
		if blockFits(hi-lo, 2*pairs) {
			block[c] = make([]float64, (hi-lo)*(hi-lo))
			fillBlock(block[c], opp, lo, hi)
		}
	}
	return candidates{idx: s.idx, opp: s.oppIdx, sym: sym, block: block}
}

// pass runs the production kernel of cfg's variant on side s, every row
// into dst.
func (s sideInputs) pass(cfg Config, cand candidates, dst *sparse.PairFrontier, workers int, spas []*spa) {
	if cfg.Variant == Weighted {
		weightedPass(s.thisNbr, s.oppNbr, s.w, s.ev, cand, s.c, dst, workers, spas)
		return
	}
	simplePass(s.thisNbr, s.oppNbr, cand, s.c, dst, workers, spas)
}

// simplePass computes one plain-SimRank pass of one side ("this" side)
// from the opposite side's scores, as cand plans them, every row into dst;
// thisNbr maps this side's nodes to opposite-side neighbors, oppNbr the
// reverse.
func simplePass(thisNbr, oppNbr [][]int, cand candidates, c float64, dst *sparse.PairFrontier, workers int, spas []*spa) {
	rowsPass(pullKernel{thisNbr: thisNbr, oppNbr: oppNbr, c: c}, cand, dst, workers, spas)
}

// rowsPass runs k over cand's plan with every row landing in dst, as a
// loop that keeps its scores in rows needs: each block-path component is
// given a block of this side's own, which the block path writes every
// cell above and below the diagonal of, and the block is written to dst's
// rows after the pass (toRows).
func rowsPass(k pullKernel, cand candidates, dst *sparse.PairFrontier, workers int, spas []*spa) {
	d := newDenseScores(len(cand.block), &slabPool[float64]{}, &slabPool[int32]{})
	for c, blk := range cand.block {
		if blk != nil {
			lo, hi := cand.idx.span(int32(c))
			d.blk[c] = make([]float64, (hi-lo)*(hi-lo))
		}
	}
	k.pass(cand, &blockSink{dense: &d}, dst, workers, spas)
	for c, blk := range d.blk {
		if blk != nil {
			d.toRows(c, cand.idx, dst, spas[0])
		}
	}
}

// weightedPass is simplePass for weighted SimRank: w holds this side's
// forward factor rows and ev the evidence multiplier by common-neighbor
// count.
func weightedPass(thisNbr, oppNbr [][]int, w [][]float64, ev []float64, cand candidates, c float64, dst *sparse.PairFrontier, workers int, spas []*spa) {
	rowsPass(pullKernel{thisNbr: thisNbr, oppNbr: oppNbr, w: w, ev: ev, c: c}, cand, dst, workers, spas)
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
