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
func runJacobi(g *clickgraph.Graph, cfg Config, workers int, ar *engineArena, warm warmSeed) (*Result, error) {
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
	if warm != nil {
		warm(prevQ, prevA)
		if cfg.Variant == Evidence {
			// Stored Evidence scores are iteration-space scores × evidence;
			// map them back so the seed lives where the iteration does.
			unapplyEvidence(prevQ, in.evQ)
			unapplyEvidence(prevA, in.evA)
		}
		if cfg.PruneEpsilon > 0 {
			prevQ.Prune(cfg.PruneEpsilon)
			prevA.Prune(cfg.PruneEpsilon)
		}
	}
	if ar.symQ == nil {
		ar.symQ, ar.symA = &sparse.SymAdj{}, &sparse.SymAdj{}
	}
	symQ, symA := ar.symQ, ar.symA
	side := nq
	if na > side {
		side = na
	}
	spas := ar.ensureSPAs(workers, side)

	deltaSkip := !cfg.DisableDeltaSkip
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
		if skipA == nil || skipA.Count() > 0 {
			symA = prevA.ExpandSymmetric(symA)
		}
		if skipQ == nil || skipQ.Count() > 0 {
			symQ = prevQ.ExpandSymmetric(symQ)
		}
		var sq, sa int
		switch cfg.Variant {
		case Weighted:
			sq = weightedPass(symA, in.qNbr, in.aNbr, in.qW, in.revWQ, in.evQ, cfg.C1, curQ, prevQ, skipA, workers, spas)
			sa = weightedPass(symQ, in.aNbr, in.qNbr, in.aW, in.revWA, in.evA, cfg.C2, curA, prevA, skipQ, workers, spas)
		default:
			sq = simplePass(symA, in.qNbr, in.aNbr, cfg.C1, curQ, prevQ, skipA, workers, spas)
			sa = simplePass(symQ, in.aNbr, in.qNbr, cfg.C2, curA, prevA, skipQ, workers, spas)
		}
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
		applyEvidence(prevQ, in.evQ)
		applyEvidence(prevA, in.evA)
	}
	return &Result{
		Graph:  g,
		Config: cfg,
		// Detached copies: the arena's frontiers are the next run's scratch.
		QueryScores: prevQ.Clone(),
		AdScores:    prevA.Clone(),
		Iterations:  iters,
		Converged:   converged,
		IterStats:   stats,
	}, nil
}
