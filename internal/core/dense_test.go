package core

import (
	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// RunDense computes the configured similarity with dense n×n score
// matrices per side: the paper's definition, in Jacobi order, that the
// engines are differential-tested against. It is exact (PruneEpsilon is
// ignored) and intended for small graphs: memory is O(NumQueries² +
// NumAds²).
func RunDense(g *clickgraph.Graph, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nq, na := g.NumQueries(), g.NumAds()
	prevQ, curQ := identity(nq), identity(nq)
	prevA, curA := identity(na), identity(na)

	// Neighbor rows. For Simple/Evidence the walk is uniform over
	// neighbors; for Weighted each neighbor carries its W factor.
	qNbr := make([][]int, nq)
	aNbr := make([][]int, na)
	var qW, aW [][]float64
	for q := 0; q < nq; q++ {
		qNbr[q], _ = g.AdsOf(q)
	}
	for a := 0; a < na; a++ {
		aNbr[a], _ = g.QueriesOf(a)
	}
	var evQ, evA []float64
	if cfg.Variant == Weighted {
		model := newTransitionModel(g, cfg.Channel)
		qW, aW = carveRows(qNbr), carveRows(aNbr)
		for q := 0; q < nq; q++ {
			model.queryRow(q, qW[q])
		}
		for a := 0; a < na; a++ {
			model.adRow(a, aW[a])
		}
	}
	if cfg.Variant == Weighted || cfg.Variant == Evidence {
		evQ = evidenceMatrix(g, cfg.EvidenceForm, clickgraph.QuerySide, cfg.StrictEvidence)
		evA = evidenceMatrix(g, cfg.EvidenceForm, clickgraph.AdSide, cfg.StrictEvidence)
	}

	iters := 0
	converged := false
	for it := 0; it < cfg.Iterations; it++ {
		var deltaQ, deltaA float64
		switch cfg.Variant {
		case Weighted:
			deltaQ = denseWeightedPass(curQ, prevA, qNbr, qW, evQ, cfg.C1, nq, na)
			deltaA = denseWeightedPass(curA, prevQ, aNbr, aW, evA, cfg.C2, na, nq)
		default:
			deltaQ = denseSimplePass(curQ, prevA, qNbr, cfg.C1, nq, na)
			deltaA = denseSimplePass(curA, prevQ, aNbr, cfg.C2, na, nq)
		}
		prevQ, curQ = curQ, prevQ
		prevA, curA = curA, prevA
		iters = it + 1
		if cfg.Tolerance > 0 && deltaQ < cfg.Tolerance && deltaA < cfg.Tolerance {
			converged = true
			break
		}
	}
	// prev* now hold the latest iteration.
	if cfg.Variant == Evidence {
		hadamard(prevQ, evQ)
		hadamard(prevA, evA)
		setDiag(prevQ, nq)
		setDiag(prevA, na)
	}
	return &Result{
		Graph:       g,
		Config:      cfg,
		QueryScores: denseToFrontier(prevQ, nq),
		AdScores:    denseToFrontier(prevA, na),
		Iterations:  iters,
		Converged:   converged,
	}, nil
}

// denseSimplePass writes one plain-SimRank iteration into cur from the
// other side's prev matrix and returns the largest absolute change.
// cur is n×n for this side; prev is m×m for the opposite side; nbr maps
// this side's nodes to their opposite-side neighbors.
func denseSimplePass(cur, prev []float64, nbr [][]int, c float64, n, m int) float64 {
	maxDelta := 0.0
	for x := 0; x < n; x++ {
		cur[x*n+x] = 1
		ex := nbr[x]
		for y := x + 1; y < n; y++ {
			ey := nbr[y]
			var v float64
			if len(ex) > 0 && len(ey) > 0 {
				t := 0.0
				for _, i := range ex {
					row := prev[i*m : (i+1)*m]
					for _, j := range ey {
						t += row[j]
					}
				}
				v = c * t / float64(len(ex)*len(ey))
			}
			if d := abs(v - cur[x*n+y]); d > maxDelta {
				maxDelta = d
			}
			cur[x*n+y] = v
			cur[y*n+x] = v
		}
	}
	return maxDelta
}

// denseWeightedPass writes one weighted-SimRank iteration into cur and
// returns the largest absolute change. w holds the per-neighbor walk
// factors W(x, i); ev the evidence matrix for this side.
func denseWeightedPass(cur, prev []float64, nbr [][]int, w [][]float64, ev []float64, c float64, n, m int) float64 {
	maxDelta := 0.0
	for x := 0; x < n; x++ {
		cur[x*n+x] = 1
		ex, wx := nbr[x], w[x]
		for y := x + 1; y < n; y++ {
			ey, wy := nbr[y], w[y]
			t := 0.0
			for xi, i := range ex {
				row := prev[i*m : (i+1)*m]
				wxi := wx[xi]
				if wxi == 0 {
					continue
				}
				for yj, j := range ey {
					t += wxi * wy[yj] * row[j]
				}
			}
			v := ev[x*n+y] * c * t
			if d := abs(v - cur[x*n+y]); d > maxDelta {
				maxDelta = d
			}
			cur[x*n+y] = v
			cur[y*n+x] = v
		}
	}
	return maxDelta
}

// evidenceMatrix returns the n×n evidence multipliers for one side of g
// (evidenceScore, with pass-through 1 for pairs without common
// neighbors unless strict).
func evidenceMatrix(g *clickgraph.Graph, form EvidenceForm, side clickgraph.Side, strict bool) []float64 {
	var n int
	if side == clickgraph.QuerySide {
		n = g.NumQueries()
	} else {
		n = g.NumAds()
	}
	ev := make([]float64, n*n)
	// Count common neighbors by scattering through the opposite side.
	counts := make([]int, n*n)
	var m int
	if side == clickgraph.QuerySide {
		m = g.NumAds()
	} else {
		m = g.NumQueries()
	}
	for o := 0; o < m; o++ {
		var nbrs []int
		if side == clickgraph.QuerySide {
			nbrs, _ = g.QueriesOf(o)
		} else {
			nbrs, _ = g.AdsOf(o)
		}
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				counts[nbrs[x]*n+nbrs[y]]++
				counts[nbrs[y]*n+nbrs[x]]++
			}
		}
	}
	for i, c := range counts {
		ev[i] = evidenceScore(form, c)
		if c == 0 && !strict {
			ev[i] = 1
		}
	}
	for i := 0; i < n; i++ {
		ev[i*n+i] = 1
	}
	return ev
}

func identity(n int) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		m[i*n+i] = 1
	}
	return m
}

func hadamard(dst, f []float64) {
	for i := range dst {
		dst[i] *= f[i]
	}
}

func setDiag(m []float64, n int) {
	for i := 0; i < n; i++ {
		m[i*n+i] = 1
	}
}

// denseToFrontier keeps the upper triangle's nonzero cells, one row at a
// time: a row's columns ascend as it is scanned.
func denseToFrontier(m []float64, n int) *sparse.PairFrontier {
	f := sparse.NewPairFrontier(n)
	var cols []int32
	var vals []float64
	for i := 0; i < n; i++ {
		cols, vals = cols[:0], vals[:0]
		for j := i + 1; j < n; j++ {
			if v := m[i*n+j]; v != 0 {
				cols, vals = append(cols, int32(j)), append(vals, v)
			}
		}
		f.SetSortedRow(i, cols, vals)
	}
	return f
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
