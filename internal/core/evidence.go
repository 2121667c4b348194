package core

import (
	"math"

	"simrankpp/internal/clickgraph"
)

// evidenceScore returns the evidence of similarity for a pair of nodes
// with n common neighbors, under the given form. Evidence is an increasing
// function of n approaching 1, and 0 when the nodes share no neighbor.
func evidenceScore(form EvidenceForm, n int) float64 {
	if n <= 0 {
		return 0
	}
	switch form {
	case EvidenceExponential:
		return 1 - math.Exp(-float64(n))
	default:
		// Geometric: Σ_{i=1..n} 2^{-i} = 1 - 2^{-n}. For n >= 63 the
		// shift would overflow; the value is 1 to double precision long
		// before that.
		if n >= 53 {
			return 1
		}
		return 1 - 1/float64(uint64(1)<<uint(n))
	}
}

// evidenceByCount returns the factor the engines multiply a pair score by
// for every common-neighbor count n 0 through the largest degree in rows:
// a pair shares at most as many neighbors as either node has, so the table
// holds the multiplier of every pair of the graph, indexed by its count.
// A pair with common neighbors gets evidenceScore; one without gets 1
// (pass-through) unless strict is set, in which case it gets the literal
// Equation 7.3 value of 0. See Config.StrictEvidence for why pass-through
// is the default.
func evidenceByCount(form EvidenceForm, strict bool, rows ...[][]int) []float64 {
	top := 0
	for _, nbr := range rows {
		for _, r := range nbr {
			top = max(top, len(r))
		}
	}
	ev := make([]float64, top+1)
	for n := range ev {
		ev[n] = evidenceScore(form, n)
	}
	if !strict {
		ev[0] = 1
	}
	return ev
}

// CommonAdCounts computes the naive similarity of §3 (Table 1): the number
// of common ads for every query pair, as a symmetric matrix indexed by
// query id. It is the strawman the paper improves upon; the engines count
// a pair's common neighbors in their own passes.
func CommonAdCounts(g *clickgraph.Graph) [][]int {
	nq := g.NumQueries()
	counts := make([][]int, nq)
	for i := range counts {
		counts[i] = make([]int, nq)
	}
	// Scatter through ads: every ad contributes 1 to each pair of its
	// query neighbors. O(Σ_a deg(a)^2), far cheaper than pairwise
	// intersection for sparse graphs.
	for a := 0; a < g.NumAds(); a++ {
		qs, _ := g.QueriesOf(a)
		for x := 0; x < len(qs); x++ {
			for y := x + 1; y < len(qs); y++ {
				counts[qs[x]][qs[y]]++
				counts[qs[y]][qs[x]]++
			}
		}
	}
	return counts
}
