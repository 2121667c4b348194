package core

import "math"

// This file implements the closed forms the paper proves in Appendices A
// and B for complete bipartite graphs. They anchor the property tests of
// Theorems 6.1, 6.2 and 7.1: the iterative engines must agree with these
// formulas to floating-point accuracy.

// ClosedFormK22 returns the plain-SimRank similarity of the two nodes of
// the 2-node side of K2,2 after k iterations, per Theorem A.1(i):
//
//	sim^(k)(A, B) = (C2/2) · Σ_{i=1..k} 2^{-(i-1)} · C1^⌊i/2⌋ · C2^⌊(i-1)/2⌋
//
// where C2 is the decay factor of the side holding A and B, and C1 the
// other side's. Note: the paper's statement writes the last exponent as
// ⌈(i-1)/2⌉, but its own term-by-term expansion (and Table 3's numbers,
// e.g. 0.56 at k=2) require ⌊(i-1)/2⌋ — the ceiling is a typo.
func ClosedFormK22(c1, c2 float64, k int) float64 {
	sum := 0.0
	for i := 1; i <= k; i++ {
		term := math.Pow(0.5, float64(i-1)) *
			math.Pow(c1, math.Floor(float64(i)/2)) *
			math.Pow(c2, math.Floor(float64(i-1)/2))
		sum += term
	}
	return c2 / 2 * sum
}

// ClosedFormK12 returns the plain-SimRank similarity of the two nodes of
// the 2-node side of K1,2 after k >= 1 iterations. With a single common
// neighbor a of degree... the pair's nodes each have one neighbor, so
// sim^(k) = C2 · s(a, a) = C2 for every k > 0 (Theorem A.2).
func ClosedFormK12(c2 float64, k int) float64 {
	if k < 1 {
		return 0
	}
	return c2
}

// ClosedFormKm2 returns the plain-SimRank similarity of the two nodes of
// the 2-node side of K_{m,2} after k iterations, computed by the exact
// two-state recurrence (the Appendix A expansion generalized to m). The
// pair of interest {A, B} sits on the 2-node side; its m opposite
// neighbors are all of V1, and by symmetry every distinct V1 pair shares
// one similarity value u, so:
//
//	sim^{(t+1)}(A, B) = (C2/m²) · (m + m(m-1)·u^{(t)})
//	u^{(t+1)}         = (C1/4) · (2 + 2·sim^{(t)}(A, B))
//
// since each V1 node has exactly the 2 neighbors {A, B}.
func ClosedFormKm2(c1, c2 float64, m, k int) float64 {
	if m < 1 || k < 1 {
		return 0
	}
	simAB, u := 0.0, 0.0
	for t := 0; t < k; t++ {
		newAB := c2 / float64(m*m) * (float64(m) + float64(m*(m-1))*u)
		newU := c1 / 4 * (2 + 2*simAB)
		simAB, u = newAB, newU
	}
	return simAB
}

// ClosedFormEvidenceKm2 returns the evidence-based SimRank similarity of
// the two nodes of the 2-node side of K_{m,2} after k iterations
// (Theorem B.1 generalized): the plain score times the evidence of m
// common neighbors.
func ClosedFormEvidenceKm2(form EvidenceForm, c1, c2 float64, m, k int) float64 {
	return evidenceScore(form, m) * ClosedFormKm2(c1, c2, m, k)
}

// ClosedFormK22Limit returns lim_{k→∞} sim^(k)(A, B) on K2,2 by summing
// the Theorem A.1 series to convergence.
func ClosedFormK22Limit(c1, c2 float64) float64 {
	sum, i := 0.0, 1
	for {
		term := math.Pow(0.5, float64(i-1)) *
			math.Pow(c1, math.Floor(float64(i)/2)) *
			math.Pow(c2, math.Floor(float64(i-1)/2))
		sum += term
		if term < 1e-16 || i > 10000 {
			break
		}
		i++
	}
	return c2 / 2 * sum
}
