package core

import (
	"slices"

	"simrankpp/internal/sparse"
)

// The map-based formulation of the two passes: one hash+probe per
// contribution into a sparse.PairTable, fresh tables per pass. It is the
// plainest statement of the iteration formula, so it is what the
// differential tests hold the row-major kernel in engine.go to, and the
// baseline the pass micro-benchmarks measure it against.

// toPairTable returns f's pairs in the map form the reference passes read.
func toPairTable(f *sparse.PairFrontier) *sparse.PairTable {
	t := sparse.NewPairTable(f.Len())
	f.Range(func(i, j int, v float64) bool {
		t.Set(i, j, v)
		return true
	})
	return t
}

// simplePassMap is the map-based simplePass: semantics identical to
// simplePass up to floating-point summation order.
func simplePassMap(opp *sparse.PairTable, thisNbr, oppNbr [][]int, c float64) *sparse.PairTable {
	acc := sparse.NewPairTable(opp.Len())
	for _, nbrs := range oppNbr {
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				acc.Add(nbrs[x], nbrs[y], 1)
			}
		}
	}
	opp.Range(func(i, j int, v float64) bool {
		for _, q := range oppNbr[i] {
			for _, p := range oppNbr[j] {
				acc.Add(q, p, v) // Add ignores q == p
			}
		}
		return true
	})
	out := sparse.NewPairTable(acc.Len())
	acc.Range(func(x, y int, t float64) bool {
		dx, dy := len(thisNbr[x]), len(thisNbr[y])
		if dx > 0 && dy > 0 {
			if s := c * t / float64(dx*dy); s != 0 {
				out.Set(x, y, s)
			}
		}
		return true
	})
	return out
}

// weightedPassMap is the map-based weightedPass. It scatters through the
// factor rows reversed onto the opposite side (reverseFactors), rebuilt
// on every call.
func weightedPassMap(opp *sparse.PairTable, thisNbr, oppNbr [][]int, w [][]float64, ev *evidenceTable, c float64) *sparse.PairTable {
	revW := reverseFactors(thisNbr, oppNbr, w)
	acc := sparse.NewPairTable(opp.Len())
	for o, nbrs := range oppNbr {
		fw := revW[o]
		for x := 0; x < len(nbrs); x++ {
			if fw[x] == 0 {
				continue
			}
			for y := x + 1; y < len(nbrs); y++ {
				acc.Add(nbrs[x], nbrs[y], fw[x]*fw[y])
			}
		}
	}
	opp.Range(func(i, j int, v float64) bool {
		wi, wj := revW[i], revW[j]
		for xi, q := range oppNbr[i] {
			f := wi[xi] * v
			if f == 0 {
				continue
			}
			for yj, p := range oppNbr[j] {
				if q != p {
					acc.Add(q, p, f*wj[yj])
				}
			}
		}
		return true
	})
	out := sparse.NewPairTable(acc.Len())
	acc.Range(func(x, y int, t float64) bool {
		if e := ev.score(x, y); e > 0 {
			if s := e * c * t; s != 0 {
				out.Set(x, y, s)
			}
		}
		return true
	})
	return out
}

// evidenceTable holds one side's evidence multipliers, fully expanded into
// a symmetric CSR (sparse.SymAdj) whose values are the evidenceScore
// of each pair's common-neighbor count; pairs with no common neighbor fall
// through to def (1 pass-through, or 0 under Config.StrictEvidence). It is
// the per-pair form of the evidence the engine counts in its pull, which
// the reference passes read and the counted multipliers are held to.
type evidenceTable struct {
	mult *sparse.SymAdj
	def  float64
}

// score returns the multiplier for the pair (x, y): a binary search of
// x's symmetric multiplier row.
func (e *evidenceTable) score(x, y int) float64 {
	cols, vals := e.mult.Row(x)
	if k, ok := slices.BinarySearch(cols, int32(y)); ok {
		return vals[k]
	}
	return e.def
}

// sortedEvidenceTable is the evidence table built from co-occurrence
// events: every pair (nbrs[x], nbrs[y]), x < y, of an opposite-side node's
// row is one event under its smaller index; the events are bucketed by a
// counting pass, each bucket sorted and run-length counted, and the
// triangle expanded.
func sortedEvidenceTable(n int, oppNbr [][]int, form EvidenceForm, strict bool) *evidenceTable {
	start := make([]int, n+1)
	for _, nbrs := range oppNbr {
		for k := range nbrs {
			start[nbrs[k]+1] += len(nbrs) - k - 1
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	events := make([]int32, start[n])
	next := slices.Clone(start[:n])
	for _, nbrs := range oppNbr {
		for x := 0; x+1 < len(nbrs); x++ {
			for _, y := range nbrs[x+1:] {
				events[next[nbrs[x]]] = int32(y)
				next[nbrs[x]]++
			}
		}
	}
	f := sparse.NewPairFrontier(n)
	for r := 0; r < n; r++ {
		row := events[start[r]:start[r+1]]
		slices.Sort(row)
		var rowC []int32
		var rowV []float64
		for i := 0; i < len(row); {
			j := i + 1
			for j < len(row) && row[j] == row[i] {
				j++
			}
			rowC = append(rowC, row[i])
			rowV = append(rowV, evidenceScore(form, j-i))
			i = j
		}
		f.SetSortedRow(r, rowC, rowV)
	}
	def := 1.0
	if strict {
		def = 0
	}
	return &evidenceTable{mult: f.ExpandSymmetric(nil), def: def}
}
