package sparse

import (
	"cmp"
	"slices"
)

// PairKey packs an unordered node pair into a single uint64 map key with the
// smaller index in the high word. Both indices must fit in 32 bits, which
// bounds graphs at ~4.3 billion nodes per side — far beyond what the
// SimRank engines can iterate anyway.
func PairKey(i, j int) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// UnpackPair inverts PairKey, returning i <= j.
func UnpackPair(k uint64) (i, j int) {
	return int(k >> 32), int(uint32(k))
}

// PairTable stores symmetric pair scores sparsely: score(i,j) == score(j,i)
// is stored once under PairKey(i,j). Diagonal entries (i,i) are implicit and
// fixed by the caller (SimRank defines s(x,x)=1) — Get never consults the
// table for them; callers handle the diagonal explicitly.
//
// The zero value is not usable; construct with NewPairTable.
type PairTable struct {
	m map[uint64]float64
}

// NewPairTable returns an empty table with capacity hint n.
func NewPairTable(n int) *PairTable {
	return &PairTable{m: make(map[uint64]float64, n)}
}

// Len returns the number of stored off-diagonal pairs.
func (t *PairTable) Len() int { return len(t.m) }

// Get returns the stored score for the unordered pair (i, j) and whether it
// was present. Get(i, i) always reports (0, false): the diagonal is the
// caller's invariant, not table state.
func (t *PairTable) Get(i, j int) (float64, bool) {
	if i == j {
		return 0, false
	}
	v, ok := t.m[PairKey(i, j)]
	return v, ok
}

// Set stores score v for the unordered pair (i, j). Setting a diagonal pair
// is a no-op: the diagonal is implicit.
func (t *PairTable) Set(i, j int, v float64) {
	if i == j {
		return
	}
	t.m[PairKey(i, j)] = v
}

// Add accumulates v into the score of the unordered pair (i, j).
func (t *PairTable) Add(i, j int, v float64) {
	if i == j {
		return
	}
	t.m[PairKey(i, j)] += v
}

// Delete removes the pair (i, j) if present.
func (t *PairTable) Delete(i, j int) {
	delete(t.m, PairKey(i, j))
}

// Range calls fn for every stored pair with i < j. Iteration order is
// unspecified. If fn returns false, Range stops.
func (t *PairTable) Range(fn func(i, j int, v float64) bool) {
	for k, v := range t.m {
		i, j := UnpackPair(k)
		if !fn(i, j, v) {
			return
		}
	}
}

// Prune removes every pair whose absolute score is below eps and returns
// how many were removed. The large-graph SimRank engine calls this between
// iterations to keep the frontier bounded.
func (t *PairTable) Prune(eps float64) int {
	removed := 0
	for k, v := range t.m {
		if v < eps && v > -eps {
			delete(t.m, k)
			removed++
		}
	}
	return removed
}

// MaxAbsDiff returns the largest |a-b| over the union of both tables'
// pairs, treating missing entries as 0. It is the convergence measure for
// iterative SimRank.
func (t *PairTable) MaxAbsDiff(o *PairTable) float64 {
	max := 0.0
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for k, v := range t.m {
		d := abs(v - o.m[k])
		if d > max {
			max = d
		}
	}
	for k, v := range o.m {
		if _, ok := t.m[k]; !ok {
			if d := abs(v); d > max {
				max = d
			}
		}
	}
	return max
}

// Scored is one (node, score) result row.
type Scored struct {
	Node  int
	Score float64
}

// TopKFor returns the k highest-scoring partners of node i, ties broken by
// ascending node id for determinism (k < 0 means all). It scans the whole
// table: the reference ranking, not a serving path.
func (t *PairTable) TopKFor(i, k int) []Scored {
	var out []Scored
	for key, v := range t.m {
		a, b := UnpackPair(key)
		switch i {
		case a:
			out = append(out, Scored{Node: b, Score: v})
		case b:
			out = append(out, Scored{Node: a, Score: v})
		}
	}
	SortScoredDesc(out)
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SortScoredDesc sorts rows by descending score, then ascending node id.
func SortScoredDesc(s []Scored) {
	slices.SortFunc(s, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

// TopScored returns s's k first rows in SortScoredDesc's order, sorted, as
// s[:k] (all of s when k < 0 or k ≥ len(s)), reordering s. The order is
// total on rows with distinct nodes, so this is SortScoredDesc followed by
// the cut, bit for bit; only the kept rows are sorted.
func TopScored(s []Scored, k int) []Scored {
	s = SelectScored(s, k)
	SortScoredDesc(s)
	return s
}

// SelectScored reorders s so that s[:k] holds its k first rows in
// SortScoredDesc's order, in no particular order, and returns s[:k] (all
// of s, untouched, when k < 0 or k ≥ len(s)). It is Hoare's FIND with a
// median-of-three pivot: afterwards no row of s[:k] comes after a row of
// s[k:].
func SelectScored(s []Scored, k int) []Scored {
	if k < 0 || k >= len(s) {
		return s
	}
	if k == 0 {
		return s[:0]
	}
	lo, hi, t := 0, len(s)-1, k-1
	for lo < hi {
		m := lo + (hi-lo)/2
		if scoredBefore(s[m], s[lo]) {
			s[lo], s[m] = s[m], s[lo]
		}
		if scoredBefore(s[hi], s[lo]) {
			s[lo], s[hi] = s[hi], s[lo]
		}
		if scoredBefore(s[hi], s[m]) {
			s[m], s[hi] = s[hi], s[m]
		}
		pivot := s[m]
		i, j := lo, hi
		for i <= j {
			for scoredBefore(s[i], pivot) {
				i++
			}
			for scoredBefore(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] ≤ pivot ≤ s[i:hi+1], and what lies between equals it.
		if j < t {
			lo = i
		}
		if t < i {
			hi = j
		}
	}
	return s[:k]
}

// scoredBefore is SortScoredDesc's order as a strict less-than.
func scoredBefore(a, b Scored) bool {
	return a.Score > b.Score || a.Score == b.Score && a.Node < b.Node
}
