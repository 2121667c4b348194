package sparse

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
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
	// idx, when set, maps each node to its partners sorted by
	// descending score — the serving-path index behind TopKFor. Any
	// mutation invalidates it; EnsureIndex rebuilds on demand. The
	// atomic pointer plus build mutex let concurrent read-only servers
	// trigger and use the build safely; mutation remains (as for the
	// rest of PairTable) not concurrency-safe.
	idx   atomic.Pointer[partnerIndex]
	idxMu sync.Mutex
}

type partnerIndex map[int][]Scored

// NewPairTable returns an empty table with capacity hint n.
func NewPairTable(n int) *PairTable {
	return &PairTable{m: make(map[uint64]float64, n)}
}

// dropIndex invalidates the partner index ahead of a mutation. A table
// being filled has none, so its inserts pay a load, not an atomic exchange.
func (t *PairTable) dropIndex() {
	if t.idx.Load() != nil {
		t.idx.Store(nil)
	}
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
	t.dropIndex()
	t.m[PairKey(i, j)] = v
}

// Add accumulates v into the score of the unordered pair (i, j).
func (t *PairTable) Add(i, j int, v float64) {
	if i == j {
		return
	}
	t.dropIndex()
	t.m[PairKey(i, j)] += v
}

// Delete removes the pair (i, j) if present.
func (t *PairTable) Delete(i, j int) {
	t.dropIndex()
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
	t.dropIndex()
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

// EnsureIndex builds the per-node partner index if it is not already
// present. One O(nnz + Σ d log d) pass replaces the O(nnz) full-table scan
// TopKFor otherwise pays per query. The index is dropped on any mutation.
// EnsureIndex may be called from multiple goroutines serving a read-only
// table (the build is mutex-guarded); like the rest of PairTable, it is
// not safe concurrently with mutation.
func (t *PairTable) EnsureIndex() {
	if t.idx.Load() != nil {
		return
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.idx.Load() != nil {
		return
	}
	idx := make(partnerIndex)
	for key, v := range t.m {
		a, b := UnpackPair(key)
		idx[a] = append(idx[a], Scored{Node: b, Score: v})
		idx[b] = append(idx[b], Scored{Node: a, Score: v})
	}
	for n := range idx {
		SortScoredDesc(idx[n])
	}
	t.idx.Store(&idx)
}

// Indexed reports whether the partner index is currently built.
func (t *PairTable) Indexed() bool { return t.idx.Load() != nil }

// TopKFor returns the k highest-scoring partners of node i, ties broken by
// ascending node id for determinism. With the index built (EnsureIndex) it
// is an O(k) copy; otherwise it falls back to the O(len(table)) scan.
func (t *PairTable) TopKFor(i, k int) []Scored {
	if idx := t.idx.Load(); idx != nil {
		s := (*idx)[i]
		if k >= 0 && len(s) > k {
			s = s[:k]
		}
		if len(s) == 0 {
			return nil
		}
		out := make([]Scored, len(s))
		copy(out, s)
		return out
	}
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
