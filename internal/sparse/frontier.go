// Package sparse holds the sparse pair-score structures the SimRank engines
// and the snapshot writer share: PairFrontier, the store of one side's
// node-pair scores as sorted, duplicate-free rows that only whole-row
// setters write; SymAdj, its symmetric expansion into contiguous partner
// rows; the ranked-list selection the read path cuts rows with; and PairTable, the map formulation, kept as the
// reference the core and serve tests compare the frontier paths against.
// Everything is stdlib-only and allocation conscious: rows are contiguous
// slices that keep their capacity across iterations.
package sparse

import "slices"

// PairFrontier is the engines' score representation: the pairs of one
// graph side bucketed by the smaller node index into per-row slices, each
// row sorted by column and duplicate-free. Only the row setters write rows
// (SetSortedRow, SetRowsRemapped), each handed a whole row
// already in that order, as the row-major passes emit them. So scores go
// from the kernel to the snapshot bytes without hashing or re-sorting, and
// every read (O(log d) Get, ordered Range, merge-walk MaxAbsDiff)
// sees sorted rows.
//
// A frontier is reusable: Reset keeps every row's capacity, so an engine
// that ping-pongs two frontiers per side allocates only while row
// capacities are still growing toward the fixpoint's occupancy.
//
// Like PairTable, the diagonal is implicit and each unordered pair is
// stored once under its smaller index. Column indices are packed to int32
// — the same 32-bit-per-side bound PairKey imposes.
//
// A frontier is not safe for concurrent mutation, except that the row
// setters touch only their target rows: the parallel engine's workers
// write disjoint row ranges of one shared frontier.
type PairFrontier struct {
	cols [][]int32
	vals [][]float64
}

// NewPairFrontier returns an empty frontier for a side with rows nodes.
func NewPairFrontier(rows int) *PairFrontier {
	return &PairFrontier{
		cols: make([][]int32, rows),
		vals: make([][]float64, rows),
	}
}

// NumRows returns the number of row buckets (the side's node count).
func (f *PairFrontier) NumRows() int { return len(f.cols) }

// Len returns the number of stored pairs. O(rows).
func (f *PairFrontier) Len() int {
	n := 0
	for _, row := range f.cols {
		n += len(row)
	}
	return n
}

// Resize re-dimensions the frontier to rows row buckets and empties it,
// keeping as much allocated capacity as possible: shrinking retains the
// out-of-range rows' backing slices for a later re-grow, and growing
// within capacity picks them back up. The shard engine pool uses this to
// run one reusable frontier arena across shards of different sizes.
func (f *PairFrontier) Resize(rows int) {
	if rows <= cap(f.cols) && rows <= cap(f.vals) {
		f.cols = f.cols[:rows]
		f.vals = f.vals[:rows]
	} else {
		nc := make([][]int32, rows)
		copy(nc, f.cols)
		nv := make([][]float64, rows)
		copy(nv, f.vals)
		f.cols, f.vals = nc, nv
	}
	f.Reset()
}

// Reset empties the frontier for reuse, keeping every row's capacity.
func (f *PairFrontier) Reset() {
	for r := range f.cols {
		f.cols[r] = f.cols[r][:0]
		f.vals[r] = f.vals[r][:0]
	}
}

// Get returns the stored value for the unordered pair (i, j), binary
// searching the smaller index's row.
func (f *PairFrontier) Get(i, j int) (float64, bool) {
	if i == j {
		return 0, false
	}
	if i > j {
		i, j = j, i
	}
	if i >= len(f.cols) {
		return 0, false
	}
	if k, hit := slices.BinarySearch(f.cols[i], int32(j)); hit {
		return f.vals[i][k], true
	}
	return 0, false
}

// Row returns row i's columns and values. The slices alias the frontier's
// storage; callers must not mutate them.
func (f *PairFrontier) Row(i int) ([]int32, []float64) { return f.cols[i], f.vals[i] }

// Range calls fn for every stored pair with i < j, in row-major sorted
// order. If fn returns false, Range stops.
func (f *PairFrontier) Range(fn func(i, j int, v float64) bool) {
	for r := range f.cols {
		vals := f.vals[r]
		for k, c := range f.cols[r] {
			if !fn(r, int(c), vals[k]) {
				return
			}
		}
	}
}

// SetRowsRemapped copies every row of src into f
// with ids applied to both coordinates (nil means identity): src's row i
// lands in row ids[i] and its column c becomes ids[c]. ids must keep every
// row's columns ascending and above the row — strictly ascending ids do,
// and so does any map that ascends over each set of nodes no stored pair
// leaves (the engine's component-by-component numbering) — so remapped
// rows stay sorted.
// Rows become capacity-clipped windows of two flat arrays: one O(nnz)
// copy into exact-size rows, with none of the growth slack src's rows
// carry, and nothing shared with src — how an engine's final scores leave
// its reusable arena. Like SetSortedRow it touches only the target rows,
// so calls with disjoint id lists may run concurrently — how the shard
// pool stitches without a serial merge.
func (f *PairFrontier) SetRowsRemapped(src *PairFrontier, ids []int) {
	nnz := src.Len()
	cols, vals := make([]int32, nnz), make([]float64, nnz)
	lo := 0
	for i, row := range src.cols {
		hi := lo + len(row)
		r := i
		if ids == nil {
			copy(cols[lo:hi], row)
		} else {
			r = ids[i]
			for k, c := range row {
				cols[lo+k] = int32(ids[c])
			}
		}
		copy(vals[lo:hi], src.vals[i])
		f.cols[r], f.vals[r] = cols[lo:hi:hi], vals[lo:hi:hi]
		lo = hi
	}
}

// Map rewrites every stored pair's value with fn, dropping pairs for which
// fn reports false. Rows keep their sorted order.
func (f *PairFrontier) Map(fn func(i, j int, v float64) (float64, bool)) {
	for r := range f.cols {
		cols, vals := f.cols[r], f.vals[r]
		w := 0
		for k := range cols {
			if v, ok := fn(r, int(cols[k]), vals[k]); ok {
				cols[w], vals[w] = cols[k], v
				w++
			}
		}
		f.cols[r], f.vals[r] = cols[:w], vals[:w]
	}
}

// Prune removes every pair whose absolute value is below eps and returns
// how many were removed, mirroring PairTable.Prune.
func (f *PairFrontier) Prune(eps float64) int {
	removed := 0
	for r := range f.cols {
		cols, vals := f.cols[r], f.vals[r]
		w := 0
		for k := range cols {
			if vals[k] < eps && vals[k] > -eps {
				removed++
				continue
			}
			cols[w], vals[w] = cols[k], vals[k]
			w++
		}
		f.cols[r], f.vals[r] = cols[:w], vals[:w]
	}
	return removed
}

// MaxAbsDiff returns the largest |a-b| over the union of both frontiers'
// pairs, treating missing entries as 0 — the convergence measure for
// iterative SimRank. Rows are compared with a linear merge-walk over their
// sorted columns.
func (f *PairFrontier) MaxAbsDiff(o *PairFrontier) float64 {
	max := 0.0
	n := len(f.cols)
	if len(o.cols) > n {
		n = len(o.cols)
	}
	for r := 0; r < n; r++ {
		var ac []int32
		var av []float64
		if r < len(f.cols) {
			ac, av = f.cols[r], f.vals[r]
		}
		var bc []int32
		var bv []float64
		if r < len(o.cols) {
			bc, bv = o.cols[r], o.vals[r]
		}
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			var d float64
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				d = av[i]
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				d = bv[j]
				j++
			default:
				d = av[i] - bv[j]
				i++
				j++
			}
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// SetSortedRow replaces row r's cells with the given columns and values,
// which must be strictly ascending with every column > r. The slices are
// copied, not retained, so callers can reuse them. Distinct rows may be
// set concurrently. The row-major passes use this to emit each computed
// row straight into the frontier: the harvest loops walk the row
// accumulator's mark bits, which ascend, so no row needs a sort.
func (f *PairFrontier) SetSortedRow(r int, cols []int32, vals []float64) {
	f.cols[r] = append(f.cols[r][:0], cols...)
	f.vals[r] = append(f.vals[r][:0], vals...)
}

// SymAdj is the fully-expanded symmetric adjacency of a pair frontier:
// CSR-style partner lists where each stored pair {i, j} appears in both
// row i and row j (the diagonal stays implicit). The SimRank row-major
// passes read it to gather all partners of a node in one contiguous scan.
type SymAdj struct {
	RowPtr []int
	Col    []int32
	Val    []float64

	next []int // fill cursor, kept for reuse
}

// RowNNZ returns the number of partners of node r.
func (s *SymAdj) RowNNZ(r int) int { return s.RowPtr[r+1] - s.RowPtr[r] }

// Row returns node r's partner columns and values (ascending columns).
// The slices alias the adjacency's storage; callers must not mutate them.
func (s *SymAdj) Row(r int) ([]int32, []float64) {
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	return s.Col[lo:hi], s.Val[lo:hi]
}

// ExpandSymmetric writes f's symmetric adjacency into dst (allocating one
// if nil), reusing dst's buffers when they are large enough, and returns
// it. Rows come out with ascending columns.
func (f *PairFrontier) ExpandSymmetric(dst *SymAdj) *SymAdj {
	if dst == nil {
		dst = &SymAdj{}
	}
	n := len(f.cols)
	if cap(dst.RowPtr) < n+1 {
		dst.RowPtr = make([]int, n+1)
		dst.next = make([]int, n)
	}
	ptr := dst.RowPtr[:n+1]
	next := dst.next[:n]
	for i := range ptr {
		ptr[i] = 0
	}
	for r, row := range f.cols {
		ptr[r+1] += len(row)
		for _, c := range row {
			ptr[int(c)+1]++
		}
	}
	for i := 0; i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	nnz := ptr[n]
	if cap(dst.Col) < nnz {
		dst.Col = make([]int32, nnz)
		dst.Val = make([]float64, nnz)
	}
	col, val := dst.Col[:nnz], dst.Val[:nnz]
	copy(next, ptr[:n])
	// Scanning rows in ascending order emits, for every node m, first its
	// partners below m (as their rows are scanned) and then its own row's
	// partners above m — each batch ascending, so rows are sorted for free.
	for r, row := range f.cols {
		vals := f.vals[r]
		for k, c := range row {
			p := next[r]
			col[p], val[p] = c, vals[k]
			next[r]++
			q := next[int(c)]
			col[q], val[q] = int32(r), vals[k]
			next[int(c)]++
		}
	}
	dst.RowPtr, dst.Col, dst.Val, dst.next = ptr, col, val, next
	return dst
}

// SplitByWeight partitions [0, len(weights)) into parts contiguous ranges
// of roughly equal total weight, returned as parts+1 bounds. The engine's
// row-parallel passes use it to balance work, not row counts, across
// workers.
func SplitByWeight(weights []int, parts int) []int {
	n := len(weights)
	total := 0
	for _, w := range weights {
		total += w
	}
	bounds := make([]int, parts+1)
	bounds[parts] = n
	r, acc := 0, 0
	for k := 1; k < parts; k++ {
		goal := total * k / parts
		for r < n && acc < goal {
			acc += weights[r]
			r++
		}
		bounds[k] = r
	}
	return bounds
}
