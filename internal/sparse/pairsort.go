package sparse

// This file holds the non-allocating sort PairFrontier compaction orders a
// (column, value) pair of parallel slices with: a plain three-way
// quicksort specialized to the two-slice layout, where sort.Sort would
// allocate an interface header per row and pay dynamic dispatch per
// comparison.

// insertionCutoff is the subarray size below which sortPairs switches to
// insertion sort. Click-graph rows are mostly tiny, so the cutoff branch
// is the common case.
const insertionCutoff = 16

// sortPairs sorts cols ascending, permuting vals in lockstep. It allocates
// nothing: three-way (Dutch-flag) partitioning handles the duplicate-heavy
// rows frontier compaction produces without quadratic blowup, recursion on
// the smaller partition bounds stack depth at O(log n), and small runs use
// insertion sort.
func sortPairs(cols []int32, vals []float64) {
	for len(cols) > insertionCutoff {
		n := len(cols)
		// Median-of-three pivot from the first, middle and last elements.
		m := n / 2
		if cols[m] < cols[0] {
			cols[0], cols[m] = cols[m], cols[0]
			vals[0], vals[m] = vals[m], vals[0]
		}
		if cols[n-1] < cols[0] {
			cols[0], cols[n-1] = cols[n-1], cols[0]
			vals[0], vals[n-1] = vals[n-1], vals[0]
		}
		if cols[n-1] < cols[m] {
			cols[m], cols[n-1] = cols[n-1], cols[m]
			vals[m], vals[n-1] = vals[n-1], vals[m]
		}
		pivot := cols[m]
		// Three-way partition: [0,lt) < pivot, [lt,k) == pivot, (gt,n) > pivot.
		lt, gt, k := 0, n-1, 0
		for k <= gt {
			switch {
			case cols[k] < pivot:
				cols[k], cols[lt] = cols[lt], cols[k]
				vals[k], vals[lt] = vals[lt], vals[k]
				lt++
				k++
			case cols[k] > pivot:
				cols[k], cols[gt] = cols[gt], cols[k]
				vals[k], vals[gt] = vals[gt], vals[k]
				gt--
			default:
				k++
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if lt < n-(gt+1) {
			sortPairs(cols[:lt], vals[:lt])
			cols, vals = cols[gt+1:], vals[gt+1:]
		} else {
			sortPairs(cols[gt+1:], vals[gt+1:])
			cols, vals = cols[:lt], vals[:lt]
		}
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// compactPairs sorts cols ascending (moving vals in lockstep) and sums the
// values of duplicate columns in place, returning the compacted length.
func compactPairs(cols []int32, vals []float64) int {
	if len(cols) == 0 {
		return 0
	}
	sortPairs(cols, vals)
	w := 0
	for r := 1; r < len(cols); r++ {
		if cols[r] == cols[w] {
			vals[w] += vals[r]
			continue
		}
		w++
		cols[w] = cols[r]
		vals[w] = vals[r]
	}
	return w + 1
}
