package sparse

import (
	"cmp"
	"slices"
	"sync"
	"testing"
)

// Tests for the frontier as a result representation — the detaching,
// concurrent remapped copy RunSharded stitches with, each held
// to the PairTable formulation it replaced — and for PairTable's mutators.

// frontierOf builds a rows-node frontier holding m's pairs: each row's
// columns sorted, then set with SetSortedRow, the only way rows are written.
func frontierOf(m *PairTable, rows int) *PairFrontier {
	type cell struct {
		c int32
		v float64
	}
	byRow := make([][]cell, rows)
	m.Range(func(i, j int, v float64) bool {
		byRow[i] = append(byRow[i], cell{int32(j), v})
		return true
	})
	f := NewPairFrontier(rows)
	for r, row := range byRow {
		slices.SortFunc(row, func(a, b cell) int { return cmp.Compare(a.c, b.c) })
		cols, vals := make([]int32, len(row)), make([]float64, len(row))
		for k, e := range row {
			cols[k], vals[k] = e.c, e.v
		}
		f.SetSortedRow(r, cols, vals)
	}
	return f
}

// randomTable accumulates adds random contributions over rows nodes.
func randomTable(rng *lcg, rows, adds int) *PairTable {
	m := NewPairTable(0)
	for a := 0; a < adds; a++ {
		m.Add(rng.next(rows), rng.next(rows), rng.float())
	}
	return m
}

// randomFrontier is frontierOf a randomTable.
func randomFrontier(rng *lcg, rows, adds int) *PairFrontier {
	return frontierOf(randomTable(rng, rows, adds), rows)
}

// toPairTable returns f's pairs as a PairTable.
func toPairTable(f *PairFrontier) *PairTable {
	t := NewPairTable(f.Len())
	f.Range(func(i, j int, v float64) bool {
		t.Set(i, j, v)
		return true
	})
	return t
}

// requireSamePairs fails unless f holds exactly t's pairs and ranges them
// in ascending (i, j) order.
func requireSamePairs(t *testing.T, label string, f *PairFrontier, want *PairTable) {
	t.Helper()
	n, last := 0, uint64(0)
	f.Range(func(i, j int, v float64) bool {
		if wv, ok := want.Get(i, j); !ok || wv != v {
			t.Fatalf("%s: pair (%d,%d) = %v, want %v,%v", label, i, j, v, wv, ok)
		}
		if key := PairKey(i, j); i >= j || (n > 0 && key <= last) {
			t.Fatalf("%s: pair (%d,%d) out of order", label, i, j)
		} else {
			last = key
		}
		n++
		return true
	})
	if n != want.Len() || f.Len() != n {
		t.Fatalf("%s: %d pairs ranged, Len %d, want %d", label, n, f.Len(), want.Len())
	}
}

// TestSetRowsRemappedIsDetached: the copy an engine's scores leave its
// arena by shares nothing with the source.
func TestSetRowsRemappedIsDetached(t *testing.T) {
	rng := lcg(11)
	src := randomFrontier(&rng, 30, 400)
	c := NewPairFrontier(30)
	c.SetRowsRemapped(src, nil)
	want := toPairTable(src)
	requireSamePairs(t, "copy", c, want)

	// The source is an arena the next run reuses; the copy must not see it.
	src.Reset()
	next := randomFrontier(&rng, 30, 400)
	for r := range 30 {
		src.CopyRowFrom(next, r) // refills src's own row buffers
	}
	requireSamePairs(t, "copy after source reuse", c, want)

	// Rows are windows of one array: growing one must not run into the next.
	var cols []int32
	var vals []float64
	for j := 1; j < 30; j++ {
		cols, vals = append(cols, int32(j)), append(vals, float64(j))
		want.Set(0, j, float64(j))
	}
	c.SetSortedRow(0, cols, vals)
	requireSamePairs(t, "copy after growing row 0", c, want)
}

// TestSetRowsRemappedConcurrentDeposit splits a global id space into
// interleaved shards, deposits each shard's local frontier from its own
// goroutine, and holds the result to a serial map stitch.
func TestSetRowsRemappedConcurrentDeposit(t *testing.T) {
	rng := lcg(23)
	const shards, perShard = 7, 40
	global := NewPairFrontier(shards*perShard + 5) // trailing rows stay empty
	want := NewPairTable(0)
	ids := make([][]int, shards)
	locals := make([]*PairFrontier, shards)
	for s := range ids {
		for l := 0; l < perShard; l++ {
			ids[s] = append(ids[s], l*shards+s) // ascending, disjoint across shards
		}
		locals[s] = randomFrontier(&rng, perShard, 600*(s%3)) // every third shard is empty
		locals[s].Range(func(i, j int, v float64) bool {
			want.Set(ids[s][i], ids[s][j], v)
			return true
		})
	}
	var wg sync.WaitGroup
	for s := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			global.SetRowsRemapped(locals[s], ids[s])
		}()
	}
	wg.Wait()
	requireSamePairs(t, "stitched", global, want)
}
