package sparse

import (
	"math"
	"slices"
	"testing"
)

// lcg is a tiny deterministic generator for randomized differential tests.
type lcg uint64

func (s *lcg) next(n int) int {
	*s = *s*6364136223846793005 + 1442695040888963407
	return int((uint64(*s) >> 33) % uint64(n))
}

func (s *lcg) float() float64 { return float64(s.next(2000)-1000) / 100 }

func TestFrontierEmptyRows(t *testing.T) {
	f := NewPairFrontier(5)
	if f.Len() != 0 {
		t.Errorf("empty frontier Len = %d", f.Len())
	}
	if _, ok := f.Get(0, 3); ok {
		t.Error("Get on empty frontier reported a value")
	}
	if d := f.MaxAbsDiff(NewPairFrontier(5)); d != 0 {
		t.Errorf("MaxAbsDiff of empties = %v", d)
	}
	f.Range(func(i, j int, v float64) bool {
		t.Fatalf("Range visited (%d,%d) on empty frontier", i, j)
		return false
	})
	// A frontier with only some rows populated must skip the empty ones.
	f.SetSortedRow(2, []int32{4}, []float64{1.5})
	if v, ok := f.Get(4, 2); !ok || v != 1.5 {
		t.Errorf("Get(4,2) = %v,%v want 1.5,true", v, ok)
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d want 1", f.Len())
	}
}

func TestFrontierPruneThenAddReuse(t *testing.T) {
	f := NewPairFrontier(6)
	f.SetSortedRow(0, []int32{1, 2}, []float64{1e-9, 0.5})
	f.SetSortedRow(3, []int32{4}, []float64{-1e-9})
	if removed := f.Prune(1e-6); removed != 2 {
		t.Fatalf("Prune removed %d, want 2", removed)
	}
	if f.Len() != 1 {
		t.Fatalf("post-prune Len = %d", f.Len())
	}
	// Reuse after prune: reset and refill, including rows prune emptied.
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("post-reset Len = %d", f.Len())
	}
	f.SetSortedRow(0, []int32{1}, []float64{5})
	f.SetSortedRow(3, []int32{4}, []float64{7})
	if v, ok := f.Get(1, 0); !ok || v != 5 {
		t.Errorf("Get(1,0) after reuse = %v,%v want 5,true", v, ok)
	}
	if v, ok := f.Get(3, 4); !ok || v != 7 {
		t.Errorf("Get(3,4) after reuse = %v,%v want 7,true", v, ok)
	}
}

func TestFrontierMapRewritesAndDrops(t *testing.T) {
	f := NewPairFrontier(3)
	f.SetSortedRow(0, []int32{1, 2}, []float64{2, 4})
	f.SetSortedRow(1, []int32{2}, []float64{6})
	f.Map(func(i, j int, sum float64) (float64, bool) {
		if j == 2 {
			return 0, false
		}
		return sum * 10, true
	})
	if f.Len() != 1 {
		t.Fatalf("Len = %d want 1", f.Len())
	}
	if v, ok := f.Get(0, 1); !ok || v != 20 {
		t.Errorf("Get(0,1) = %v,%v want 20,true", v, ok)
	}
}

// TestFrontierMatchesMapAccumulation is the fuzz-style differential test:
// a random Add stream accumulated into a PairTable, and the frontier built
// from it row by row, must hold identical contents through prune, map,
// and diff.
func TestFrontierMatchesMapAccumulation(t *testing.T) {
	rng := lcg(12345)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.next(30)
		adds := 1 + rng.next(400)
		m := randomTable(&rng, n, adds)
		f := frontierOf(m, n)
		assertFrontierEqualsTable(t, trial, "build", f, m, n)

		// Prune both with the same epsilon; counts must agree exactly
		// because both hold the same values.
		eps := 0.75
		fr, mr := f.Prune(eps), m.Prune(eps)
		if fr != mr {
			t.Fatalf("trial %d: Prune removed %d (frontier) vs %d (map)", trial, fr, mr)
		}
		assertFrontierEqualsTable(t, trial, "prune", f, m, n)

		// Map both with the same rewrite, dropping a band of values.
		rewrite := func(i, j int, v float64) (float64, bool) { return v * 3, v < 2 || v > 4 }
		f.Map(rewrite)
		m.Range(func(i, j int, v float64) bool {
			if nv, ok := rewrite(i, j, v); ok {
				m.Set(i, j, nv)
			} else {
				m.Delete(i, j)
			}
			return true
		})
		assertFrontierEqualsTable(t, trial, "map", f, m, n)

		// MaxAbsDiff against a second random set must agree.
		m2 := randomTable(&rng, n, adds/2)
		f2 := frontierOf(m2, n)
		if df, dm := f.MaxAbsDiff(f2), m.MaxAbsDiff(m2); math.Abs(df-dm) > 1e-12 {
			t.Fatalf("trial %d: MaxAbsDiff %v (frontier) vs %v (map)", trial, df, dm)
		}
		if df, dm := f2.MaxAbsDiff(f), m2.MaxAbsDiff(m); math.Abs(df-dm) > 1e-12 {
			t.Fatalf("trial %d: reverse MaxAbsDiff %v vs %v", trial, df, dm)
		}

		// Round-trip to PairTable preserves everything.
		rt := toPairTable(f)
		if rt.Len() != f.Len() {
			t.Fatalf("trial %d: round trip Len %d vs %d", trial, rt.Len(), f.Len())
		}
		rt.Range(func(i, j int, v float64) bool {
			if fv, ok := f.Get(i, j); !ok || fv != v {
				t.Fatalf("trial %d: round trip (%d,%d) %v vs %v", trial, i, j, v, fv)
			}
			return true
		})
	}
}

func assertFrontierEqualsTable(t *testing.T, trial int, stage string, f *PairFrontier, m *PairTable, n int) {
	t.Helper()
	if f.Len() != m.Len() {
		t.Fatalf("trial %d %s: Len %d (frontier) vs %d (map)", trial, stage, f.Len(), m.Len())
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			fv, fok := f.Get(i, j)
			mv, mok := m.Get(i, j)
			if fok != mok || math.Abs(fv-mv) > 1e-12 {
				t.Fatalf("trial %d %s: pair (%d,%d) frontier %v,%v map %v,%v",
					trial, stage, i, j, fv, fok, mv, mok)
			}
		}
	}
	// Range must visit exactly the stored pairs, i < j, ascending within rows.
	last := -1
	count := 0
	f.Range(func(i, j int, v float64) bool {
		if i >= j {
			t.Fatalf("trial %d %s: Range yielded i=%d >= j=%d", trial, stage, i, j)
		}
		key := i*(n+1) + j
		if key <= last {
			t.Fatalf("trial %d %s: Range out of order at (%d,%d)", trial, stage, i, j)
		}
		last = key
		count++
		return true
	})
	if count != m.Len() {
		t.Fatalf("trial %d %s: Range visited %d pairs, want %d", trial, stage, count, m.Len())
	}
}

// TestPairTableTopKMatchesSymmetricExpansion holds the scan TopKFor — the
// ranking oracle of the core and serve tests — to an independent
// formulation: the frontier's symmetric expansion of the same pairs,
// ranked per row.
func TestPairTableTopKMatchesSymmetricExpansion(t *testing.T) {
	rng := lcg(42)
	m := randomTable(&rng, 25, 300)
	adj := frontierOf(m, 25).ExpandSymmetric(nil)
	for _, k := range []int{-1, 0, 1, 3, 100} {
		for i := 0; i < 25; i++ {
			cols, vals := adj.Row(i)
			want := make([]Scored, len(cols))
			for n, c := range cols {
				want[n] = Scored{Node: int(c), Score: vals[n]}
			}
			SortScoredDesc(want)
			if k >= 0 && len(want) > k {
				want = want[:k]
			}
			if scan := m.TopKFor(i, k); !slices.Equal(scan, want) {
				t.Fatalf("node %d k=%d: scan %+v, expansion %+v", i, k, scan, want)
			}
		}
	}
}

// TestMaxAbsDiffOverPairUnion checks MaxAbsDiff against a brute-force
// maximum over the pair union: a pair stored on one side only counts its
// whole value, and a pair stored equal on both sides counts nothing.
func TestMaxAbsDiffOverPairUnion(t *testing.T) {
	rng := lcg(11)
	const rows = 16
	for trial := 0; trial < 100; trial++ {
		ma, mb := NewPairTable(0), NewPairTable(0)
		for k := 0; k < 60; k++ {
			i, j := rng.next(rows), rng.next(rows)
			if i == j {
				continue
			}
			switch rng.next(3) {
			case 0:
				ma.Set(i, j, rng.float())
			case 1:
				mb.Set(i, j, rng.float())
			default:
				v := rng.float()
				ma.Set(i, j, v)
				mb.Set(i, j, v)
			}
		}
		a, b := frontierOf(ma, rows), frontierOf(mb, rows)
		diff := map[[2]int]float64{}
		a.Range(func(i, j int, v float64) bool {
			diff[[2]int{i, j}] += v
			return true
		})
		b.Range(func(i, j int, v float64) bool {
			diff[[2]int{i, j}] -= v
			return true
		})
		want := 0.0
		for _, d := range diff {
			want = math.Max(want, math.Abs(d))
		}
		if got := a.MaxAbsDiff(b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: max %v want %v", trial, got, want)
		}
	}
}

// TestSetSortedRowMatchesSetRow holds SetSortedRow, which copies an
// ascending row as given, to the map reference: a row's pairs set one by
// one in a PairTable.
func TestSetSortedRowMatchesSetRow(t *testing.T) {
	rng := lcg(23)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.next(30)
		cols := make([]int32, 0, n)
		vals := make([]float64, 0, n)
		want := NewPairTable(n)
		c := 1
		for len(cols) < n {
			c += 1 + rng.next(5)
			cols = append(cols, int32(c))
			vals = append(vals, rng.float())
			want.Set(0, c, vals[len(vals)-1])
		}
		f := NewPairFrontier(40 + c)
		f.SetSortedRow(0, cols, vals)
		requireSamePairs(t, "set row", f, want)
	}
}

func TestSymAdjRow(t *testing.T) {
	f := NewPairFrontier(5)
	f.SetSortedRow(0, []int32{2}, []float64{1})
	f.SetSortedRow(2, []int32{4}, []float64{3})
	s := f.ExpandSymmetric(nil)
	cols, vals := s.Row(2)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 4 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("Row(2) = %v %v", cols, vals)
	}
	if cols, _ := s.Row(1); len(cols) != 0 {
		t.Fatalf("Row(1) = %v, want empty", cols)
	}
}
