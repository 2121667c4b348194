package sparse

import (
	"math"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Count() != 0 {
		t.Fatalf("fresh bitset Count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Has(i) {
			t.Fatalf("fresh bitset has bit %d", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	b.Set(64) // idempotent
	if b.Count() != 4 {
		t.Fatalf("Count = %d want 4", b.Count())
	}
	b.Clear()
	if b.Count() != 0 || b.Has(63) {
		t.Fatal("Clear left bits behind")
	}
}

// TestMaxAbsDiffChangedMarks differentially checks the fused change
// tracking against a brute-force recomputation over the pair union: a
// node is marked iff some pair involving it differs by more than tol.
func TestMaxAbsDiffChangedMarks(t *testing.T) {
	rng := lcg(11)
	const rows = 16
	for trial := 0; trial < 100; trial++ {
		a := NewPairFrontier(rows)
		b := NewPairFrontier(rows)
		for k := 0; k < 60; k++ {
			i, j := rng.next(rows), rng.next(rows)
			if i == j {
				continue
			}
			switch rng.next(3) {
			case 0:
				a.Add(i, j, rng.float())
			case 1:
				b.Add(i, j, rng.float())
			default:
				v := rng.float()
				a.Add(i, j, v)
				b.Add(i, j, v) // equal cell: must not mark at any tol
			}
		}
		a.Compact()
		b.Compact()
		diff := map[[2]int]float64{}
		a.Range(func(i, j int, v float64) bool {
			diff[[2]int{i, j}] += v
			return true
		})
		b.Range(func(i, j int, v float64) bool {
			diff[[2]int{i, j}] -= v
			return true
		})
		for _, tol := range []float64{0, 0.5, 5} {
			wantMax := 0.0
			wantMark := make([]bool, rows)
			for p, d := range diff {
				ad := math.Abs(d)
				if ad > wantMax {
					wantMax = ad
				}
				if ad > tol {
					wantMark[p[0]] = true
					wantMark[p[1]] = true
				}
			}
			changed := NewBitset(rows)
			got := a.MaxAbsDiffChanged(b, tol, changed)
			if math.Abs(got-wantMax) > 1e-12 {
				t.Fatalf("trial %d tol %g: max %v want %v", trial, tol, got, wantMax)
			}
			for r := 0; r < rows; r++ {
				if changed.Has(r) != wantMark[r] {
					t.Fatalf("trial %d tol %g: node %d marked=%v want %v", trial, tol, r, changed.Has(r), wantMark[r])
				}
			}
			// And the nil-bitset form must agree.
			if d := a.MaxAbsDiffChanged(b, tol, nil); d != got {
				t.Fatalf("trial %d: nil-bitset diff %v vs %v", trial, d, got)
			}
		}
	}
}

// setRow is SetSortedRow for columns in any order: copy, then sort. It is
// the reference SetSortedRow, which skips the sort, is held to.
func setRow(f *PairFrontier, r int, cols []int32, vals []float64) {
	rc := append(f.cols[r][:0], cols...)
	rv := append(f.vals[r][:0], vals...)
	sortPairs(rc, rv)
	f.cols[r], f.vals[r] = rc, rv
	f.sorted[r] = len(rc)
}

func TestSetSortedRowMatchesSetRow(t *testing.T) {
	rng := lcg(23)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.next(30)
		cols := make([]int32, 0, n)
		vals := make([]float64, 0, n)
		c := 1
		for len(cols) < n {
			c += 1 + rng.next(5)
			cols = append(cols, int32(c))
			vals = append(vals, rng.float())
		}
		a := NewPairFrontier(40 + c)
		b := NewPairFrontier(40 + c)
		setRow(a, 0, cols, vals)
		b.SetSortedRow(0, cols, vals)
		a.Compact()
		b.Compact()
		if d := a.MaxAbsDiffChanged(b, 0, nil); d != 0 {
			t.Fatalf("trial %d: SetSortedRow differs from SetRow by %v", trial, d)
		}
	}
}

func TestCopyRowFrom(t *testing.T) {
	src := NewPairFrontier(6)
	src.Add(1, 3, 0.5)
	src.Add(1, 5, 0.25)
	src.Add(2, 4, 1.5)
	src.Compact()
	dst := NewPairFrontier(6)
	dst.Add(1, 2, 9) // overwritten by the copy
	dst.Compact()
	dst.CopyRowFrom(src, 1)
	dst.CopyRowFrom(src, 2)
	dst.CopyRowFrom(src, 3) // empty row copies as empty
	if v, ok := dst.Get(1, 3); !ok || v != 0.5 {
		t.Fatalf("Get(1,3) = %v,%v", v, ok)
	}
	if v, ok := dst.Get(1, 5); !ok || v != 0.25 {
		t.Fatalf("Get(1,5) = %v,%v", v, ok)
	}
	if v, ok := dst.Get(2, 4); !ok || v != 1.5 {
		t.Fatalf("Get(2,4) = %v,%v", v, ok)
	}
	if _, ok := dst.Get(1, 2); ok {
		t.Fatal("stale cell survived CopyRowFrom")
	}
	if dst.Len() != 3 {
		t.Fatalf("Len = %d want 3", dst.Len())
	}
	// The copy must not alias src's storage.
	dst.Map(func(i, j int, v float64) (float64, bool) { return v * 2, true })
	if v, _ := src.Get(1, 3); v != 0.5 {
		t.Fatalf("mutating the copy changed src: %v", v)
	}
}

func TestSymAdjRow(t *testing.T) {
	f := NewPairFrontier(5)
	f.Add(0, 2, 1)
	f.Add(2, 4, 3)
	f.Compact()
	s := f.ExpandSymmetric(nil)
	cols, vals := s.Row(2)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 4 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("Row(2) = %v %v", cols, vals)
	}
	if cols, _ := s.Row(1); len(cols) != 0 {
		t.Fatalf("Row(1) = %v, want empty", cols)
	}
}
