package sparse

import (
	"math"
	"math/bits"
	"testing"
)

// popcount counts b's set bits.
func popcount(b *Bitset) int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if popcount(b) != 0 {
		t.Fatalf("fresh bitset popcount = %d", popcount(b))
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
	if popcount(b) != 4 {
		t.Fatalf("popcount = %d want 4", popcount(b))
	}
	b.Clear()
	if popcount(b) != 0 || b.Has(63) {
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
				mb.Set(i, j, v) // equal cell: must not mark at any tol
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

func TestCopyRowFrom(t *testing.T) {
	src := NewPairFrontier(6)
	src.SetSortedRow(1, []int32{3, 5}, []float64{0.5, 0.25})
	src.SetSortedRow(2, []int32{4}, []float64{1.5})
	dst := NewPairFrontier(6)
	dst.SetSortedRow(1, []int32{2}, []float64{9}) // overwritten by the copy
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
