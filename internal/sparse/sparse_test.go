package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCOOCompileBasic(t *testing.T) {
	m := NewCOO(3, 4)
	entries := []Entry{{0, 1, 2}, {2, 3, 5}, {0, 0, 1}, {1, 2, -3}}
	for _, e := range entries {
		if err := m.Append(e.Row, e.Col, e.Val); err != nil {
			t.Fatalf("Append(%v): %v", e, err)
		}
	}
	c := m.Compile()
	if r, col := c.Dims(); r != 3 || col != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, col)
	}
	if c.NNZ() != 4 {
		t.Fatalf("NNZ = %d want 4", c.NNZ())
	}
	for _, e := range entries {
		if got := c.At(e.Row, e.Col); got != e.Val {
			t.Errorf("At(%d,%d) = %v want %v", e.Row, e.Col, got, e.Val)
		}
	}
	if got := c.At(2, 0); got != 0 {
		t.Errorf("At(2,0) = %v want 0", got)
	}
}

func TestCOOAppendOutOfRange(t *testing.T) {
	m := NewCOO(2, 2)
	for _, rc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		if err := m.Append(rc[0], rc[1], 1); err == nil {
			t.Errorf("Append(%d,%d) accepted out-of-range entry", rc[0], rc[1])
		}
	}
}

func TestCOODuplicatesSum(t *testing.T) {
	m := NewCOO(2, 2)
	for i := 0; i < 3; i++ {
		if err := m.Append(1, 1, 2.5); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Compile()
	if got := c.At(1, 1); got != 7.5 {
		t.Errorf("duplicate sum = %v want 7.5", got)
	}
	if c.NNZ() != 1 {
		t.Errorf("NNZ after merge = %d want 1", c.NNZ())
	}
}

func TestCSRRowsSorted(t *testing.T) {
	m := NewCOO(1, 5)
	for _, col := range []int{4, 0, 3, 1} {
		if err := m.Append(0, col, float64(col)); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Compile()
	cols, vals := c.Row(0)
	for i := 1; i < len(cols); i++ {
		if cols[i-1] >= cols[i] {
			t.Fatalf("row not sorted: %v", cols)
		}
	}
	for i, col := range cols {
		if vals[i] != float64(col) {
			t.Errorf("value misaligned at col %d: %v", col, vals[i])
		}
	}
}

func TestCSRTranspose(t *testing.T) {
	m := NewCOO(3, 2)
	data := []Entry{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}, {2, 0, 4}}
	for _, e := range data {
		if err := m.Append(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	tr := m.Compile().Transpose()
	if r, c := tr.Dims(); r != 2 || c != 3 {
		t.Fatalf("transpose dims = %d,%d want 2,3", r, c)
	}
	for _, e := range data {
		if got := tr.At(e.Col, e.Row); got != e.Val {
			t.Errorf("transpose At(%d,%d) = %v want %v", e.Col, e.Row, got, e.Val)
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	check := func(seed uint64) bool {
		// Build a pseudo-random small matrix from the seed.
		rows, cols := int(seed%5)+1, int((seed/5)%5)+1
		m := NewCOO(rows, cols)
		s := seed
		for i := 0; i < 12; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			r := int((s >> 33) % uint64(rows))
			c := int((s >> 13) % uint64(cols))
			if err := m.Append(r, c, float64(i)); err != nil {
				return false
			}
		}
		a := m.Compile()
		b := a.Transpose().Transpose()
		if a.NNZ() != b.NNZ() {
			return false
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if a.At(r, c) != b.At(r, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestCSRMulVec(t *testing.T) {
	m := NewCOO(2, 3)
	// [1 2 0; 0 0 3]
	for _, e := range []Entry{{0, 0, 1}, {0, 1, 2}, {1, 2, 3}} {
		if err := m.Append(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Compile()
	y, err := c.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 5 || y[1] != 9 {
		t.Errorf("MulVec = %v want [5 9]", y)
	}
	if _, err := c.MulVec([]float64{1}); err == nil {
		t.Error("MulVec accepted wrong-length vector")
	}
}

func TestCSRRowSumsAndScale(t *testing.T) {
	m := NewCOO(2, 2)
	for _, e := range []Entry{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}} {
		if err := m.Append(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Compile()
	sums := c.RowSums()
	if sums[0] != 3 || sums[1] != 3 {
		t.Errorf("RowSums = %v want [3 3]", sums)
	}
	s := c.Scale(2)
	if s.At(0, 1) != 4 || c.At(0, 1) != 2 {
		t.Errorf("Scale mutated original or failed: %v %v", s.At(0, 1), c.At(0, 1))
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	check := func(a, b uint32) bool {
		i, j := int(a%1000000), int(b%1000000)
		k := PairKey(i, j)
		x, y := UnpackPair(k)
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		return x == lo && y == hi && k == PairKey(j, i)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPairTableBasics(t *testing.T) {
	pt := NewPairTable(0)
	pt.Set(3, 1, 0.5)
	if v, ok := pt.Get(1, 3); !ok || v != 0.5 {
		t.Errorf("Get(1,3) = %v,%v want 0.5,true", v, ok)
	}
	pt.Add(1, 3, 0.25)
	if v, _ := pt.Get(3, 1); v != 0.75 {
		t.Errorf("after Add, Get = %v want 0.75", v)
	}
	// Diagonal is a no-op.
	pt.Set(2, 2, 9)
	if v, ok := pt.Get(2, 2); ok || v != 0 {
		t.Errorf("diagonal stored: %v %v", v, ok)
	}
	pt.Delete(1, 3)
	if _, ok := pt.Get(1, 3); ok {
		t.Error("Delete did not remove pair")
	}
}

func TestPairTablePrune(t *testing.T) {
	pt := NewPairTable(0)
	pt.Set(0, 1, 0.5)
	pt.Set(0, 2, 1e-9)
	pt.Set(1, 2, -1e-9)
	if removed := pt.Prune(1e-6); removed != 2 {
		t.Errorf("Prune removed %d want 2", removed)
	}
	if pt.Len() != 1 {
		t.Errorf("Len after prune = %d want 1", pt.Len())
	}
}

func TestPairTableMaxAbsDiff(t *testing.T) {
	a, b := NewPairTable(0), NewPairTable(0)
	a.Set(0, 1, 0.5)
	b.Set(0, 1, 0.4)
	b.Set(0, 2, 0.3) // only in b
	if d := a.MaxAbsDiff(b); math.Abs(d-0.3) > 1e-15 {
		t.Errorf("MaxAbsDiff = %v want 0.3", d)
	}
	if d := b.MaxAbsDiff(a); math.Abs(d-0.3) > 1e-15 {
		t.Errorf("MaxAbsDiff not symmetric: %v", d)
	}
	if d := a.MaxAbsDiff(a); d != 0 {
		t.Errorf("self diff = %v want 0", d)
	}
}

func TestPairTableTopKFor(t *testing.T) {
	pt := NewPairTable(0)
	pt.Set(0, 1, 0.9)
	pt.Set(0, 2, 0.5)
	pt.Set(0, 3, 0.9) // tie with node 1; smaller id wins
	pt.Set(2, 3, 0.7) // unrelated to node 0
	top := pt.TopKFor(0, 2)
	if len(top) != 2 || top[0].Node != 1 || top[1].Node != 3 {
		t.Errorf("TopKFor(0,2) = %+v want nodes [1 3]", top)
	}
	all := pt.TopKFor(0, -1)
	if len(all) != 3 {
		t.Errorf("TopKFor(0,-1) returned %d want 3", len(all))
	}
	if len(pt.TopKFor(9, 5)) != 0 {
		t.Error("TopKFor of absent node should be empty")
	}
}

func TestPairTableRangeStops(t *testing.T) {
	pt := NewPairTable(0)
	for i := 0; i < 10; i++ {
		pt.Set(i, i+1, 1)
	}
	n := 0
	pt.Range(func(i, j int, v float64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("Range visited %d pairs after early stop, want 3", n)
	}
}
