package sparse

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

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

// TestTopScoredMatchesSortAndCut holds the selection to its definition,
// SortScoredDesc then a cut at k, on random lists whose scores come from a
// handful of values (so most comparisons fall to the node tie-break), some
// nodes repeated, and the presorted and reversed inputs a median-of-three
// pivot is chosen for.
func TestTopScoredMatchesSortAndCut(t *testing.T) {
	rng := lcg(11)
	for trial := 0; trial < 400; trial++ {
		n := rng.next(300)
		if trial < 8 {
			n = trial
		}
		s := make([]Scored, n)
		for i := range s {
			s[i] = Scored{Node: rng.next(n + n/8 + 1), Score: float64(rng.next(5)-1) / 4}
		}
		switch trial % 5 {
		case 3:
			SortScoredDesc(s)
		case 4:
			SortScoredDesc(s)
			slices.Reverse(s)
		}
		want := slices.Clone(s)
		SortScoredDesc(want)
		for _, k := range []int{-1, 0, 1, n - 1, n, n + 5, rng.next(n + 1)} {
			cut := want
			if k >= 0 && k < n {
				cut = want[:k]
			}
			got := TopScored(slices.Clone(s), k)
			if !slices.Equal(got, cut) {
				t.Fatalf("trial %d, n %d, k %d: TopScored = %v, want %v", trial, n, k, got, cut)
			}
		}
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
