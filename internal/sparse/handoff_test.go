package sparse

import (
	"sync"
	"testing"
)

// Tests for the frontier as a result representation — the detaching copy
// and the concurrent remapped deposit RunSharded stitches with, each held
// to the PairTable formulation it replaced — and for PairTable's mutators.

// randomFrontier fills a rows-node frontier from adds random contributions
// and compacts it.
func randomFrontier(rng *lcg, rows, adds int) *PairFrontier {
	f := NewPairFrontier(rows)
	for a := 0; a < adds; a++ {
		f.Add(rng.next(rows), rng.next(rows), rng.float())
	}
	f.Compact()
	return f
}

// toPairTable returns f's pairs as a PairTable, folding pending tails first.
func toPairTable(f *PairFrontier) *PairTable {
	f.Compact()
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
	if !f.compacted {
		t.Fatalf("%s: not compacted", label)
	}
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

func TestFrontierCloneIsDetached(t *testing.T) {
	rng := lcg(11)
	src := NewPairFrontier(30)
	for a := 0; a < 400; a++ {
		src.Add(rng.next(30), rng.next(30), rng.float()) // left with pending tails
	}
	c := src.Clone()
	want := toPairTable(src)
	requireSamePairs(t, "clone", c, want)

	// The source is an arena the next run reuses; the clone must not see it.
	src.Reset()
	for a := 0; a < 400; a++ {
		src.Add(rng.next(30), rng.next(30), rng.float())
	}
	src.Compact()
	requireSamePairs(t, "clone after source reuse", c, want)

	// Rows are windows of one array: growing one must not run into the next.
	c.Add(0, 29, 1)
	c.Add(0, 28, 1)
	c.Compact()
	want.Add(0, 29, 1)
	want.Add(0, 28, 1)
	requireSamePairs(t, "clone after growing row 0", c, want)
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
	global.Compact()
	requireSamePairs(t, "stitched", global, want)
}
