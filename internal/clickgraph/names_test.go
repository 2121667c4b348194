package clickgraph

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// indexTestNames returns n names in arrival order, repeats among them:
// the empty name, long names, names sharing long prefixes, and names that
// differ only in their last byte.
func indexTestNames(rng *rand.Rand, n int) []string {
	long := strings.Repeat("x", 700)
	var out []string
	for len(out) < n {
		var name string
		switch k := rng.IntN(6); {
		case len(out) > 0 && k == 0: // a repeat
			name = out[rng.IntN(len(out))]
		case k == 1:
			name = ""
		case k == 2:
			name = long + fmt.Sprint(rng.IntN(n))
		case k == 3:
			name = "shared prefix " + long[:rng.IntN(64)] + fmt.Sprint(rng.IntN(n))
		default:
			name = fmt.Sprintf("q%d", rng.IntN(2*n))
		}
		out = append(out, name)
	}
	return out
}

// TestNameIndexMatchesMap interns random names through a Builder side and
// holds every id to a map[string]int interning the same names, after
// every add, across at least four doublings of the table, and wants
// absent names unresolved. The weak arms clear all but the low three
// hash bits, so distinct names share hashes and one probe chain: an index
// that trusted equal hashes, or stopped at the first of them, fails them.
// The table grown add by add must equal NewNameIndex's over the final
// list, slot for slot, and NewNameIndex must report the first repeat.
func TestNameIndexMatchesMap(t *testing.T) {
	for _, weak := range []uint64{0, ^uint64(7), ^uint64(0)} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, weak))
			s := nameSide{index: NameIndex{weak: weak}}
			ref := map[string]int{}
			sizes := map[int]bool{}
			for i, name := range indexTestNames(rng, 600) {
				if _, ok := ref[name]; !ok {
					ref[name] = len(ref)
				}
				if got := s.intern(name); got != ref[name] {
					t.Fatalf("weak %#x seed %d: add %d: %q interned as %d, the map gave %d", weak, seed, i, name, got, ref[name])
				}
				sizes[len(s.index.slots)] = true
				if i%50 != 0 {
					continue
				}
				for name, id := range ref {
					if got, ok := s.index.Find(s.names, name); !ok || got != id {
						t.Fatalf("weak %#x seed %d: after %d adds, Find(%q) = %d, %v; want %d", weak, seed, i, name, got, ok, id)
					}
				}
			}
			if len(sizes) < 5 {
				t.Fatalf("weak %#x seed %d: the table took %d sizes, want at least four doublings", weak, seed, len(sizes))
			}
			for _, absent := range []string{"absent", "q-1", "shared prefix", strings.Repeat("x", 700), "\x00"} {
				if id, ok := s.index.Find(s.names, absent); ok {
					t.Fatalf("weak %#x seed %d: absent %q found as %d", weak, seed, absent, id)
				}
			}
			if weak != 0 {
				continue
			}
			whole, dup := NewNameIndex(s.names)
			if dup != -1 || !reflect.DeepEqual(whole, s.index) {
				t.Fatalf("seed %d: NewNameIndex over the interned names differs from the table grown add by add (repeat at %d)", seed, dup)
			}
			names := append(slices.Clone(s.names[:100]), s.names[40])
			if _, dup := NewNameIndex(append(names, s.names[100:]...)); dup != 100 {
				t.Fatalf("seed %d: NewNameIndex reports the repeat at %d, want 100", seed, dup)
			}
		}
	}
	var empty NameIndex
	if _, ok := empty.Find(nil, ""); ok {
		t.Fatal("the empty index found a name")
	}
}

// TestNameIndexCopyOnLend: a graph shares its Builder's index, and the
// Builder, interning a name new to a side while the table has room for it,
// writes into a copy. The earlier graph's slots stay as they were, its
// names resolve, and the new name does not; the same holds for a graph
// NewBuilderFrom adopted.
func TestNameIndexCopyOnLend(t *testing.T) {
	b := NewBuilder()
	for i := range 5 {
		mustAdd(t, b, fmt.Sprintf("q%d", i), fmt.Sprintf("a%d", i), EdgeWeights{Impressions: 1, Clicks: 1, ExpectedClickRate: 0.5})
	}
	first := b.Build()
	for name, next := range map[string]*Builder{"Build": b, "NewBuilderFrom": NewBuilderFrom(first)} {
		qSlots, aSlots := slices.Clone(first.queryIndex.slots), slices.Clone(first.adIndex.slots)
		mustAdd(t, next, "late query", "late ad", EdgeWeights{Impressions: 1, Clicks: 1, ExpectedClickRate: 0.5})
		g := next.Build()
		if len(g.queryIndex.slots) != len(qSlots) || len(g.adIndex.slots) != len(aSlots) {
			t.Fatalf("%s: the table grew, so no copy was needed", name)
		}
		if !slices.Equal(first.queryIndex.slots, qSlots) || !slices.Equal(first.adIndex.slots, aSlots) {
			t.Fatalf("%s: interning a new name wrote the earlier graph's index", name)
		}
		if _, ok := first.QueryID("late query"); ok {
			t.Fatalf("%s: the earlier graph resolves a later query", name)
		}
		if _, ok := first.AdID("late ad"); ok {
			t.Fatalf("%s: the earlier graph resolves a later ad", name)
		}
		for id, q := range first.Queries() {
			if got, ok := first.QueryID(q); !ok || got != id {
				t.Fatalf("%s: the earlier graph resolves %q to %d, %v", name, q, got, ok)
			}
		}
		if id, ok := g.QueryID("late query"); !ok || id != 5 {
			t.Fatalf("%s: the new graph resolves the late query to %d, %v", name, id, ok)
		}
	}
}
