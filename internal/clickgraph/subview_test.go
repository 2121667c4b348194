package clickgraph

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// subviewRandomGraph builds a deterministic pseudo-random graph for the
// subview tests (a local copy of the core package's generator idiom).
func subviewRandomGraph(seed uint64, nq, na, edges int) *Graph {
	b := NewBuilder()
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for i := 0; i < nq; i++ {
		b.AddQuery(testName("q", i))
	}
	for i := 0; i < na; i++ {
		b.AddAd(testName("ad", i))
	}
	for e := 0; e < edges; e++ {
		clicks := int64(next(9) + 1)
		err := b.AddEdge(testName("q", next(nq)), testName("ad", next(na)), EdgeWeights{
			Impressions: clicks + int64(next(50)), Clicks: clicks,
			ExpectedClickRate: float64(next(100)) / 100,
		})
		if err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func testName(prefix string, i int) string {
	return prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestSubviewMatchesInducedSubgraph(t *testing.T) {
	g := subviewRandomGraph(5, 20, 15, 80)
	queryIDs := []int{0, 2, 3, 7, 8, 11, 12, 19}
	adIDs := []int{1, 2, 5, 6, 9, 14}
	want := g.InducedSubgraph(queryIDs, adIDs)
	view, err := NewSubview(g, queryIDs, adIDs)
	if err != nil {
		t.Fatalf("NewSubview: %v", err)
	}
	got := view.Graph
	if got.NumQueries() != want.NumQueries() || got.NumAds() != want.NumAds() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("dims: got %d×%d/%d edges, want %d×%d/%d",
			got.NumQueries(), got.NumAds(), got.NumEdges(),
			want.NumQueries(), want.NumAds(), want.NumEdges())
	}
	// InducedSubgraph interns in list order; checkIDs sorts ascending and
	// the test ids are already ascending, so local ids agree node for node.
	want.Edges(func(q, a int, w EdgeWeights) bool {
		gw, ok := got.EdgeWeightsOf(q, a)
		if !ok {
			t.Fatalf("edge (%d,%d) missing from subview", q, a)
		}
		if gw != w {
			t.Fatalf("edge (%d,%d): weights %+v, want %+v", q, a, gw, w)
		}
		return true
	})
}

func TestSubviewIDMapping(t *testing.T) {
	g := subviewRandomGraph(9, 12, 10, 50)
	// Deliberately unsorted with a duplicate: NewSubview must sort+dedupe.
	view, err := NewSubview(g, []int{7, 1, 4, 1}, []int{9, 0, 3})
	if err != nil {
		t.Fatalf("NewSubview: %v", err)
	}
	wantQ := []int{1, 4, 7}
	if len(view.QueryIDs) != len(wantQ) {
		t.Fatalf("QueryIDs = %v, want %v", view.QueryIDs, wantQ)
	}
	for local, global := range wantQ {
		if view.QueryIDs[local] != global {
			t.Errorf("QueryIDs[%d] = %d, want %d", local, view.QueryIDs[local], global)
		}
		if view.Graph.Query(local) != g.Query(global) {
			t.Errorf("query name mismatch at local %d", local)
		}
	}
	if !slices.Equal(view.AdIDs, []int{0, 3, 9}) {
		t.Errorf("AdIDs = %v, want [0 3 9]", view.AdIDs)
	}
	for local, global := range view.AdIDs {
		if view.Graph.Ad(local) != g.Ad(global) {
			t.Errorf("ad name mismatch at local %d", local)
		}
	}
}

func TestSubviewWholeGraph(t *testing.T) {
	g := subviewRandomGraph(3, 10, 8, 40)
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	view, err := NewSubview(g, all(g.NumQueries()), all(g.NumAds()))
	if err != nil {
		t.Fatalf("NewSubview: %v", err)
	}
	if view.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("whole-graph view lost edges: %d vs %d", view.Graph.NumEdges(), g.NumEdges())
	}
	g.Edges(func(q, a int, w EdgeWeights) bool {
		gw, ok := view.Graph.EdgeWeightsOf(q, a)
		if !ok || gw != w {
			t.Fatalf("edge (%d,%d): %+v,%v want %+v", q, a, gw, ok, w)
		}
		return true
	})
}

func TestSubviewRejectsOutOfRange(t *testing.T) {
	g := subviewRandomGraph(4, 5, 5, 10)
	if _, err := NewSubview(g, []int{0, 5}, nil); err == nil {
		t.Error("accepted out-of-range query id")
	}
	if _, err := NewSubview(g, nil, []int{-1}); err == nil {
		t.Error("accepted negative ad id")
	}
}

// TestSubviewAllocationIndependentOfParentSize carves many small shards
// out of a graph with a large ad side and bounds the bytes each carve
// allocates: proportional to the shard, with no scratch sized to the
// parent (one int32 per parent ad here would alone be 4× the bound).
func TestSubviewAllocationIndependentOfParentSize(t *testing.T) {
	const shards, perShard = 5000, 8
	b := NewBuilder()
	for s := 0; s < shards; s++ {
		for k := 0; k < perShard; k++ {
			for d := 0; d < 2; d++ {
				err := b.AddEdge(fmt.Sprintf("q%d-%d", s, k), fmt.Sprintf("a%d-%d", s, (k+d)%perShard),
					EdgeWeights{Impressions: 2, Clicks: 1, ExpectedClickRate: 0.5})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g := b.Build()
	ids := func(s int) []int {
		out := make([]int, perShard)
		for k := range out {
			out[k] = s*perShard + k
		}
		return out
	}
	const carved = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 0; s < carved; s++ {
		view, err := NewSubview(g, ids(s*(shards/carved)), ids(s*(shards/carved)))
		if err != nil {
			t.Fatal(err)
		}
		if view.Graph.NumEdges() != 2*perShard {
			t.Fatalf("shard %d kept %d edges, want %d", s, view.Graph.NumEdges(), 2*perShard)
		}
	}
	runtime.ReadMemStats(&after)
	perCarve := (after.TotalAlloc - before.TotalAlloc) / carved
	t.Logf("%d B allocated per %d-node carve of a %d-ad graph", perCarve, 2*perShard, g.NumAds())
	if bound := uint64(g.NumAds()); perCarve > bound {
		t.Errorf("NewSubview allocated %d B per %d-node shard of a %d-ad graph, want under %d B",
			perCarve, 2*perShard, g.NumAds(), bound)
	}
}
