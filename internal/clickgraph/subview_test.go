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
	view, err := NewSubview(g, queryIDs, adIDs, AdTable(g, adIDs))
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
	view, err := NewSubview(g, []int{7, 1, 4, 1}, []int{9, 0, 3}, AdTable(g, []int{0, 3, 9}))
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
	view, err := NewSubview(g, all(g.NumQueries()), all(g.NumAds()), AdTable(g, all(g.NumAds())))
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
	if _, err := NewSubview(g, []int{0, 5}, nil, AdTable(g)); err == nil {
		t.Error("accepted out-of-range query id")
	}
	if _, err := NewSubview(g, nil, []int{-1}, AdTable(g)); err == nil {
		t.Error("accepted negative ad id")
	}
}

// TestSubviewAllocationIndependentOfParentSize carves many small shards
// out of a graph with a large ad side and bounds the bytes each carve
// allocates: proportional to the shard. The ad table, one int32 per parent
// ad, is built once for all the shards, as RunSharded builds it from the
// plan, before the carves are measured; a carve that built its own would
// alone allocate 4× the bound.
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
	adLocal := make([]int32, g.NumAds())
	for s := 0; s < shards; s++ {
		for k, a := range ids(s) {
			adLocal[a] = int32(k)
		}
	}
	const carved = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 0; s < carved; s++ {
		view, err := NewSubview(g, ids(s*(shards/carved)), ids(s*(shards/carved)), adLocal)
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

// searchCarve is NewSubview's carve as it was before the ad table: each
// edge's ad translated by a binary search of the view's sorted ad list.
func searchCarve(g *Graph, queryIDs, adIDs []int) *Subview {
	qSel, _ := checkIDs(queryIDs, g.NumQueries(), "query")
	aSel, _ := checkIDs(adIDs, g.NumAds(), "ad")
	queries, ads := make([]string, len(qSel)), make([]string, len(aSel))
	maxEdges := 0
	for i, q := range qSel {
		queries[i] = g.queries[q]
		maxEdges += g.QueryDegree(q)
	}
	for i, a := range aSel {
		ads[i] = g.ads[a]
	}
	sub := newGraph(queries, ads, maxEdges)
	for i, q := range qSel {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			if la, ok := slices.BinarySearch(aSel, g.ad[p]); ok {
				sub.appendEdge(la, g.weightsAt(p))
			}
		}
		sub.qPtr[i+1] = len(sub.ad)
	}
	sub.indexAds()
	return &Subview{Graph: sub, QueryIDs: qSel, AdIDs: aSel}
}

// TestSubviewTableMatchesSearchCarve carves every view of random plans —
// each query and each ad dealt to one of k views, some views left without
// queries or ads — through one shared AdTable, as RunSharded does, and
// through a table of its own, and holds each to the binary-search carve it
// replaced: the same ids, names, edge table and ad-ordered view. A table that misnumbers an ad of the
// view is refused.
func TestSubviewTableMatchesSearchCarve(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := subviewRandomGraph(seed, 10+int(seed%23), 8+int(seed%17), 20+int(seed*7%90))
		k := 1 + int(seed%6)
		rng := seed
		deal := func(n int) [][]int {
			views := make([][]int, k)
			for id := 0; id < n; id++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				v := int(rng>>33) % k
				views[v] = append(views[v], id)
			}
			return views
		}
		qViews, aViews := deal(g.NumQueries()), deal(g.NumAds())
		adLocal := AdTable(g, aViews...)
		for v := range k {
			want := searchCarve(g, qViews[v], aViews[v])
			for name, table := range map[string][]int32{"shared table": adLocal, "own table": AdTable(g, aViews[v])} {
				got, err := NewSubview(g, qViews[v], aViews[v], table)
				if err != nil {
					t.Fatalf("seed %d view %d, %s: %v", seed, v, name, err)
				}
				if !sameView(got, want) {
					t.Fatalf("seed %d view %d of %d, %s: the carve differs from the search carve", seed, v, k, name)
				}
			}
		}
		if len(aViews[0]) > 1 {
			bad := slices.Clone(adLocal)
			bad[aViews[0][0]], bad[aViews[0][1]] = bad[aViews[0][1]], bad[aViews[0][0]]
			if _, err := NewSubview(g, qViews[0], aViews[0], bad); err == nil {
				t.Fatalf("seed %d: a table that swaps two of the view's ads was accepted", seed)
			}
		}
	}
}

// sameView reports whether two views hold the same ids, names, edge table
// and ad-ordered view.
func sameView(x, y *Subview) bool {
	a, b := x.Graph, y.Graph
	return slices.Equal(x.QueryIDs, y.QueryIDs) && slices.Equal(x.AdIDs, y.AdIDs) &&
		slices.Equal(a.queries, b.queries) && slices.Equal(a.ads, b.ads) &&
		slices.Equal(a.qPtr, b.qPtr) && slices.Equal(a.ad, b.ad) && slices.Equal(a.rate, b.rate) &&
		slices.Equal(a.clicks, b.clicks) && slices.Equal(a.impr, b.impr) &&
		slices.Equal(a.aPtr, b.aPtr) && slices.Equal(a.query, b.query) &&
		slices.Equal(a.aRate, b.aRate) && slices.Equal(a.pos, b.pos)
}
