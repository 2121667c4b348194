package clickgraph

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustAdd(t *testing.T, b *Builder, q, a string, w EdgeWeights) {
	t.Helper()
	if err := b.AddEdge(q, a, w); err != nil {
		t.Fatalf("AddEdge(%q,%q): %v", q, a, err)
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "q1", "a1", EdgeWeights{Impressions: 10, Clicks: 3, ExpectedClickRate: 0.3})
	mustAdd(t, b, "q1", "a2", EdgeWeights{Impressions: 5, Clicks: 1, ExpectedClickRate: 0.2})
	mustAdd(t, b, "q2", "a1", EdgeWeights{Impressions: 2, Clicks: 2, ExpectedClickRate: 0.9})
	g := b.Build()

	if g.NumQueries() != 2 || g.NumAds() != 2 || g.NumEdges() != 3 {
		t.Fatalf("sizes: %d queries %d ads %d edges", g.NumQueries(), g.NumAds(), g.NumEdges())
	}
	q1, ok := g.QueryID("q1")
	if !ok {
		t.Fatal("q1 missing")
	}
	a1, ok := g.AdID("a1")
	if !ok {
		t.Fatal("a1 missing")
	}
	w, ok := g.EdgeWeightsOf(q1, a1)
	if !ok || w.Impressions != 10 || w.Clicks != 3 || w.ExpectedClickRate != 0.3 {
		t.Errorf("EdgeWeightsOf(q1,a1) = %+v,%v", w, ok)
	}
	if g.QueryDegree(q1) != 2 {
		t.Errorf("QueryDegree(q1) = %d want 2", g.QueryDegree(q1))
	}
	if g.AdDegree(a1) != 2 {
		t.Errorf("AdDegree(a1) = %d want 2", g.AdDegree(a1))
	}
	if _, ok := g.QueryID("nope"); ok {
		t.Error("unknown query resolved")
	}
}

func TestBuilderRejectsBadWeights(t *testing.T) {
	cases := []EdgeWeights{
		{Impressions: -1},
		{Clicks: -1},
		{Impressions: 1, Clicks: 2},
		{ExpectedClickRate: -0.1},
		{ExpectedClickRate: 1.1},
		{ExpectedClickRate: math.NaN()},
		{ExpectedClickRate: math.Inf(1)},
	}
	for _, w := range cases {
		b := NewBuilder()
		if err := b.AddEdge("q", "a", w); err == nil {
			t.Errorf("AddEdge accepted invalid weights %+v", w)
		}
	}
}

func TestBuilderMergesDuplicateEdges(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, "q", "a", EdgeWeights{Impressions: 10, Clicks: 1, ExpectedClickRate: 0.1})
	mustAdd(t, b, "q", "a", EdgeWeights{Impressions: 30, Clicks: 3, ExpectedClickRate: 0.5})
	g := b.Build()
	q, _ := g.QueryID("q")
	a, _ := g.AdID("a")
	w, _ := g.EdgeWeightsOf(q, a)
	if w.Impressions != 40 || w.Clicks != 4 {
		t.Errorf("merged counts = %+v", w)
	}
	// Impressions-weighted mean: (0.1*10 + 0.5*30)/40 = 0.4.
	if w.ExpectedClickRate != 0.4 {
		t.Errorf("merged rate = %v want 0.4", w.ExpectedClickRate)
	}
}

func TestCommonAds(t *testing.T) {
	g := Fig3()
	cam, _ := g.QueryID("camera")
	dig, _ := g.QueryID("digital camera")
	pc, _ := g.QueryID("pc")
	fl, _ := g.QueryID("flower")
	if n := len(g.CommonAds(cam, dig)); n != 2 {
		t.Errorf("camera/digital camera common ads = %d want 2", n)
	}
	if n := len(g.CommonAds(pc, cam)); n != 1 {
		t.Errorf("pc/camera common ads = %d want 1", n)
	}
	if n := len(g.CommonAds(pc, fl)); n != 0 {
		t.Errorf("pc/flower common ads = %d want 0", n)
	}
}

// Table 1 of the paper, exactly.
func TestFig3MatchesTable1(t *testing.T) {
	g := Fig3()
	want := map[[2]string]int{
		{"pc", "camera"}: 1, {"pc", "digital camera"}: 1, {"pc", "tv"}: 0, {"pc", "flower"}: 0,
		{"camera", "digital camera"}: 2, {"camera", "tv"}: 1, {"camera", "flower"}: 0,
		{"digital camera", "tv"}: 1, {"digital camera", "flower"}: 0,
		{"tv", "flower"}: 0,
	}
	for pair, n := range want {
		i, ok1 := g.QueryID(pair[0])
		j, ok2 := g.QueryID(pair[1])
		if !ok1 || !ok2 {
			t.Fatalf("missing query in pair %v", pair)
		}
		if got := len(g.CommonAds(i, j)); got != n {
			t.Errorf("common ads %v = %d want %d", pair, got, n)
		}
	}
}

func TestComponents(t *testing.T) {
	g := Fig3()
	comps := Components(g)
	// Fig3 has two components: the electronics cluster and the flower
	// cluster.
	if len(comps) != 2 {
		t.Fatalf("components = %d want 2", len(comps))
	}
	if len(comps[0].Queries) != 4 {
		t.Errorf("largest component queries = %d want 4", len(comps[0].Queries))
	}
	if len(comps[1].Queries) != 1 || len(comps[1].Ads) != 2 {
		t.Errorf("flower component = %d queries %d ads, want 1 and 2",
			len(comps[1].Queries), len(comps[1].Ads))
	}
}

func TestComputeStats(t *testing.T) {
	g := Fig3()
	s := ComputeStats(g)
	if s.Queries != 5 || s.Ads != 7 || s.Edges != 12 {
		t.Errorf("stats sizes: %+v", s)
	}
	if s.Components != 2 {
		t.Errorf("components = %d want 2", s.Components)
	}
	if s.TotalClicks != 12 {
		t.Errorf("total clicks = %d want 12 (one per edge)", s.TotalClicks)
	}
	if s.MaxQueryDegree != 3 {
		t.Errorf("max query degree = %d want 3", s.MaxQueryDegree)
	}
}

func TestRemoveEdges(t *testing.T) {
	g := Fig3()
	pc, _ := g.QueryID("pc")
	hp, _ := g.AdID("hp.com")
	g2 := g.RemoveEdges([][2]int{{pc, hp}})
	if g2.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("edges after removal = %d want %d", g2.NumEdges(), g.NumEdges()-1)
	}
	// Node ids preserved.
	if g2.NumQueries() != g.NumQueries() || g2.NumAds() != g.NumAds() {
		t.Fatal("node counts changed")
	}
	pc2, _ := g2.QueryID("pc")
	hp2, _ := g2.AdID("hp.com")
	if _, ok := g2.EdgeWeightsOf(pc2, hp2); ok {
		t.Error("removed edge still present")
	}
	// Original untouched.
	if _, ok := g.EdgeWeightsOf(pc, hp); !ok {
		t.Error("RemoveEdges mutated the original graph")
	}
}

// removeEdgesByReplay is RemoveEdges as it was before it filtered the
// table: every node declared in id order, then every surviving edge
// replayed through a Builder. It is the reference RemoveEdges is held to.
func removeEdgesByReplay(g *Graph, drop [][2]int) *Graph {
	skip := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		skip[e] = true
	}
	b := NewBuilder()
	for _, q := range g.queries {
		b.AddQuery(q)
	}
	for _, a := range g.ads {
		b.AddAd(a)
	}
	g.Edges(func(q, a int, w EdgeWeights) bool {
		if !skip[[2]int{q, a}] {
			_ = b.AddEdge(g.queries[q], g.ads[a], w)
		}
		return true
	})
	return b.Build()
}

// TestRemoveEdgesMatchesReplay holds RemoveEdges to the replay on random
// graphs, dropping none, some (with unknown and repeated pairs among them)
// and every edge, and checks that the result reads g's own name maps.
func TestRemoveEdgesMatchesReplay(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := subviewRandomGraph(seed, 30, 25, 150)
		var all, some [][2]int
		g.Edges(func(q, a int, _ EdgeWeights) bool {
			all = append(all, [2]int{q, a})
			if (q+a+int(seed))%3 == 0 {
				some = append(some, [2]int{q, a}, [2]int{q, a})
			}
			return true
		})
		some = append(some, [2]int{-1, 0}, [2]int{0, g.NumAds()}, [2]int{g.NumQueries(), 3})
		for name, drop := range map[string][][2]int{"none": nil, "some": some, "all": all} {
			got, want := g.RemoveEdges(drop), removeEdgesByReplay(g, drop)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, drop %s: RemoveEdges differs from the replay", seed, name)
			}
			if reflect.ValueOf(got.queryID).Pointer() != reflect.ValueOf(g.queryID).Pointer() ||
				reflect.ValueOf(got.adID).Pointer() != reflect.ValueOf(g.adID).Pointer() {
				t.Fatalf("seed %d, drop %s: RemoveEdges built name maps of its own", seed, name)
			}
		}
	}
}

// TestNewBuilderFrom: a Builder that adopts a graph builds that graph
// back, and after more adds — new names, old names, repeats of old edges —
// it builds what a Builder fed the graph's nodes in id order and then its
// edges would: every old node keeps its id, which is what the ingest
// fold's shard fingerprints rely on. The adopted graph may come from Build
// or from NewSubview, which carries no name maps until a lookup.
func TestNewBuilderFrom(t *testing.T) {
	g := subviewRandomGraph(3, 40, 30, 200)
	view, err := NewSubview(g, []int{1, 2, 3, 5, 8, 13, 21, 34}, []int{0, 2, 4, 6, 8, 10, 12, 14, 16}, AdTable(g, []int{0, 2, 4, 6, 8, 10, 12, 14, 16}))
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]*Graph{"Build": g, "NewSubview": view.Graph} {
		if got := NewBuilderFrom(base).Build(); !reflect.DeepEqual(got, base) {
			t.Fatalf("%s: NewBuilderFrom(g).Build() differs from g", name)
		}
		b, ref := NewBuilderFrom(base), NewBuilder()
		for _, q := range base.Queries() {
			ref.AddQuery(q)
		}
		for _, a := range base.Ads() {
			ref.AddAd(a)
		}
		base.Edges(func(q, a int, w EdgeWeights) bool {
			mustAdd(t, ref, base.Query(q), base.Ad(a), w)
			return true
		})
		for i := 0; i < 60; i++ {
			q, a := testName("q", (i*7)%50), testName("ad", (i*5)%45)
			if i%4 == 0 {
				q = fmt.Sprintf("new query %d", i)
			}
			w := EdgeWeights{Impressions: int64(i%5 + 1), Clicks: 1, ExpectedClickRate: float64(i%9) / 9}
			mustAdd(t, b, q, a, w)
			mustAdd(t, ref, q, a, w)
			if i == 30 {
				b.Build() // a fold in between changes nothing
			}
		}
		got := b.Build()
		if !reflect.DeepEqual(got, ref.Build()) {
			t.Fatalf("%s: adds after NewBuilderFrom build another graph than the replay", name)
		}
		for id, q := range base.Queries() {
			if gid, ok := got.QueryID(q); !ok || gid != id {
				t.Fatalf("%s: query %q moved from id %d to %d", name, q, id, gid)
			}
		}
		for id, a := range base.Ads() {
			if gid, ok := got.AdID(a); !ok || gid != id {
				t.Fatalf("%s: ad %q moved from id %d to %d", name, a, id, gid)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Fig3()
	cam, _ := g.QueryID("camera")
	dig, _ := g.QueryID("digital camera")
	hp, _ := g.AdID("hp.com")
	bb, _ := g.AdID("bestbuy.com")
	sub := g.InducedSubgraph([]int{cam, dig}, []int{hp, bb})
	if sub.NumQueries() != 2 || sub.NumAds() != 2 || sub.NumEdges() != 4 {
		t.Errorf("induced K2,2: %d/%d/%d", sub.NumQueries(), sub.NumAds(), sub.NumEdges())
	}
}

// A name the line format cannot carry is an error at Write, not a file
// that reads back as a different graph; every other name round-trips.
func TestWriteRefusesNamesTheFormatCannotCarry(t *testing.T) {
	for _, names := range [][2]string{{"#comment", "ad"}, {"query\r", "ad"}, {"query", "ad\r"}, {"que\try", "ad"}, {"query", "a\nd"}} {
		b := NewBuilder()
		mustAdd(t, b, names[0], names[1], EdgeWeights{Impressions: 2, Clicks: 1, ExpectedClickRate: 0.5})
		if err := Write(io.Discard, b.Build()); err == nil {
			t.Errorf("Write accepted query %q, ad %q", names[0], names[1])
		}
	}
	b := NewBuilder()
	mustAdd(t, b, "q #1", "#ad", EdgeWeights{Impressions: 2, Clicks: 1, ExpectedClickRate: 0.5})
	mustAdd(t, b, "!query", "!ad", EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: 0.25})
	b.AddQuery(" q\rx ")
	b.AddAd("#")
	g := b.Build()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(graphEdges(t, g2), graphEdges(t, g)) || g2.NumQueries() != 3 || g2.NumAds() != 3 {
		t.Errorf("round trip: %d queries %v, %d ads %v", g2.NumQueries(), g2.Queries(), g2.NumAds(), g2.Ads())
	}
	for _, q := range g.Queries() {
		if _, ok := g2.QueryID(q); !ok {
			t.Errorf("query %q lost", q)
		}
	}
	for _, a := range g.Ads() {
		if _, ok := g2.AdID(a); !ok {
			t.Errorf("ad %q lost", a)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"q\ta\tx\t1\t0.5\n", // bad impressions
		"q\ta\t1\tx\t0.5\n", // bad clicks
		"q\ta\t1\t1\tx\n",   // bad rate
		"q\ta\t1\n",         // wrong field count
		"q\ta\t1\t2\t0.5\n", // clicks > impressions
		"q\ta\t1\t1\t1.5\n", // rate out of range
		// A NaN rate used to pass the range test (it compares false with
		// both bounds) and every weighted score of the graph came out NaN.
		"q\ta\t1\t1\tNaN\n",
		"q\ta\t1\t1\t0.5\nq\ta\t1\t1\tnan\n", // as a repeat of a good edge
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read accepted malformed input %q", c)
		}
	}
}

// graphEdges returns g's edges by name after walking them through every
// accessor: it fails the test unless Edges runs in (query id, ad id) order,
// every row of either side ascends strictly, and both orientations hold
// the same edges with the same three weights.
func graphEdges(t *testing.T, g *Graph) map[[2]string]EdgeWeights {
	t.Helper()
	got := map[[2]string]EdgeWeights{}
	lastQ, lastA := -1, -1
	g.Edges(func(q, a int, w EdgeWeights) bool {
		if q < lastQ || q == lastQ && a <= lastA {
			t.Errorf("Edges: (%d,%d) after (%d,%d)", q, a, lastQ, lastA)
		}
		lastQ, lastA = q, a
		if ew, ok := g.EdgeWeightsOf(q, a); !ok || ew != w {
			t.Errorf("EdgeWeightsOf(%d,%d) = %+v, %v; Edges says %+v", q, a, ew, ok, w)
		}
		got[[2]string{g.Query(q), g.Ad(a)}] = w
		return true
	})
	if len(got) != g.NumEdges() {
		t.Errorf("Edges walked %d distinct edges, NumEdges = %d", len(got), g.NumEdges())
	}
	for _, side := range []Side{QuerySide, AdSide} {
		nodes, rowOf, degree := g.NumQueries(), g.AdsOf, g.QueryDegree
		if side == AdSide {
			nodes, rowOf, degree = g.NumAds(), g.QueriesOf, g.AdDegree
		}
		seen := 0
		for id := 0; id < nodes; id++ {
			row := g.Row(side, id)
			nbrs, rates := rowOf(id)
			if !slices.Equal(nbrs, row.Neighbors) || !slices.Equal(rates, row.Rate) || degree(id) != len(nbrs) {
				t.Errorf("%s %d: Row %v %v, rate row %v %v, degree %d", side, id, row.Neighbors, row.Rate, nbrs, rates, degree(id))
			}
			for i, n := range row.Neighbors {
				if i > 0 && row.Neighbors[i-1] >= n {
					t.Errorf("%s %d: row %v does not ascend strictly", side, id, row.Neighbors)
				}
				q, a := id, n
				if side == AdSide {
					q, a = n, id
				}
				w := EdgeWeights{Impressions: row.Impressions[i], Clicks: row.Clicks[i], ExpectedClickRate: row.Rate[i]}
				if ew, ok := got[[2]string{g.Query(q), g.Ad(a)}]; !ok || ew != w {
					t.Errorf("%s %d: row holds (%d,%d) %+v, Edges says %+v, %v", side, id, q, a, w, ew, ok)
				}
			}
			seen += len(row.Neighbors)
		}
		if seen != len(got) {
			t.Errorf("%s rows hold %d edges, Edges walked %d", side, seen, len(got))
		}
	}
	return got
}

// Property: any multiset of valid edges, with isolated nodes among them,
// round-trips through Build without loss and consistently (graphEdges);
// NewSubview over every id reproduces the graph and over a subset equals
// InducedSubgraph of the same ascending ids; and the Builder stays usable:
// the graphs it built earlier keep their names, ids and lookups, read on
// another goroutine while it interns new names and builds again.
func TestBuilderProperty(t *testing.T) {
	check := func(edges []struct{ Q, A, Click uint8 }, pick uint8) bool {
		b := NewBuilder()
		want := map[[2]string]EdgeWeights{}
		add := func(q, a string, c int64) {
			// Three distinct weights an edge, the rate sometimes zero. It is
			// a dyadic function of the pair, so the impressions-weighted
			// mean of a repeated edge is that same rate exactly.
			w := EdgeWeights{Impressions: 2*c + 3, Clicks: c + 1, ExpectedClickRate: float64((len(q)+int(a[1]))%4) / 4}
			if err := b.AddEdge(q, a, w); err != nil {
				t.Fatal(err)
			}
			old := want[[2]string{q, a}]
			w.Impressions, w.Clicks = w.Impressions+old.Impressions, w.Clicks+old.Clicks
			want[[2]string{q, a}] = w
		}
		name := func(q, a uint8, c int64) (string, string, int64) {
			return "q" + strings.Repeat("+", int(q%16)), "A" + string(rune('a'+a%16)), c
		}
		for i, e := range edges {
			if e.Click%4 == 0 {
				b.AddQuery(fmt.Sprintf("lone query %d", i))
				b.AddAd(fmt.Sprintf("lone ad %d", i))
			}
			add(name(e.Q, e.A, int64(e.Click%5)))
		}
		g := b.Build()
		ok := reflect.DeepEqual(graphEdges(t, g), want)

		all := func(n int) []int {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			return ids
		}
		whole, err := NewSubview(g, all(g.NumQueries()), all(g.NumAds()), AdTable(g, all(g.NumAds())))
		ok = ok && err == nil && reflect.DeepEqual(graphEdges(t, whole.Graph), want) &&
			slices.Equal(whole.Graph.Queries(), g.Queries()) && slices.Equal(whole.Graph.Ads(), g.Ads())

		keep := func(ids []int) []int {
			return slices.DeleteFunc(ids, func(id int) bool { return (id*7+int(pick))%3 == 0 })
		}
		qIDs, aIDs := keep(all(g.NumQueries())), keep(all(g.NumAds()))
		view, err := NewSubview(g, qIDs, aIDs, AdTable(g, aIDs))
		induced := g.InducedSubgraph(qIDs, aIDs)
		ok = ok && err == nil && reflect.DeepEqual(graphEdges(t, view.Graph), graphEdges(t, induced)) &&
			slices.Equal(view.QueryIDs, qIDs) && slices.Equal(view.AdIDs, aIDs) &&
			slices.Equal(view.Graph.Queries(), induced.Queries()) && slices.Equal(view.Graph.Ads(), induced.Ads())

		// More edges — a new one in the first query's row, so that every
		// later table position moves, new names, and every other old one
		// again — while another goroutine looks up every name of the first
		// graph: the Builder interns into copies of the maps the graph
		// reads, and the first graph must not change.
		before := maps.Clone(want)
		lookups := make(chan bool)
		go func() {
			same := true
			for range 3 {
				for id, q := range g.Queries() {
					got, found := g.QueryID(q)
					same = same && found && got == id
				}
				for id, a := range g.Ads() {
					got, found := g.AdID(a)
					same = same && found && got == id
				}
			}
			lookups <- same
		}()
		if g.NumQueries() > 0 {
			add(g.Query(0), "A late", 2)
		}
		for i, e := range edges {
			if i%2 == 0 {
				add(name(e.Q, e.A, 4))
			}
			if i%5 == 0 {
				add(fmt.Sprintf("late query %d", i), fmt.Sprintf("late ad %d", i), 1)
				b.Build()
			}
		}
		g2 := b.Build()
		same := <-lookups
		_, lateFound := g.QueryID("late query 0")
		return ok && same && !lateFound && reflect.DeepEqual(graphEdges(t, g2), want) &&
			reflect.DeepEqual(graphEdges(t, g), before) && !t.Failed()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestBuildAllocationPerEdge bounds what Build allocates: the table and
// its ad-ordered view (32 + 24 B an edge), the row pointers, the fold's
// scratch (both sides' ids and the sorted log position, 12 B a logged
// edge), and the names and the two name→id maps as interning grows them —
// no copy of the weights before the table, and not a compiled copy of
// every weight channel in both orders.
func TestBuildAllocationPerEdge(t *testing.T) {
	const nodes, degree = 6000, 10
	b := NewBuilder()
	s := uint64(17)
	for q := 0; q < nodes; q++ {
		for d := 0; d < degree; d++ {
			s = s*6364136223846793005 + 1442695040888963407
			ad := fmt.Sprintf("ad-%05d", (s>>33)%nodes)
			mustAdd(t, b, fmt.Sprintf("query-%05d", q), ad, EdgeWeights{Impressions: 4, Clicks: 1, ExpectedClickRate: 0.25})
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := b.Build()
	runtime.ReadMemStats(&after)
	if g.NumEdges() < 50000 || g.NumEdges() < 4*g.NumQueries() || g.NumEdges() < 4*g.NumAds() {
		t.Fatalf("%d edges over %d queries and %d ads: want ≥ 50000 and ≥ 4 a node", g.NumEdges(), g.NumQueries(), g.NumAds())
	}
	perEdge := (after.TotalAlloc - before.TotalAlloc) / uint64(g.NumEdges())
	t.Logf("Build allocated %d B per edge (%d edges)", perEdge, g.NumEdges())
	if perEdge > 100 {
		t.Errorf("Build allocated %d B per edge, want at most 100", perEdge)
	}
}

// mapBuilder is the fold Builder is held to: one map entry per (query, ad)
// in arrival order of the names, a repeated pair merged into its entry by
// the rule AddEdge documents. It is the Builder this package had before its
// rows were kept sorted, less the validation.
type mapBuilder struct {
	queryID, adID map[string]int
	edges         map[[2]int]EdgeWeights
	merges        int
	plainMeans    int // merges that found no impressions on either side
}

func (m *mapBuilder) add(query, ad string, w EdgeWeights) {
	intern := func(ids map[string]int, name string) int {
		if _, ok := ids[name]; !ok {
			ids[name] = len(ids)
		}
		return ids[name]
	}
	key := [2]int{intern(m.queryID, query), intern(m.adID, ad)}
	old, ok := m.edges[key]
	if !ok {
		m.edges[key] = w
		return
	}
	m.merges++
	merged := EdgeWeights{Impressions: old.Impressions + w.Impressions, Clicks: old.Clicks + w.Clicks}
	if ti, tn := float64(old.Impressions), float64(w.Impressions); ti+tn > 0 {
		merged.ExpectedClickRate = (old.ExpectedClickRate*ti + w.ExpectedClickRate*tn) / (ti + tn)
	} else {
		merged.ExpectedClickRate = (old.ExpectedClickRate + w.ExpectedClickRate) / 2
		m.plainMeans++
	}
	m.edges[key] = merged
}

// declare interns a node the way AddQuery / AddAd does.
func (m *mapBuilder) declare(side Side, name string) {
	ids := m.queryID
	if side == AdSide {
		ids = m.adID
	}
	if _, ok := ids[name]; !ok {
		ids[name] = len(ids)
	}
}

// clone returns a copy of m that later adds to m leave alone.
func (m *mapBuilder) clone() *mapBuilder {
	return &mapBuilder{queryID: maps.Clone(m.queryID), adID: maps.Clone(m.adID), edges: maps.Clone(m.edges)}
}

// matches fails the test unless g holds exactly the fold's nodes, with the
// same ids, and its edges, every weight equal bit for bit.
func (m *mapBuilder) matches(t *testing.T, g *Graph) {
	t.Helper()
	if g.NumEdges() != len(m.edges) || g.NumQueries() != len(m.queryID) || g.NumAds() != len(m.adID) {
		t.Fatalf("graph has %d edges over %d × %d nodes, the map fold %d over %d × %d",
			g.NumEdges(), g.NumQueries(), g.NumAds(), len(m.edges), len(m.queryID), len(m.adID))
	}
	for name, id := range m.queryID {
		if got, ok := g.QueryID(name); !ok || got != id || g.Query(id) != name {
			t.Fatalf("query %q has id %d, %v; the map fold gave it %d", name, got, ok, id)
		}
	}
	for name, id := range m.adID {
		if got, ok := g.AdID(name); !ok || got != id || g.Ad(id) != name {
			t.Fatalf("ad %q has id %d, %v; the map fold gave it %d", name, got, ok, id)
		}
	}
	g.Edges(func(q, a int, w EdgeWeights) bool {
		want, ok := m.edges[[2]int{q, a}]
		if !ok || w.Impressions != want.Impressions || w.Clicks != want.Clicks ||
			math.Float64bits(w.ExpectedClickRate) != math.Float64bits(want.ExpectedClickRate) {
			t.Errorf("edge (%d, %d): Builder %+v, map fold %+v (present %v)", q, a, w, want, ok)
		}
		return !t.Failed()
	})
	graphEdges(t, g) // both orientations agree, rows ascend
}

// TestBuilderMatchesMapFold replays one seeded log — a third of it repeats,
// some observations carry no impressions so the plain-mean branch merges,
// rates are not dyadic so a merge in another order would show in the low
// bits, every query meets its ads in descending id order first, and nodes
// are declared between the edges, some of them names an edge brought
// already — through Builder and through the map fold, and wants the same
// ids and every weight equal bit for bit. It builds once mid-stream and
// goes on adding, so the second half merges into the rows of the first
// Build, and the first graph must not change. The last row is 20 000 ads
// in descending order; it has to fit the test's usual budget.
func TestBuilderMatchesMapFold(t *testing.T) {
	const queries, ads, events, wide = 300, 200, 60000, 20000
	b := NewBuilder()
	ref := &mapBuilder{queryID: map[string]int{}, adID: map[string]int{}, edges: map[[2]int]EdgeWeights{}}
	add := func(q, a string, w EdgeWeights) {
		mustAdd(t, b, q, a, w)
		ref.add(q, a, w)
	}
	declare := func(side Side, name string) {
		if side == QuerySide {
			b.AddQuery(name)
		} else {
			b.AddAd(name)
		}
		ref.declare(side, name)
	}
	for a := 0; a < ads; a++ { // ad ids ascend with a ...
		declare(AdSide, fmt.Sprintf("ad-%03d", a))
	}
	for a := 0; a < wide; a++ {
		declare(AdSide, fmt.Sprintf("wide-ad-%05d", a))
	}
	s := uint64(29)
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for q := 0; q < queries; q++ { // ... and each query first sees them descending
		for a := ads - 1 - q%7; a >= 0; a -= 1 + q%5 {
			add(fmt.Sprintf("query-%03d", q), fmt.Sprintf("ad-%03d", a), EdgeWeights{ExpectedClickRate: float64(next(1000)) / 999})
		}
		if q%3 == 0 { // a query before its first edge, and one long known
			declare(QuerySide, fmt.Sprintf("query-%03d", q+1))
			declare(QuerySide, fmt.Sprintf("query-%03d", q/2))
		}
	}
	event := func(e int) {
		w := EdgeWeights{ExpectedClickRate: float64(next(1000)) / 999}
		if next(4) > 0 {
			w.Clicks = int64(next(20))
			w.Impressions = w.Clicks + int64(next(40))
		}
		add(fmt.Sprintf("query-%03d", next(queries)), fmt.Sprintf("ad-%03d", next(ads)), w)
		if e%97 == 0 { // nodes with no edge, arriving between the edges
			declare(QuerySide, fmt.Sprintf("lone query %d", e))
			declare(AdSide, fmt.Sprintf("lone ad %d", e))
		}
	}
	for e := 0; e < events/2; e++ {
		event(e)
	}
	first, firstRef := b.Build(), ref.clone()
	firstRef.matches(t, first)
	for e := events / 2; e < events; e++ {
		event(e)
	}
	start := time.Now()
	for a := wide - 1; a >= 0; a-- {
		add("wide query", fmt.Sprintf("wide-ad-%05d", a), EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: 1 / 3.0})
	}
	g := b.Build()
	t.Logf("a %d-ad row added in descending order and built in %v", wide, time.Since(start))
	ref.matches(t, g)
	firstRef.matches(t, first)
	if ref.merges < events/3 || ref.plainMeans < 100 {
		t.Errorf("%d merges, %d of them plain means: the log no longer exercises them", ref.merges, ref.plainMeans)
	}
}
