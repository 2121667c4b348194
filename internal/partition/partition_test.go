package partition

import (
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
)

// twoClusters builds a graph with two dense bipartite clusters joined by
// a single bridge edge — the canonical low-conductance structure ACL
// should separate.
func twoClusters(t *testing.T) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	add := func(q, a string) {
		t.Helper()
		if err := b.AddClick(q, a, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			add("left-q"+string(rune('0'+i)), "left-a"+string(rune('0'+j)))
			add("right-q"+string(rune('0'+i)), "right-a"+string(rune('0'+j)))
		}
	}
	add("left-q0", "right-a0") // bridge
	return b.Build()
}

func TestPPRValidation(t *testing.T) {
	g := twoClusters(t)
	if _, err := ApproximatePageRank(g, 0, PPRConfig{Alpha: 0, Epsilon: 1e-6}); err == nil {
		t.Error("accepted alpha=0")
	}
	if _, err := ApproximatePageRank(g, 0, PPRConfig{Alpha: 0.15, Epsilon: 0}); err == nil {
		t.Error("accepted epsilon=0")
	}
	if _, err := ApproximatePageRank(g, -1, DefaultPPRConfig()); err == nil {
		t.Error("accepted negative seed")
	}
	if _, err := ApproximatePageRank(g, NodeID(g.NumQueries()+g.NumAds()), DefaultPPRConfig()); err == nil {
		t.Error("accepted seed beyond node space")
	}
}

func TestPPRMassConservation(t *testing.T) {
	g := twoClusters(t)
	seed, _ := g.QueryID("left-q1")
	p, err := ApproximatePageRank(g, QueryNode(seed), DefaultPPRConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Settled mass must be positive and at most 1.
	total := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative PPR mass %v", v)
		}
		total += v
	}
	if total <= 0 || total > 1+1e-9 {
		t.Errorf("total settled mass = %v, want in (0, 1]", total)
	}
	// The seed's own cluster must hold most of the mass.
	left := 0.0
	for u, v := range p {
		side, id := Split(g, u)
		var name string
		if side == clickgraph.QuerySide {
			name = g.Query(id)
		} else {
			name = g.Ad(id)
		}
		if len(name) >= 4 && name[:4] == "left" {
			left += v
		}
	}
	if left < total*0.8 {
		t.Errorf("left cluster mass %v of %v; PPR should stay local", left, total)
	}
}

func TestSweepCutFindsBridge(t *testing.T) {
	g := twoClusters(t)
	seed, _ := g.QueryID("left-q1")
	cluster, phi, err := Cluster(g, QueryNode(seed), DefaultPPRConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster) == 0 {
		t.Fatal("empty cluster")
	}
	// The best cut should isolate (a subset of) the left cluster at low
	// conductance: exactly the 8 left nodes cut only the bridge.
	if phi > 0.1 {
		t.Errorf("conductance %v, want <= 0.1 (single bridge edge)", phi)
	}
	for u := range cluster {
		side, id := Split(g, u)
		var name string
		if side == clickgraph.QuerySide {
			name = g.Query(id)
		} else {
			name = g.Ad(id)
		}
		if len(name) < 4 || name[:4] != "left" {
			t.Errorf("cluster crossed the bridge: contains %s", name)
		}
	}
}

func TestConductanceDefinition(t *testing.T) {
	g := twoClusters(t)
	// The left half: 4 queries + 4 ads, volume 4*4*2+1, cut 1.
	s := map[NodeID]bool{}
	for i := 0; i < 4; i++ {
		q, _ := g.QueryID("left-q" + string(rune('0'+i)))
		a, _ := g.AdID("left-a" + string(rune('0'+i)))
		s[QueryNode(q)] = true
		s[AdNode(g, a)] = true
	}
	phi := Conductance(g, s)
	want := 1.0 / 33.0 // cut=1, vol(left)=16*2+1=33, vol(right)=33 equal
	if math.Abs(phi-want) > 1e-12 {
		t.Errorf("conductance = %v want %v", phi, want)
	}
	if Conductance(g, map[NodeID]bool{}) != 1 {
		t.Error("empty set conductance should be 1")
	}
}

func TestExtractDisjointCover(t *testing.T) {
	g := twoClusters(t)
	subs, err := Extract(g, 2, DefaultPPRConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("extracted %d subgraphs want 2", len(subs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		for q := 0; q < s.Graph.NumQueries(); q++ {
			name := s.Graph.Query(q)
			if seen[name] {
				t.Errorf("query %s appears in two subgraphs", name)
			}
			seen[name] = true
		}
	}
}

func TestExtractValidation(t *testing.T) {
	g := twoClusters(t)
	if _, err := Extract(g, 0, DefaultPPRConfig(), 1); err == nil {
		t.Error("accepted count=0")
	}
	if _, err := Extract(g, 1, PPRConfig{}, 1); err == nil {
		t.Error("accepted invalid PPR config")
	}
}

func TestSweepCutMinRespectsFloor(t *testing.T) {
	g := twoClusters(t)
	seed, _ := g.QueryID("left-q1")
	p, err := ApproximatePageRank(g, QueryNode(seed), DefaultPPRConfig())
	if err != nil {
		t.Fatal(err)
	}
	cut, _ := SweepCutMin(g, p, 6)
	if len(cut) < 6 {
		t.Errorf("cut size %d below floor 6", len(cut))
	}
}

func TestNodeIDSplitRoundTrip(t *testing.T) {
	g := twoClusters(t)
	for q := 0; q < g.NumQueries(); q++ {
		side, id := Split(g, QueryNode(q))
		if side != clickgraph.QuerySide || id != q {
			t.Fatalf("query %d round trip gave %v/%d", q, side, id)
		}
	}
	for a := 0; a < g.NumAds(); a++ {
		side, id := Split(g, AdNode(g, a))
		if side != clickgraph.AdSide || id != a {
			t.Fatalf("ad %d round trip gave %v/%d", a, side, id)
		}
	}
}

// approximatePageRankMap is ApproximatePageRank as first written, on maps:
// residual, settled mass and queue flags keyed by node. It is the
// reference the array push is held to.
func approximatePageRankMap(g *clickgraph.Graph, seed NodeID, cfg PPRConfig) map[NodeID]float64 {
	p := make(map[NodeID]float64)
	r := map[NodeID]float64{seed: 1}
	queue := []NodeID{seed}
	inQueue := map[NodeID]bool{seed: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		du := degree(g, u)
		ru := r[u]
		if du == 0 {
			p[u] += ru
			r[u] = 0
			continue
		}
		if ru < cfg.Epsilon*float64(du) {
			continue
		}
		p[u] += cfg.Alpha * ru
		share := (1 - cfg.Alpha) * ru / (2 * float64(du))
		r[u] = (1 - cfg.Alpha) * ru / 2
		ids, base := neighbors(g, u)
		for _, id := range ids {
			v := base + NodeID(id)
			r[v] += share
			if !inQueue[v] && r[v] >= cfg.Epsilon*float64(degree(g, v)) {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
		if r[u] >= cfg.Epsilon*float64(du) && !inQueue[u] {
			inQueue[u] = true
			queue = append(queue, u)
		}
	}
	return p
}

// TestPPRMatchesMapReference holds the array push to the map push: the
// same support and every value equal bit for bit, from query and ad
// seeds, isolated ones included, at two epsilons. Every push of a graph
// reuses one scratch, as a carve does, so a push that left its arrays
// dirty would corrupt the next.
func TestPPRMatchesMapReference(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"two":       twoClusters(t),
		"clustered": clusteredGraph(3, 4, 40, 30, 160), // leaves some queries isolated
	}
	isolated := 0
	for name, g := range graphs {
		n := NodeID(g.NumQueries() + g.NumAds())
		ws := new(pprScratch)
		for _, eps := range []float64{1e-3, 1e-6} {
			cfg := PPRConfig{Alpha: 0.15, Epsilon: eps}
			for seed := NodeID(0); seed < n; seed++ {
				if degree(g, seed) == 0 {
					isolated++
				}
				got, err := ws.push(g, seed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := approximatePageRankMap(g, seed, cfg)
				if len(got) != len(want) {
					t.Fatalf("%s eps=%g seed %d: support %d, map reference %d", name, eps, seed, len(got), len(want))
				}
				for u, v := range want {
					if gv, ok := got[u]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
						t.Fatalf("%s eps=%g seed %d: p(%d) = %v,%v, map reference %v", name, eps, seed, u, gv, ok, v)
					}
				}
			}
		}
	}
	if isolated == 0 {
		t.Fatal("no isolated seed was pushed from")
	}
}
