package partition

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"simrankpp/internal/clickgraph"
)

// clusteredGraph builds count disjoint pseudo-random clusters of nq
// queries × na ads with edges edges each.
func clusteredGraph(seed uint64, count, nq, na, edges int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for c := 0; c < count; c++ {
		for i := 0; i < nq; i++ {
			b.AddQuery(fmt.Sprintf("c%d-q%d", c, i))
		}
		for e := 0; e < edges; e++ {
			err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, next(nq)), fmt.Sprintf("c%d-ad%d", c, next(na)),
				clickgraph.EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: 0.3})
			if err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

func TestComponentPlanExactAndCovering(t *testing.T) {
	g := clusteredGraph(1, 5, 10, 8, 30)
	p := ComponentPlan(g)
	if !p.Exact {
		t.Error("component plan must be exact")
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := clickgraph.ComputeStats(g)
	if len(p.Shards) != st.Components {
		t.Errorf("shards = %d, want one per component (%d)", len(p.Shards), st.Components)
	}
	if p.TotalCutEdges != 0 {
		t.Errorf("component plan has %d cut edges, want 0", p.TotalCutEdges)
	}
}

func TestBuildPlanPacksSmallComponents(t *testing.T) {
	g := clusteredGraph(2, 6, 12, 9, 40)
	cfg := DefaultPlanConfig()
	cfg.MaxShardNodes = 50 // each cluster is ≤ 21 nodes: 2+ per shard
	p, err := BuildPlan(g, cfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !p.Exact || p.TotalCutEdges != 0 {
		t.Errorf("packed plan should be exact with 0 cut edges, got exact=%v cut=%d", p.Exact, p.TotalCutEdges)
	}
	st := clickgraph.ComputeStats(g)
	if len(p.Shards) >= st.Components {
		t.Errorf("packing produced %d shards from %d components; expected fewer", len(p.Shards), st.Components)
	}
	for i := range p.Shards {
		if n := p.Shards[i].Nodes(); n > cfg.MaxShardNodes {
			t.Errorf("packed shard %d has %d nodes, budget %d", i, n, cfg.MaxShardNodes)
		}
		if !p.Shards[i].Exact {
			t.Errorf("packed shard %d not exact", i)
		}
	}
}

// bridgedGraph builds two dense clusters joined by a handful of weak
// bridge edges: one connected component that a good sweep cut splits at
// the bridge.
func bridgedGraph(nq, na int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	add := func(cluster int, q, a int) {
		err := b.AddEdge(fmt.Sprintf("b%d-q%d", cluster, q), fmt.Sprintf("b%d-ad%d", cluster, a),
			clickgraph.EdgeWeights{Impressions: 4, Clicks: 2, ExpectedClickRate: 0.5})
		if err != nil {
			panic(err)
		}
	}
	for c := 0; c < 2; c++ {
		for q := 0; q < nq; q++ {
			// Consecutive ad offsets keep each cluster one connected piece.
			for k := 0; k < 4; k++ {
				add(c, q, (q+k)%na)
			}
		}
	}
	// Two bridge edges between the clusters.
	for k := 0; k < 2; k++ {
		err := b.AddEdge(fmt.Sprintf("b0-q%d", k), fmt.Sprintf("b1-ad%d", k),
			clickgraph.EdgeWeights{Impressions: 1, Clicks: 0, ExpectedClickRate: 0.01})
		if err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestBuildPlanCarvesOversizedComponent(t *testing.T) {
	g := bridgedGraph(40, 30)
	st := clickgraph.ComputeStats(g)
	if st.Components != 1 {
		t.Fatalf("fixture should be one component, got %d", st.Components)
	}
	cfg := DefaultPlanConfig()
	cfg.MaxShardNodes = 90 // each half is 70 nodes; the whole is 140
	cfg.MinCutNodes = 20
	p, err := BuildPlan(g, cfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Shards) < 2 {
		t.Fatalf("expected the component carved into >= 2 shards, got %d", len(p.Shards))
	}
	if p.Exact {
		t.Error("carved plan must not claim exactness")
	}
	if p.TotalCutEdges == 0 {
		t.Error("carved plan must report its cut edges")
	}
	cutSum := 0
	for i := range p.Shards {
		cutSum += p.Shards[i].CutEdges
	}
	if cutSum != 2*p.TotalCutEdges {
		t.Errorf("per-shard cut edges sum %d, want 2×total (%d)", cutSum, 2*p.TotalCutEdges)
	}
}

// TestBuildPlanSameAtEveryWidth: the oversized components are carved on a
// GOMAXPROCS-bounded pool, and the plan must not show it. Ten clusters
// above the budget (more than any width below, so carves queue) among
// packable ones are planned at widths 1, 2, 4 and the width the test was
// started at (CI runs it at -cpu 1,2,4, and under -race); every plan has to
// be the width-1 plan: same shards in the same order, same fingerprint.
func TestBuildPlanSameAtEveryWidth(t *testing.T) {
	b := clickgraph.NewBuilder()
	s := uint64(5)
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for c := 0; c < 30; c++ {
		nq, na, edges := 12, 9, 40
		if c%3 == 0 {
			nq, na, edges = 90, 70, 700 // one component of ≈160 nodes
		}
		for e := 0; e < edges; e++ {
			err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, next(nq)), fmt.Sprintf("c%d-ad%d", c, next(na)),
				clickgraph.EdgeWeights{Impressions: 3, Clicks: 1, ExpectedClickRate: 0.3})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	cfg := DefaultPlanConfig()
	cfg.MaxShardNodes, cfg.MinCutNodes = 60, 15

	started := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(started)
	var want *Plan
	for _, width := range []int{1, 2, 4, started} {
		runtime.GOMAXPROCS(width)
		p, err := BuildPlan(g, cfg)
		if err != nil {
			t.Fatalf("width %d: BuildPlan: %v", width, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("width %d: Validate: %v", width, err)
		}
		if want == nil {
			want = p
			carved := 0
			for i := range p.Shards {
				if !p.Shards[i].Exact {
					carved++
				}
			}
			if carved < 2*10 {
				t.Fatalf("%d carved shards of %d: the fixture should carve each of its ten large clusters", carved, len(p.Shards))
			}
			continue
		}
		if p.Fingerprint() != want.Fingerprint() {
			t.Errorf("width %d: plan fingerprint %016x, width 1 gave %016x", width, p.Fingerprint(), want.Fingerprint())
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("width %d: plan differs from the width-1 plan (%d shards vs %d)", width, len(p.Shards), len(want.Shards))
		}
	}
}

func TestPlanValidateRejectsMismatch(t *testing.T) {
	g := clusteredGraph(3, 2, 8, 6, 20)
	other := clusteredGraph(4, 2, 9, 6, 20)
	p := ComponentPlan(g)
	if err := p.Validate(other); err == nil {
		t.Error("accepted plan for a different graph")
	}
	// Drop a node: coverage must fail.
	p2 := ComponentPlan(g)
	p2.Shards[0].Queries = p2.Shards[0].Queries[1:]
	if err := p2.Validate(g); err == nil {
		t.Error("accepted plan missing a query")
	}
	// Duplicate a node across shards.
	p3 := ComponentPlan(g)
	if len(p3.Shards) >= 2 {
		p3.Shards[1].Queries = append([]int{p3.Shards[0].Queries[0]}, p3.Shards[1].Queries...)
		if err := p3.Validate(g); err == nil {
			t.Error("accepted plan with an overlapping query")
		}
	}
	// Same ids, same coverage, one shard's ads descending at one step:
	// the snapshot writer walks a shard's ids as its segment's row order.
	p4 := ComponentPlan(g)
	ads := p4.Shards[0].Ads
	if len(ads) < 2 {
		t.Fatalf("fixture's shard 0 has %d ads, need 2", len(ads))
	}
	ads[0], ads[1] = ads[1], ads[0]
	if err := p4.Validate(g); err == nil || !strings.Contains(err.Error(), "not ascending") {
		t.Errorf("Validate(descending ad ids) = %v, want a not-ascending error", err)
	}
}

func TestPlanWriteSummary(t *testing.T) {
	g := bridgedGraph(30, 20)
	cfg := DefaultPlanConfig()
	cfg.MaxShardNodes = 60
	cfg.MinCutNodes = 15
	p, err := BuildPlan(g, cfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	var sb strings.Builder
	if err := p.WriteSummary(&sb); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"shard", "cut-edges", "conductance", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "approximate") {
		t.Errorf("carved plan summary should say approximate:\n%s", out)
	}
}
