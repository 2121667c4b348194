package partition

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"simrankpp/internal/clickgraph"
)

// planAssignment adapts a previous graph and its plan to PrevAssignment:
// the in-memory stand-in for a previous snapshot.
type planAssignment struct {
	g      *clickgraph.Graph
	plan   *Plan
	qShard []int32
	aShard []int32
}

// newPlanAssignment indexes plan (built for g) for diffing.
func newPlanAssignment(g *clickgraph.Graph, p *Plan) *planAssignment {
	q, a := p.shardIndex()
	return &planAssignment{g: g, plan: p, qShard: q, aShard: a}
}

// NumShards implements PrevAssignment.
func (pa *planAssignment) NumShards() int { return len(pa.plan.Shards) }

// ShardFingerprint implements PrevAssignment.
func (pa *planAssignment) ShardFingerprint(i int) uint64 { return pa.plan.Shards[i].Fingerprint }

// PrevQuery implements PrevAssignment.
func (pa *planAssignment) PrevQuery(name string) (int, int, bool) {
	id, ok := pa.g.QueryID(name)
	if !ok || pa.qShard[id] < 0 {
		return 0, 0, false
	}
	return id, int(pa.qShard[id]), true
}

// PrevAd implements PrevAssignment.
func (pa *planAssignment) PrevAd(name string) (int, int, bool) {
	id, ok := pa.g.AdID(name)
	if !ok || pa.aShard[id] < 0 {
		return 0, 0, false
	}
	return id, int(pa.aShard[id]), true
}

// diffFixture builds the base two-cluster graph the delta tests mutate:
// per cluster c, queries c?-q0,c?-q1 and ads c?-ad0,c?-ad1 with the three
// edges q0–ad0, q0–ad1, q1–ad0 (q1–ad1 deliberately absent so a test can
// add an edge between existing nodes). edits mutates the builder before
// compiling.
func diffFixture(t *testing.T, edits func(b *clickgraph.Builder)) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	addBase := func(b *clickgraph.Builder) {
		for c := 0; c < 2; c++ {
			for _, qa := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
				err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, qa[0]), fmt.Sprintf("c%d-ad%d", c, qa[1]),
					clickgraph.EdgeWeights{Impressions: 10, Clicks: 2, ExpectedClickRate: 0.2})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	addBase(b)
	if edits != nil {
		edits(b)
	}
	return b.Build()
}

// diffAgainstBase plans the base fixture and diffs the edited graph
// against it.
func diffAgainstBase(t *testing.T, edits func(b *clickgraph.Builder)) (*Diff, *Plan) {
	t.Helper()
	base := diffFixture(t, nil)
	plan := ComponentPlan(base) // two shards, one per cluster
	if len(plan.Shards) != 2 {
		t.Fatalf("fixture plan has %d shards, want 2", len(plan.Shards))
	}
	d, err := DiffPlans(newPlanAssignment(base, plan), diffFixture(t, edits))
	if err != nil {
		t.Fatalf("DiffPlans: %v", err)
	}
	return d, plan
}

func wantDirty(t *testing.T, d *Diff, want []bool) {
	t.Helper()
	if !reflect.DeepEqual(d.Dirty, want) {
		t.Errorf("Dirty = %v, want %v", d.Dirty, want)
	}
	dirty := 0
	for _, b := range d.Dirty {
		if b {
			dirty++
		}
	}
	if d.DirtyShards != dirty || d.CleanShards != len(d.Dirty)-dirty {
		t.Errorf("counts %d dirty / %d clean inconsistent with mask %v", d.DirtyShards, d.CleanShards, d.Dirty)
	}
}

func TestDiffIdenticalGraphAllClean(t *testing.T) {
	d, plan := diffAgainstBase(t, nil)
	wantDirty(t, d, []bool{false, false})
	if d.NewQueries+d.NewAds+d.MovedQueries+d.MovedAds != 0 {
		t.Errorf("identical graph reported new/moved nodes: %+v", d)
	}
	for i := range plan.Shards {
		if d.Plan.Shards[i].Fingerprint != plan.Shards[i].Fingerprint {
			t.Errorf("shard %d fingerprint changed on identical graph", i)
		}
		if !reflect.DeepEqual(d.Plan.Shards[i].Queries, plan.Shards[i].Queries) {
			t.Errorf("shard %d query ids changed on identical graph", i)
		}
	}
}

func TestDiffEdgeAddDirtiesOneShard(t *testing.T) {
	d, _ := diffAgainstBase(t, func(b *clickgraph.Builder) {
		// The q1–ad1 edge is absent from the base, so this is a pure edge
		// addition between existing cluster-1 nodes.
		if err := b.AddClick("c1-q1", "c1-ad1", 0.5); err != nil {
			t.Fatal(err)
		}
	})
	// Cluster 1 is shard 1 (clusters are interned in order and equal-sized,
	// components come back size-sorted stable).
	wantDirty(t, d, []bool{false, true})
}

func TestDiffWeightChangeDirtiesOneShard(t *testing.T) {
	d, _ := diffAgainstBase(t, func(b *clickgraph.Builder) {
		// Merging another observation shifts clicks/impressions/rate of an
		// existing cluster-0 edge.
		err := b.AddEdge("c0-q0", "c0-ad0", clickgraph.EdgeWeights{Impressions: 5, Clicks: 5, ExpectedClickRate: 1})
		if err != nil {
			t.Fatal(err)
		}
	})
	wantDirty(t, d, []bool{true, false})
}

func TestDiffEdgeRemovalSplittingComponent(t *testing.T) {
	// Rebuild without c1-q1's single edge, splitting the now-isolated
	// c1-q1 off its component — the shard keeps both halves of the split
	// and is dirty; cluster 0 is untouched.
	base := diffFixture(t, nil)
	plan := ComponentPlan(base)
	b := clickgraph.NewBuilder()
	base.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		if base.Query(q) != "c1-q1" {
			if err := b.AddEdge(base.Query(q), base.Ad(a), w); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	b.AddQuery("c1-q1") // node survives, isolated
	got := b.Build()
	d, err := DiffPlans(newPlanAssignment(base, plan), got)
	if err != nil {
		t.Fatalf("DiffPlans: %v", err)
	}
	wantDirty(t, d, []bool{false, true})
	if err := d.Plan.Validate(got); err != nil {
		t.Fatalf("projected plan invalid: %v", err)
	}
}

func TestDiffNewNodeJoinsNeighborShard(t *testing.T) {
	d, _ := diffAgainstBase(t, func(b *clickgraph.Builder) {
		// A chain of two new nodes hanging off cluster 0: the new ad
		// attaches through the new query, exercising the breadth-first
		// adoption.
		if err := b.AddClick("c0-qnew", "c0-ad1", 0.4); err != nil {
			t.Fatal(err)
		}
		if err := b.AddClick("c0-qnew", "c0-adnew", 0.4); err != nil {
			t.Fatal(err)
		}
	})
	wantDirty(t, d, []bool{true, false})
	if d.NewQueries != 1 || d.NewAds != 1 {
		t.Errorf("new nodes = %d queries %d ads, want 1/1", d.NewQueries, d.NewAds)
	}
	if len(d.Plan.Shards) != 2 {
		t.Fatalf("no appended shard expected, got %d shards", len(d.Plan.Shards))
	}
	if n := d.Plan.Shards[0].Nodes(); n != 6 {
		t.Errorf("shard 0 has %d nodes after adoption, want 6", n)
	}
}

func TestDiffWhollyNewComponentAppendsShard(t *testing.T) {
	d, _ := diffAgainstBase(t, func(b *clickgraph.Builder) {
		if err := b.AddClick("island-q", "island-ad", 0.9); err != nil {
			t.Fatal(err)
		}
	})
	wantDirty(t, d, []bool{false, false, true})
	if d.PrevShards != 2 || len(d.Plan.Shards) != 3 {
		t.Fatalf("appended shard missing: prev=%d now=%d", d.PrevShards, len(d.Plan.Shards))
	}
	s := &d.Plan.Shards[2]
	if !s.Exact || s.Nodes() != 2 {
		t.Errorf("appended shard = %d nodes exact=%v, want the 2-node island, exact", s.Nodes(), s.Exact)
	}
}

func TestDiffMovedIDsDirtyTheirShards(t *testing.T) {
	// Same topology, but cluster 1 interned before cluster 0: every node's
	// id moves, so both shards are dirty even though names and edges match.
	base := diffFixture(t, nil)
	plan := ComponentPlan(base)
	b := clickgraph.NewBuilder()
	for _, c := range []int{1, 0} {
		for _, qa := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
			err := b.AddEdge(fmt.Sprintf("c%d-q%d", c, qa[0]), fmt.Sprintf("c%d-ad%d", c, qa[1]),
				clickgraph.EdgeWeights{Impressions: 10, Clicks: 2, ExpectedClickRate: 0.2})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	got := b.Build()
	d, err := DiffPlans(newPlanAssignment(base, plan), got)
	if err != nil {
		t.Fatalf("DiffPlans: %v", err)
	}
	wantDirty(t, d, []bool{true, true})
	if d.MovedQueries == 0 || d.MovedAds == 0 {
		t.Errorf("expected moved nodes, got %+v", d)
	}
}

func TestGraphFingerprintSensitivity(t *testing.T) {
	base := diffFixture(t, nil)
	if got := GraphFingerprint(diffFixture(t, nil)); got != GraphFingerprint(base) {
		t.Error("fingerprint not deterministic across rebuilds")
	}
	// WholePlan's one shard covers the graph under identity ids, so the
	// shard a monolithic snapshot records carries the graph's fingerprint.
	whole := WholePlan(base)
	if err := whole.Validate(base); err != nil || !whole.Exact || whole.Fingerprint() != GraphFingerprint(base) {
		t.Errorf("WholePlan: validate %v, exact %v, fingerprint %016x, want the graph's %016x",
			err, whole.Exact, whole.Fingerprint(), GraphFingerprint(base))
	}
	variants := map[string]func(b *clickgraph.Builder){
		"edge add": func(b *clickgraph.Builder) { _ = b.AddClick("c0-q0", "c1-ad2", 0.1) },
		"weight change": func(b *clickgraph.Builder) {
			_ = b.AddEdge("c0-q0", "c0-ad0", clickgraph.EdgeWeights{Impressions: 1, Clicks: 1, ExpectedClickRate: 0.9})
		},
		"node add": func(b *clickgraph.Builder) { b.AddQuery("extra") },
	}
	for name, edit := range variants {
		if GraphFingerprint(diffFixture(t, edit)) == GraphFingerprint(base) {
			t.Errorf("%s did not change the fingerprint", name)
		}
	}
}

// TestEdgeCountsExactPast2To53: impressions and clicks are int64 from the
// builder to the fingerprint. A float64 column rounds 1<<53 + 1 to 1<<53,
// so the two graphs below read back, save and fingerprint the same.
func TestEdgeCountsExactPast2To53(t *testing.T) {
	build := func(n int64) *clickgraph.Graph {
		b := clickgraph.NewBuilder()
		for _, qa := range [][2]string{{"q0", "ad0"}, {"q0", "ad1"}, {"q1", "ad1"}} {
			w := clickgraph.EdgeWeights{Impressions: n, Clicks: n, ExpectedClickRate: 0.5}
			if err := b.AddEdge(qa[0], qa[1], w); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	const big = 1<<53 + 1
	g := build(big)
	view, err := clickgraph.NewSubview(g, []int{0, 1}, []int{1}, clickgraph.AdTable(g, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := clickgraph.Write(&text, g); err != nil {
		t.Fatal(err)
	}
	reread, err := clickgraph.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*clickgraph.Graph{"Build": g, "NewSubview": view.Graph, "Write+Read": reread} {
		if w, ok := got.EdgeWeightsOf(1, got.NumAds()-1); !ok || w.Impressions != big || w.Clicks != big {
			t.Errorf("%s: EdgeWeightsOf = %+v, %v; want both counts %d", name, w, ok, int64(big))
		}
		got.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
			if w.Impressions != big || w.Clicks != big {
				t.Errorf("%s: Edges (%d,%d) = %+v, want both counts %d", name, q, a, w, int64(big))
			}
			return true
		})
	}
	if GraphFingerprint(g) == GraphFingerprint(build(1<<53)) {
		t.Error("graphs whose counts differ by one past 2^53 fingerprint the same")
	}
}

// TestReannotateRefreshesFingerprints pins the stale-plan hazard: a plan
// applied to a graph whose edges drifted (node coverage unchanged, so
// Validate passes) must have Reannotate re-derive its fingerprints from
// that graph — a snapshot persisting the stored ones would otherwise
// carry another generation's change-detection state.
func TestReannotateRefreshesFingerprints(t *testing.T) {
	base := diffFixture(t, nil)
	plan := ComponentPlan(base)
	orig := []uint64{plan.Shards[0].Fingerprint, plan.Shards[1].Fingerprint}

	changed := diffFixture(t, func(b *clickgraph.Builder) {
		err := b.AddEdge("c0-q0", "c0-ad0", clickgraph.EdgeWeights{Impressions: 5, Clicks: 5, ExpectedClickRate: 1})
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := plan.Validate(changed); err != nil {
		t.Fatalf("fixture: weight-only drift should still validate: %v", err)
	}
	plan.Reannotate(changed)
	if plan.Shards[0].Fingerprint == orig[0] {
		t.Error("cluster-0 fingerprint not re-derived from the drifted graph")
	}
	if plan.Shards[1].Fingerprint != orig[1] {
		t.Error("untouched cluster-1 fingerprint changed under Reannotate")
	}
}
