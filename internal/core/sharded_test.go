package core

import (
	"fmt"
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// multiComponentGraph builds count disjoint pseudo-random clusters.
func multiComponentGraph(seed uint64, count, nq, na, edges int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for c := 0; c < count; c++ {
		addRandomCluster(b, fmt.Sprintf("t%d-", c), seed+uint64(c)*7919, nq, na, edges)
	}
	return b.Build()
}

// requireTablesBitIdentical fails unless both pair frontiers hold exactly
// the same pairs with exactly equal (==, not almost-equal) values.
func requireTablesBitIdentical(t *testing.T, label string, want, got *sparse.PairFrontier) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: pair counts differ: want %d, got %d", label, want.Len(), got.Len())
	}
	want.Range(func(i, j int, v float64) bool {
		gv, ok := got.Get(i, j)
		if !ok {
			t.Fatalf("%s: pair (%d,%d) missing", label, i, j)
		}
		if gv != v {
			t.Fatalf("%s: pair (%d,%d) = %v, want %v (bit-identical)", label, i, j, gv, v)
		}
		return true
	})
}

// TestShardedExactBitIdentical pins the acceptance criterion: on a
// component-exact plan (per-component, packed, and the one shard of
// partition.WholePlan that simrank -save runs unsharded), RunSharded
// reproduces the monolithic engines bit for bit at a fixed iteration
// count, across variants × strict evidence × pruning, stitched from
// serial and pooled shard schedules.
func TestShardedExactBitIdentical(t *testing.T) {
	g := multiComponentGraph(11, 5, 14, 10, 45)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = 60 // packs the 5 components into fewer shards
	packed, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if !packed.Exact {
		t.Fatalf("packed plan should be exact for disjoint small components")
	}
	plans := map[string]*partition.Plan{
		"per-component": partition.ComponentPlan(g),
		"packed":        packed,
		"whole":         partition.WholePlan(g),
	}
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		for _, strict := range []bool{false, true} {
			for _, prune := range []float64{0, 1e-4} {
				cfg := DefaultConfig().WithVariant(variant)
				cfg.Channel = ChannelClicks
				cfg.StrictEvidence = strict
				cfg.PruneEpsilon = prune
				mono := mustRun(t, g, cfg)
				monoPar, err := runEngine(g, cfg, 4, nil, nil)
				if err != nil {
					t.Fatalf("runEngine: %v", err)
				}
				for planName, plan := range plans {
					for _, workers := range []int{1, 3} {
						label := fmt.Sprintf("%v/strict=%v/prune=%g/%s/workers=%d",
							variant, strict, prune, planName, workers)
						sharded, err := RunSharded(g, cfg, plan, ShardOptions{Workers: workers})
						if err != nil {
							t.Fatalf("%s: RunSharded: %v", label, err)
						}
						requireTablesBitIdentical(t, label+"/queries", mono.QueryScores, sharded.QueryScores)
						requireTablesBitIdentical(t, label+"/ads", mono.AdScores, sharded.AdScores)
						requireTablesBitIdentical(t, label+"/queries-vs-parallel", monoPar.QueryScores, sharded.QueryScores)
						if sharded.Iterations != mono.Iterations {
							t.Errorf("%s: iterations %d, want %d", label, sharded.Iterations, mono.Iterations)
						}
					}
				}
			}
		}
	}
}

// TestShardedACLPlanWithinTolerance pins the approximation story: on a
// two-cluster fixture whose clusters are joined by weak bridge edges, an
// ACL-cut plan loses only the bridges' evidence, so stitched scores stay
// within a small tolerance of the monolithic run.
func TestShardedACLPlanWithinTolerance(t *testing.T) {
	b := clickgraph.NewBuilder()
	add := func(q, a string, rate float64) {
		if err := b.AddEdge(q, a, clickgraph.EdgeWeights{Impressions: 4, Clicks: 2, ExpectedClickRate: rate}); err != nil {
			t.Fatal(err)
		}
	}
	// Complete bipartite clusters: every internal cut severs many strong
	// edges, so the only low-conductance sweep cut is at the bridge.
	const nq, na = 16, 10
	for c := 0; c < 2; c++ {
		for q := 0; q < nq; q++ {
			for a := 0; a < na; a++ {
				add(fmt.Sprintf("b%d-q%d", c, q), fmt.Sprintf("b%d-ad%d", c, a), 0.5)
			}
		}
	}
	// Two weak bridges make it one component.
	add("b0-q0", "b1-ad0", 0.01)
	add("b0-q1", "b1-ad1", 0.01)
	g := b.Build()

	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = 40 // each half is 26 nodes; the whole is 52
	pcfg.MinCutNodes = 10
	plan, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if plan.Exact || plan.TotalCutEdges == 0 {
		t.Fatalf("fixture should force an approximate plan with cut edges, got exact=%v cut=%d",
			plan.Exact, plan.TotalCutEdges)
	}

	cfg := DefaultConfig().WithVariant(Weighted)
	mono := mustRun(t, g, cfg)
	sharded, err := RunSharded(g, cfg, plan, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	// The documented tolerance: dropping the weak bridges' evidence moves
	// no within-cluster pair by more than ~the bridge weight share. 0.05
	// is generous headroom for this fixture; the point is it is small,
	// while scores themselves reach ~0.4.
	const tolACL = 0.05
	maxDiff := 0.0
	check := func(wantT, gotT *sparse.PairFrontier) {
		wantT.Range(func(i, j int, v float64) bool {
			gv, _ := gotT.Get(i, j)
			if d := math.Abs(gv - v); d > maxDiff {
				maxDiff = d
			}
			return true
		})
	}
	check(mono.QueryScores, sharded.QueryScores)
	check(sharded.QueryScores, mono.QueryScores)
	check(mono.AdScores, sharded.AdScores)
	check(sharded.AdScores, mono.AdScores)
	if maxDiff > tolACL {
		t.Errorf("ACL-cut scores drift %v from monolithic, tolerance %v", maxDiff, tolACL)
	}
	if maxDiff == 0 {
		t.Error("expected some drift from dropped bridge evidence; fixture may be broken")
	}
}

func TestShardedStitchedResultServes(t *testing.T) {
	g := multiComponentGraph(23, 4, 12, 9, 40)
	plan := partition.ComponentPlan(g)
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = ChannelClicks
	mono := mustRun(t, g, cfg)
	sharded, err := RunSharded(g, cfg, plan, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	// TopRewrites must serve from the stitched table exactly as from the
	// monolithic one (the partner index builds on first use).
	for q := 0; q < g.NumQueries(); q++ {
		want := mono.TopRewrites(q, 5)
		got := sharded.TopRewrites(q, 5)
		if len(want) != len(got) {
			t.Fatalf("q%d: TopRewrites lengths %d vs %d", q, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("q%d rank %d: %+v vs %+v", q, i, got[i], want[i])
			}
		}
	}
	// Shard and iteration metadata.
	if len(sharded.ShardStats) != len(plan.Shards) {
		t.Fatalf("ShardStats has %d entries, want %d", len(sharded.ShardStats), len(plan.Shards))
	}
	if sharded.Plan != plan {
		t.Errorf("Result.Plan is not the plan the run executed")
	}
	totalE := 0
	side := max(g.NumQueries(), g.NumAds())
	for _, s := range sharded.ShardStats {
		totalE += s.Edges
		if s.SPABytes <= 0 || s.SPABytes > spaBytes(side) {
			t.Errorf("shard SPA bytes %d outside (0, monolithic %d]", s.SPABytes, spaBytes(side))
		}
	}
	if want := g.NumEdges() - plan.TotalCutEdges; totalE != want {
		t.Errorf("shard stats cover %d edges, want %d (every uncut edge once)", totalE, want)
	}
	if len(sharded.IterStats) != sharded.Iterations {
		t.Errorf("merged IterStats has %d entries, want %d", len(sharded.IterStats), sharded.Iterations)
	}
	if sharded.IterStats[0].QueryRows != g.NumQueries() {
		t.Errorf("iteration 1 covers %d query rows, want %d", sharded.IterStats[0].QueryRows, g.NumQueries())
	}
}

func TestShardedValidation(t *testing.T) {
	g := multiComponentGraph(31, 3, 10, 8, 30)
	cfg := DefaultConfig()
	if _, err := RunSharded(g, cfg, nil, ShardOptions{}); err == nil {
		t.Error("accepted nil plan")
	}
	bad := partition.ComponentPlan(g)
	bad.Shards[0].Queries = bad.Shards[0].Queries[1:]
	if _, err := RunSharded(g, cfg, bad, ShardOptions{}); err == nil {
		t.Error("accepted non-covering plan")
	}
	badCfg := cfg
	badCfg.C1 = 0
	if _, err := RunSharded(g, badCfg, partition.ComponentPlan(g), ShardOptions{}); err == nil {
		t.Error("accepted invalid config")
	}
}

// TestShardedConvergesPerShard documents the Tolerance semantics: every
// shard stops at its own convergence and the stitched result reports
// whether all of them did.
func TestShardedConvergesPerShard(t *testing.T) {
	g := multiComponentGraph(41, 3, 10, 8, 30)
	cfg := DefaultConfig()
	cfg.Iterations = 300
	cfg.Tolerance = 1e-9
	sharded, err := RunSharded(g, cfg, partition.ComponentPlan(g), ShardOptions{Workers: 2})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	if !sharded.Converged {
		t.Error("all shards should converge at 1e-9 within 300 iterations")
	}
	for i, s := range sharded.ShardStats {
		if !s.Converged && len(sharded.Plan.Shards[i].Queries) > 0 {
			t.Errorf("shard %d did not converge", i)
		}
	}
}

// TestRunShardsSkipsCleanShards pins the dirty-only scheduling contract:
// skipped shards contribute no scores and no engine work, their stats are
// marked, and the Result records the whole plan for the refresh writer.
func TestRunShardsSkipsCleanShards(t *testing.T) {
	g := multiComponentGraph(7, 4, 12, 9, 40)
	plan := partition.ComponentPlan(g)
	if len(plan.Shards) < 2 {
		t.Fatalf("fixture needs ≥ 2 shards, got %d", len(plan.Shards))
	}
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = ChannelClicks

	mask := make([]bool, len(plan.Shards))
	mask[0] = true // run only shard 0
	res, err := RunSharded(g, cfg, plan, ShardOptions{RunShards: mask})
	if err != nil {
		t.Fatalf("RunSharded: %v", err)
	}
	full, err := RunSharded(g, cfg, plan, ShardOptions{})
	if err != nil {
		t.Fatalf("full RunSharded: %v", err)
	}

	inShard0 := make(map[int]bool)
	for _, q := range plan.Shards[0].Queries {
		inShard0[q] = true
	}
	res.QueryScores.Range(func(i, j int, v float64) bool {
		if !inShard0[i] || !inShard0[j] {
			t.Fatalf("partial run scored pair (%d,%d) outside the run shard", i, j)
		}
		fv, _ := full.QueryScores.Get(i, j)
		if fv != v {
			t.Fatalf("partial run pair (%d,%d) = %v, full run %v", i, j, v, fv)
		}
		return true
	})
	for i, st := range res.ShardStats {
		if (i == 0) == st.Skipped {
			t.Errorf("shard %d Skipped = %v, want %v", i, st.Skipped, i != 0)
		}
		if st.Skipped != (st.Edges == 0) {
			t.Errorf("shard %d: Skipped = %v with %d edges", i, st.Skipped, st.Edges)
		}
	}
	if res.Plan != plan {
		t.Errorf("Result.Plan is not the plan the run executed")
	}
	for _, q := range plan.Shards[1].Queries {
		if cols, _ := res.QueryScores.Row(q); len(cols) != 0 {
			t.Errorf("skipped shard 1 left stitched query row %d with %d pairs", q, len(cols))
		}
	}
	if res.QueryScores.Len() == 0 || res.AdScores.Len() == 0 {
		t.Errorf("run shard 0 scored %d query and %d ad pairs, want both > 0", res.QueryScores.Len(), res.AdScores.Len())
	}
}
