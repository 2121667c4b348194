package core

import (
	"fmt"
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// churnedGraph rebuilds the multi-component fixture with one cluster
// regenerated under a different seed — the marginal-churn shape a refresh
// sees: most components identical, one rewritten.
func churnedGraph(seed uint64, count, nq, na, edges int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for c := 0; c < count; c++ {
		s := seed + uint64(c)*7919
		if c == count-1 {
			s += 31337 // churn the last cluster
		}
		addRandomCluster(b, fmt.Sprintf("t%d-", c), s, nq, na, edges)
	}
	return b.Build()
}

// maxTableDiff returns the largest |a-b| over the union of both frontiers.
func maxTableDiff(a, b *sparse.PairFrontier) float64 {
	return a.MaxAbsDiffChanged(b, 0, nil)
}

// TestWarmStartWithinToleranceOfCold pins the warm-start exactness
// contract across variants × strict evidence × pruning: seeding a sharded
// run from a previous generation's scores — same graph or a churned one —
// and iterating to the same fixed count stays within tolerance of the
// cold run. The contraction factor C bounds how much of the start's
// offset can survive k iterations, so the pin uses C^k times the largest
// plausible seed error plus slack for the evidence round-trip.
func TestWarmStartWithinToleranceOfCold(t *testing.T) {
	base := multiComponentGraph(11, 5, 14, 10, 45)
	churned := churnedGraph(11, 5, 14, 10, 45)
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		for _, strict := range []bool{false, true} {
			for _, prune := range []float64{0, 1e-4} {
				cfg := DefaultConfig().WithVariant(variant)
				cfg.Channel = ChannelClicks
				cfg.StrictEvidence = strict
				cfg.PruneEpsilon = prune
				cfg.Iterations = 10
				label := fmt.Sprintf("%v/strict=%v/prune=%g", variant, strict, prune)

				warmSrc := mustRun(t, base, cfg)
				for name, g := range map[string]*clickgraph.Graph{"same-graph": base, "churned": churned} {
					plan := partition.ComponentPlan(g)
					cold, err := RunSharded(g, cfg, plan, ShardOptions{Workers: 2})
					if err != nil {
						t.Fatalf("%s/%s: cold RunSharded: %v", label, name, err)
					}
					warm, err := RunSharded(g, cfg, plan, ShardOptions{Workers: 2, WarmStart: warmSrc})
					if err != nil {
						t.Fatalf("%s/%s: warm RunSharded: %v", label, name, err)
					}
					// C^k times a worst-case O(1) seed offset, padded for the
					// pruning threshold (pruned pairs differ by up to eps).
					tol := math.Pow(cfg.C1, float64(cfg.Iterations)) + 10*prune + 1e-9
					if d := maxTableDiff(cold.QueryScores, warm.QueryScores); d > tol {
						t.Errorf("%s/%s: query scores drift %g > %g", label, name, d, tol)
					}
					if d := maxTableDiff(cold.AdScores, warm.AdScores); d > tol {
						t.Errorf("%s/%s: ad scores drift %g > %g", label, name, d, tol)
					}
				}
			}
		}
	}
}

// TestWarmStartConvergesFaster pins the point of warm starting: with a
// convergence tolerance set, a warm-started run on a lightly-churned
// graph stops in fewer iterations than the cold run and skips more rows.
func TestWarmStartConvergesFaster(t *testing.T) {
	base := multiComponentGraph(3, 6, 20, 14, 80)
	churned := churnedGraph(3, 6, 20, 14, 80)
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = ChannelClicks
	cfg.Iterations = 20
	cfg.Tolerance = 1e-6
	warmSrc := mustRun(t, base, cfg)

	plan := partition.ComponentPlan(churned)
	cold, err := RunSharded(churned, cfg, plan, ShardOptions{})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := RunSharded(churned, cfg, plan, ShardOptions{WarmStart: warmSrc})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !warm.Converged {
		t.Fatal("warm run did not converge")
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm run took %d iterations, cold %d: warm start bought nothing",
			warm.Iterations, cold.Iterations)
	}
}

// editedSource is a previous generation whose query-pair listings have been
// tampered with: a pair in edits is served with that score from both of its
// endpoints, or left out of both listings when drop is set.
type editedSource struct {
	*Result
	edits map[[2]int]float64 // keyed (lower id, higher id)
	drop  bool
}

func (s editedSource) TopRewrites(q, k int) []sparse.Scored {
	var out []sparse.Scored
	for _, sc := range s.Result.TopRewrites(q, k) {
		if v, ok := s.edits[[2]int{min(q, sc.Node), max(q, sc.Node)}]; ok {
			if s.drop {
				continue
			}
			sc.Score = v
		}
		out = append(out, sc)
	}
	return out
}

// TestWarmStartDropsUnusableSeeds: a stored generation's values are not
// checked anywhere on the way in, so a NaN, an infinity or a negative score
// in the warm-start source must be treated as a missing pair — not iterated
// into a result that reports Converged (NaN never exceeds a tolerance) and
// then seeds the next generation.
func TestWarmStartDropsUnusableSeeds(t *testing.T) {
	g := multiComponentGraph(11, 5, 14, 10, 45)
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = ChannelClicks
	cfg.Tolerance = 1e-4
	prev := mustRun(t, g, cfg)

	bad := []float64{math.NaN(), math.Inf(1), -0.5}
	edits := make(map[[2]int]float64)
	prev.QueryScores.Range(func(i, j int, _ float64) bool {
		if i == 7*len(edits) { // rows 0, 7 and 14: one bad pair each
			edits[[2]int{i, j}] = bad[len(edits)]
		}
		return len(edits) < len(bad)
	})
	if len(edits) != len(bad) {
		t.Fatalf("fixture stored too few pairs to edit %d", len(bad))
	}

	plan := partition.ComponentPlan(g)
	run := func(ws ScoreSource) *Result {
		t.Helper()
		res, err := RunSharded(g, cfg, plan, ShardOptions{WarmStart: ws})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tainted := run(editedSource{Result: prev, edits: edits})
	for _, f := range []*sparse.PairFrontier{tainted.QueryScores, tainted.AdScores} {
		f.Range(func(i, j int, v float64) bool {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("stored non-finite score %v for pair (%d,%d)", v, i, j)
			}
			return true
		})
	}
	assertBitIdentical(t, "bad seeds vs the same pairs omitted", run(editedSource{Result: prev, edits: edits, drop: true}), tainted)
}

// TestRunShardsSkipsCleanShards pins the dirty-only scheduling contract:
// skipped shards contribute no scores and no engine work, their stats are
// marked, and (under RetainShardScores) their id lists are still present
// for the refresh writer.
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
	res, err := RunSharded(g, cfg, plan, ShardOptions{RunShards: mask, RetainShardScores: true})
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
		if st.Fingerprint != plan.Shards[i].Fingerprint {
			t.Errorf("shard %d fingerprint not echoed", i)
		}
	}
	for i, ss := range res.ShardScores {
		if len(ss.QueryIDs) != len(plan.Shards[i].Queries) || len(ss.AdIDs) != len(plan.Shards[i].Ads) {
			t.Errorf("shard %d retained id lists wrong size", i)
		}
		if i != 0 && (ss.QueryScores != nil || ss.AdScores != nil) {
			t.Errorf("skipped shard %d retained score tables", i)
		}
		if i == 0 && (ss.QueryScores == nil || ss.AdScores == nil) {
			t.Errorf("run shard 0 missing retained score tables")
		}
	}
}
