package core

import (
	"fmt"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// TestChainMatchesJacobi is the chain's exactness contract: at every depth
// k, Run's query side is bit for bit runJacobi(k)'s and its ad side
// runJacobi(k+1)'s — serial and parallel, across variants × strict
// evidence × pruning — and RunSharded over an exact plan
// of a multi-component graph stitches the same bits.
func TestChainMatchesJacobi(t *testing.T) {
	g := multiComponentGraph(11, 5, 14, 10, 30)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = 60 // packs the components into fewer shards
	plan, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if !plan.Exact || len(plan.Shards) < 2 {
		t.Fatalf("want an exact plan of several shards, got exact=%v shards=%d", plan.Exact, len(plan.Shards))
	}
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		for _, strict := range []bool{false, true} {
			if strict && variant == Simple {
				continue // no evidence to be strict about
			}
			for _, prune := range []float64{0, 1e-4} {
				cfg := DefaultConfig().WithVariant(variant)
				cfg.StrictEvidence = strict
				cfg.PruneEpsilon = prune
				cfg.Iterations = 1
				jac, err := runJacobi(g, cfg, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k := 1; k <= 8; k++ {
					cfg.Iterations = k + 1
					deeper, err := runJacobi(g, cfg, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Iterations = k
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%v/strict=%v/prune=%g/k=%d/workers=%d", variant, strict, prune, k, workers)
						got, err := runEngine(g, cfg, workers, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						requireTablesBitIdentical(t, label+"/queries", jac.QueryScores, got.QueryScores)
						requireTablesBitIdentical(t, label+"/ads", deeper.AdScores, got.AdScores)
						if got.Iterations != k || len(got.IterStats) > k {
							t.Fatalf("%s: Iterations %d with %d IterStats, want %d and at most %d", label, got.Iterations, len(got.IterStats), k, k)
						}
						sh, err := RunSharded(g, cfg, plan, ShardOptions{Workers: workers})
						if err != nil {
							t.Fatalf("%s: RunSharded: %v", label, err)
						}
						requireTablesBitIdentical(t, label+"/sharded queries", jac.QueryScores, sh.QueryScores)
						requireTablesBitIdentical(t, label+"/sharded ads", deeper.AdScores, sh.AdScores)
					}
					jac = deeper
				}
			}
		}
	}
}

// TestChainNoFurtherFromFixpoint: under the production engine settings
// (tolerance stop, pruning) the chain ends no
// further from the converged dense fixpoint than the Jacobi loop it
// replaced, on the paper fixtures and on seeded random graphs, for every
// variant: its ad side ends a depth deeper, and its stop test compares
// each side with its value two depths back, which is stricter than
// Jacobi's one-depth diff. That holds at the production depth budget of
// 15, which Simple and Evidence (contracting by C = 0.8 a depth) cannot
// converge in under either loop, and at a budget of 60, in which every
// run must converge.
func TestChainNoFurtherFromFixpoint(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3": clickgraph.Fig3(),
		"k3_4": completeBipartite(3, 4),
		"k5_2": completeBipartite(5, 2),
	}
	for _, seed := range []uint64{1, 7, 31, 404, 2026} {
		graphs[fmt.Sprintf("random%d", seed)] = randomGraph(seed, 24, 18, 70)
		graphs[fmt.Sprintf("multi%d", seed)] = multiComponentGraph(seed, 3, 12, 9, 35)
	}
	for name, g := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			cfg := DefaultConfig().WithVariant(variant)
			cfg.Tolerance = 1e-4
			cfg.PruneEpsilon = 1e-5
			ref := cfg
			ref.Iterations = 2000
			ref.Tolerance = 1e-13
			fix := mustRunDense(t, g, ref)
			if !fix.Converged {
				t.Fatalf("%s/%v: dense reference did not converge", name, variant)
			}
			for _, budget := range []int{15, 60} {
				label := fmt.Sprintf("%s/%v/iterations=%d", name, variant, budget)
				cfg.Iterations = budget
				chain := mustRun(t, g, cfg)
				jac, err := runJacobi(g, cfg, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				if budget == 60 && !(chain.Converged && jac.Converged) {
					t.Errorf("%s: converged: chain %v, Jacobi %v", label, chain.Converged, jac.Converged)
				}
				if ce, je := fixpointError(chain, fix), fixpointError(jac, fix); ce > je {
					t.Errorf("%s: chain ends %g from the fixpoint, Jacobi %g", label, ce, je)
				}
			}
		}
	}
}

// maxTableDiff returns the largest |a-b| over the union of both frontiers.
func maxTableDiff(a, b *sparse.PairFrontier) float64 {
	return a.MaxAbsDiff(b)
}

// fixpointError is the largest |r − fix| over every pair of both sides.
func fixpointError(r, fix *Result) float64 {
	return max(maxTableDiff(r.QueryScores, fix.QueryScores), maxTableDiff(r.AdScores, fix.AdScores))
}
