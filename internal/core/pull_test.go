package core

import (
	"fmt"
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// ringGraph builds clusters connected clusters of 12 queries × 8 ads: a
// backbone of 20 edges (query i to ads i and i+1 mod 8 for i < 8, and to
// ad i mod 8 above) and 13 sampled ones. Bridge edges, one from each
// cluster c to cluster c+1 mod clusters, join them into one ring, whose
// scores stay local once pruned.
func ringGraph(clusters int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	edge := func(q, ad string) {
		if err := b.AddEdge(q, ad, clickgraph.EdgeWeights{Impressions: 6, Clicks: 2, ExpectedClickRate: 0.3}); err != nil {
			panic(err)
		}
	}
	for c := 0; c < clusters; c++ {
		prefix := fmt.Sprintf("r%d-", c)
		for i := 0; i < 12; i++ {
			q := fmt.Sprintf("%sq%d", prefix, i)
			edge(q, fmt.Sprintf("%sad%d", prefix, i%8))
			if i < 8 {
				edge(q, fmt.Sprintf("%sad%d", prefix, (i+1)%8))
			}
		}
		addRandomCluster(b, prefix, 1000+uint64(c)*7919, 12, 8, 13)
	}
	for c := 0; c < clusters; c++ {
		edge(fmt.Sprintf("r%d-q0", c), fmt.Sprintf("r%d-ad4", (c+1)%clusters))
	}
	return b.Build()
}

// requireWithinUlps fails unless both frontiers hold the same pairs and
// every value pair differs by at most rel relative to the larger.
func requireWithinUlps(t *testing.T, label string, want, got *sparse.PairFrontier, rel float64) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d pairs, push reference has %d", label, got.Len(), want.Len())
	}
	want.Range(func(i, j int, v float64) bool {
		gv, ok := got.Get(i, j)
		if !ok {
			t.Fatalf("%s: pair (%d,%d) missing", label, i, j)
		}
		if d := math.Abs(gv - v); d > rel*max(math.Abs(gv), math.Abs(v)) {
			t.Fatalf("%s: pair (%d,%d) = %v, push %v (relative difference %.3g)", label, i, j, gv, v, d/math.Abs(v))
		}
		return true
	})
}

// TestPullMatchesPush holds the engine to the push kernel it replaced: the
// pull sums each cell's terms in ascending j where the push took them in
// the gather's first-touch order, so scores may move by a few ulp, but no
// further and never in support. The chain's query side at depth k is the
// push Jacobi loop's at k and its ad side the loop's at k+1
// (TestChainMatchesJacobi), at every worker count, across the paper
// fixtures and seeded graphs × variant × strict evidence × pruning.
func TestPullMatchesPush(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3": clickgraph.Fig3(),
		"k3_4": completeBipartite(3, 4),
		"k5_2": completeBipartite(5, 2),
	}
	for _, seed := range []uint64{1, 31, 2026} {
		graphs[fmt.Sprintf("random%d", seed)] = randomGraph(seed, 24, 18, 70)
		graphs[fmt.Sprintf("multi%d", seed)] = multiComponentGraph(seed, 4, 12, 9, 35)
	}
	for name, g := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			for _, strict := range []bool{false, true} {
				if strict && variant == Simple {
					continue // no evidence to be strict about
				}
				for _, prune := range []float64{0, 1e-4} {
					cfg := DefaultConfig().WithVariant(variant)
					cfg.StrictEvidence = strict
					cfg.PruneEpsilon = prune
					k := cfg.Iterations
					pushQ, err := runJacobiWith(g, cfg, 1, nil, pushSide)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Iterations = k + 1
					pushA, err := runJacobiWith(g, cfg, 1, nil, pushSide)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Iterations = k
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s/%v/strict=%v/prune=%g/workers=%d", name, variant, strict, prune, workers)
						got, err := runEngine(g, cfg, workers, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						requireWithinUlps(t, label+"/queries", pushQ.QueryScores, got.QueryScores, 1e-15)
						requireWithinUlps(t, label+"/ads", pushA.AdScores, got.AdScores, 1e-15)
					}
				}
			}
		}
	}
}

// TestPullCandidatePathsAgree forces each path on the same pass inputs —
// every component's block path over its score block, every row's
// expansion and reach, and the per-pass choice the engine makes — and
// requires the same rows bit for bit, on both sides of multi-component
// and single-component graphs mid-run, at several worker counts. A
// candidate set that missed a member with a nonzero score, a strip cut
// short by one, or a block row summed in another order would tell.
func TestPullCandidatePathsAgree(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3":   clickgraph.Fig3(),
		"random": randomGraph(7, 30, 22, 90),
		"multi":  multiComponentGraph(5, 6, 14, 10, 40),
		"ring":   ringGraph(6),
	}
	for name, g := range graphs {
		for _, variant := range []Variant{Simple, Weighted} {
			cfg := DefaultConfig().WithVariant(variant)
			cfg.Iterations = 3
			mid := mustRun(t, g, cfg)
			in := newPassInputs(g, cfg)
			for _, ads := range []bool{false, true} {
				s := in.side(cfg, ads)
				opp := mid.AdScores
				if ads {
					opp = mid.QueryScores
				}
				opp = toLayout(s.oppIdx, opp)
				sym := opp.ExpandSymmetric(nil)
				sets := map[string]candidates{
					"block":  forcedCandidates(s, opp, sym, true),
					"reach":  forcedCandidates(s, opp, sym, false),
					"chosen": plannedCandidates(s, opp, sym),
				}
				var want *sparse.PairFrontier
				for _, workers := range []int{1, 3} {
					spas := new(engineArena).ensureSPAs(workers, g.NumQueries()+g.NumAds())
					for _, set := range []string{"block", "reach", "chosen"} {
						got := sparse.NewPairFrontier(len(s.thisNbr))
						s.pass(cfg, sets[set], got, workers, spas)
						if want == nil {
							if got.Len() == 0 {
								t.Fatalf("%s/%v/ads=%v: empty pass", name, variant, ads)
							}
							want = got
							continue
						}
						requireTablesBitIdentical(t, fmt.Sprintf("%s/%v/ads=%v/%s/workers=%d", name, variant, ads, set, workers), want, got)
					}
				}
			}
		}
	}
}

// TestPullSparseGuard pins the reason the candidate set is chosen per
// component: on a component whose scores stay local, the block path
// would evaluate every member above a row for the few it reaches. The
// ring — 300 clusters of 12 queries × 8 ads, each joined to the next by
// one edge, so one component of ≈ 5 900 nodes — runs under
// partition.WholePlan with the production engine settings (weighted,
// pruning at 1e-5 and tolerance stop), whose pruning keeps
// the scores near their clusters. At every pass, on the same inputs, the
// pull may evaluate at most twice as many cells as the push kernel makes
// contributions (it evaluates fewer: a cell the push reaches from several
// j is one dot product); the whole component range evaluates over ten
// times as many. The passes run in the Jacobi loop (runJacobiWith),
// where each pass's inputs are in reach; the chain runs the same kernel.
func TestPullSparseGuard(t *testing.T) {
	whole := ringGraph(300)
	plan := partition.WholePlan(whole)
	view, err := clickgraph.NewSubview(whole, plan.Shards[0].Queries, plan.Shards[0].Ads, clickgraph.AdTable(whole, plan.Shards[0].Ads))
	if err != nil {
		t.Fatal(err)
	}
	g := view.Graph
	if comps := clickgraph.Components(g); len(comps[0].Queries)+len(comps[0].Ads) < 5000 {
		t.Fatalf("largest component has %d nodes; the ring should join the clusters", len(comps[0].Queries)+len(comps[0].Ads))
	}
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = 15
	cfg.Tolerance = 1e-4
	cfg.PruneEpsilon = 1e-5

	passes := 0
	scratch := sparse.NewPairFrontier(max(g.NumQueries(), g.NumAds()))
	guarded := func(in *passInputs, cfg Config, ads bool, opp *sparse.PairFrontier, sym *sparse.SymAdj, dst *sparse.PairFrontier, workers int, spas []*spa) {
		cells := func() (n int) {
			for _, sp := range spas {
				n += sp.cells
			}
			return n
		}
		before := cells()
		pullSide(in, cfg, ads, opp, sym, dst, workers, spas)
		pulled := cells() - before
		scratch.Resize(dst.NumRows())
		pushSide(in, cfg, ads, opp, sym, scratch, workers, spas)
		pushed := cells() - before - pulled
		if pulled > 2*pushed {
			t.Errorf("pass %d (ads=%v): the pull evaluated %d cells for %d push contributions", passes, ads, pulled, pushed)
		}
		passes++
	}
	if _, err := runJacobiWith(g, cfg, 1, nil, guarded); err != nil {
		t.Fatal(err)
	}
	if passes < 4 {
		t.Fatalf("%d passes ran; the guard needs a run past the first passes", passes)
	}
}
