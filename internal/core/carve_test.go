package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// topKOverlap returns |A ∩ B| / k for two top-k rewrite lists.
func topKOverlap(a, b []sparse.Scored, k int) float64 {
	if k <= 0 {
		return 0
	}
	set := make(map[int]bool, k)
	for i, s := range a {
		if i == k {
			break
		}
		set[s.Node] = true
	}
	hits := 0
	for i, s := range b {
		if i == k {
			break
		}
		if set[s.Node] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// kendallTau is Kendall's τ-a of two score vectors over the same items:
// concordant minus discordant pairs over all pairs, a tie in either
// vector counting as neither.
func kendallTau(x, y []float64) float64 {
	n, s := len(x), 0
	for i := range n {
		for j := i + 1; j < n; j++ {
			switch p := (x[i] - x[j]) * (y[i] - y[j]); {
			case p > 0:
				s++
			case p < 0:
				s--
			}
		}
	}
	return float64(s) / float64(n*(n-1)/2)
}

// carveGraph is pathbench's cold-build graph in miniature: one 650 × 450
// giant of 5 500 click records and twelve 65 × 45 clusters of 500 each.
func carveGraph(seed uint64) *clickgraph.Graph {
	r := rand.New(rand.NewPCG(seed, 1))
	b := clickgraph.NewBuilder()
	addUniformCluster(b, r, "g", 650, 450, 5500)
	for c := range 12 {
		addUniformCluster(b, r, fmt.Sprintf("c%d", c), 65, 45, 500)
	}
	return b.Build()
}

// rankingQuality is how far a run's query rankings are from a reference's
// over a set of queries: the mean top-5 and top-16 overlap (over the
// queries the reference ranks at least k partners for), the mean Kendall
// τ of the run's scores on the reference's top-16 partners against the
// reference's own, and the largest score error on those partners.
type rankingQuality struct {
	top5, top16, tau, maxAbs float64
}

func (q rankingQuality) String() string {
	return fmt.Sprintf("top-5 %.4f, top-16 %.4f, τ %.4f, max-abs %.3g", q.top5, q.top16, q.tau, q.maxAbs)
}

func measureRankings(ref, got *Result, queries []int) rankingQuality {
	var q rankingQuality
	var n5, n16 int
	for _, id := range queries {
		want := ref.TopRewrites(id, 16)
		have := got.TopRewrites(id, 16)
		if len(want) >= 5 {
			q.top5 += topKOverlap(want, have, 5)
			n5++
		}
		if len(want) < 16 {
			continue
		}
		q.top16 += topKOverlap(want, have, 16)
		n16++
		x, y := make([]float64, 16), make([]float64, 16)
		for i, s := range want {
			x[i], y[i] = s.Score, got.QuerySim(id, s.Node)
			q.maxAbs = max(q.maxAbs, math.Abs(x[i]-y[i]))
		}
		q.tau += kendallTau(x, y)
	}
	q.top5 /= float64(n5)
	q.top16 /= float64(n16)
	q.tau /= float64(n16)
	return q
}

// TestCarveQuality prices §9.2's decomposition on a pathbench-shaped
// graph: the production config's rankings over the gated plan, which
// carves the giant into ≤ 400-node shards, and over a plan that keeps it
// whole, against a component-exact reference (every tolerance 0, 40
// iterations; TestSparseMatchesDense* ties that run to RunDense). Over the
// uncut plan the production config must keep the reference's rankings.
// Over the gated plan the floors are what it measures: most of the loss is
// the giant's, whose exact top-5 partners mostly lie in other shards.
// Floors only rise.
func TestCarveQuality(t *testing.T) {
	g := carveGraph(1)
	run := func(cfg Config, maxShard int) *Result {
		plan := partition.ComponentPlan(g)
		if maxShard > 0 {
			pcfg := partition.DefaultPlanConfig()
			pcfg.MaxShardNodes, pcfg.MinCutNodes = maxShard, 100
			var err error
			if plan, err = partition.BuildPlan(g, pcfg); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunSharded(g, cfg, plan, ShardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	exact := DefaultConfig().WithVariant(Weighted)
	exact.Iterations = 40
	ref := run(exact, 0)

	all := make([]int, g.NumQueries())
	for q := range all {
		all[q] = q
	}
	giant := clickgraph.Components(g)[0].Queries
	for _, tc := range []struct {
		plan     string
		maxShard int
		bound    [2]rankingQuality // floors, and max-abs a ceiling: all queries, the giant's
	}{
		{"uncut", 1200, [2]rankingQuality{{0.999, 0.999, 0.999, 3e-5}, {0.999, 0.999, 0.999, 3e-5}}},
		{"gated", 400, [2]rankingQuality{{0.6355, 0.6472, 0.5600, 0.362}, {0.1981, 0.2245, 0.0323, 0.362}}},
	} {
		got := run(productionConfig(), tc.maxShard)
		for i, set := range [][]int{all, giant} {
			q, f := measureRankings(ref, got, set), tc.bound[i]
			label := fmt.Sprintf("%s plan, %s queries (%d shards)", tc.plan, [2]string{"all", "giant's"}[i], len(got.Plan.Shards))
			t.Logf("%s: %v", label, q)
			if q.top5 < f.top5 || q.top16 < f.top16 || q.tau < f.tau || q.maxAbs > f.maxAbs {
				t.Errorf("%s: %v, worse than its bound %v", label, q, f)
			}
		}
	}
}
