package pearson

import (
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
)

func buildGraph(t *testing.T, edges []struct {
	Q, A string
	W    float64
}) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	for _, e := range edges {
		if err := b.AddEdge(e.Q, e.A, clickgraph.EdgeWeights{
			Impressions: 100, Clicks: int64(e.W * 100), ExpectedClickRate: e.W,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestPerfectPositiveCorrelation(t *testing.T) {
	// Two queries with identical weight patterns over two shared ads
	// (plus distinct means so deviations are nonzero).
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.9}, {"q1", "a2", 0.1},
		{"q2", "a1", 0.8}, {"q2", "a2", 0.2},
	})
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	got := Similarity(g, core.ChannelRate, q1, q2)
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("correlation = %v want 1", got)
	}
}

func TestPerfectNegativeCorrelation(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.9}, {"q1", "a2", 0.1},
		{"q2", "a1", 0.1}, {"q2", "a2", 0.9},
	})
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	got := Similarity(g, core.ChannelRate, q1, q2)
	if math.Abs(got+1) > 1e-12 {
		t.Errorf("correlation = %v want -1", got)
	}
}

func TestNoCommonAdsZero(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.5},
		{"q2", "a2", 0.5},
	})
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	if got := Similarity(g, core.ChannelRate, q1, q2); got != 0 {
		t.Errorf("no common ads: correlation = %v want 0", got)
	}
}

// The structural failure Figure 8 exposes: a degree-1 query has zero
// weight deviation, so Pearson is degenerate and returns 0 even against a
// genuinely related query.
func TestDegreeOneQueryDegenerate(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.5},
		{"q2", "a1", 0.9}, {"q2", "a2", 0.1},
	})
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	if got := Similarity(g, core.ChannelRate, q1, q2); got != 0 {
		t.Errorf("degree-1 query correlation = %v want 0 (degenerate)", got)
	}
}

func TestSelfSimilarity(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{{"q1", "a1", 0.5}})
	q1, _ := g.QueryID("q1")
	if got := Similarity(g, core.ChannelRate, q1, q1); got != 1 {
		t.Errorf("self correlation = %v want 1", got)
	}
}

func TestSimilaritiesOnlyPositive(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.9}, {"q1", "a2", 0.1},
		{"q2", "a1", 0.8}, {"q2", "a2", 0.2}, // +1 with q1
		{"q3", "a1", 0.1}, {"q3", "a2", 0.9}, // -1 with q1
	})
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	top := TopRewrites(g, core.ChannelRate, q1, -1)
	if len(top) != 1 || top[0].Node != q2 || top[0].Score <= 0 {
		t.Errorf("TopRewrites(q1) = %+v, want q2 alone: a negative correlation (q3) is no rewrite", top)
	}
}

func TestTopRewritesOrdering(t *testing.T) {
	g := buildGraph(t, []struct {
		Q, A string
		W    float64
	}{
		{"q1", "a1", 0.9}, {"q1", "a2", 0.1}, {"q1", "a3", 0.5},
		{"q2", "a1", 0.8}, {"q2", "a2", 0.2}, // strong match
		{"q3", "a1", 0.5}, {"q3", "a2", 0.5}, {"q3", "a3", 0.4}, // weaker
	})
	q1, _ := g.QueryID("q1")
	top := TopRewrites(g, core.ChannelRate, q1, 5)
	if len(top) == 0 {
		t.Fatal("no rewrites")
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Errorf("rewrites not sorted: %v", top)
		}
	}
	q2, _ := g.QueryID("q2")
	if top[0].Node != q2 {
		t.Errorf("best rewrite = %s want q2", g.Query(top[0].Node))
	}
	if got := TopRewrites(g, core.ChannelRate, q1, 1); len(got) != 1 {
		t.Errorf("limit not applied: %d", len(got))
	}
}

func TestChannelSelection(t *testing.T) {
	// Click counts and rates disagree; the channel must matter.
	b := clickgraph.NewBuilder()
	add := func(q, a string, clicks int64, rate float64) {
		t.Helper()
		if err := b.AddEdge(q, a, clickgraph.EdgeWeights{
			Impressions: 1000, Clicks: clicks, ExpectedClickRate: rate,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("q1", "a1", 900, 0.1)
	add("q1", "a2", 100, 0.9)
	add("q2", "a1", 800, 0.2)
	add("q2", "a2", 200, 0.8)
	g := b.Build()
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	rate := Similarity(g, core.ChannelRate, q1, q2)
	clicks := Similarity(g, core.ChannelClicks, q1, q2)
	if math.Abs(rate-1) > 1e-12 || math.Abs(clicks-1) > 1e-12 {
		t.Errorf("both channels should correlate perfectly here: rate=%v clicks=%v", rate, clicks)
	}
	impr := Similarity(g, core.ChannelImpressions, q1, q2)
	if impr != 0 {
		t.Errorf("impressions are constant; correlation = %v want 0 (degenerate)", impr)
	}
}
