package eval

import (
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
)

// desirabilityGraph builds a graph rich enough to host trials: a ring of
// queries sharing ads with staggered weights.
func desirabilityGraph(t *testing.T) *clickgraph.Graph {
	t.Helper()
	b := clickgraph.NewBuilder()
	add := func(q, a string, rate float64) {
		t.Helper()
		if err := b.AddEdge(q, a, clickgraph.EdgeWeights{
			Impressions: 100, Clicks: int64(rate * 100), ExpectedClickRate: rate,
		}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 12
	for i := 0; i < n; i++ {
		q := "q" + string(rune('a'+i))
		// Each query clicks its own ad, the next ad, and a hub ad,
		// with varying rates.
		add(q, "ad"+string(rune('a'+i)), 0.2+0.05*float64(i%5))
		add(q, "ad"+string(rune('a'+(i+1)%n)), 0.1+0.04*float64(i%7))
		add(q, "hub", 0.15+0.03*float64(i%4))
	}
	return b.Build()
}

func TestDesirabilityFormula(t *testing.T) {
	b := clickgraph.NewBuilder()
	add := func(q, a string, rate float64) {
		t.Helper()
		if err := b.AddEdge(q, a, clickgraph.EdgeWeights{
			Impressions: 10, Clicks: int64(rate * 10), ExpectedClickRate: rate,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("q1", "a1", 0.5)
	add("q1", "a2", 0.5)
	add("q2", "a1", 0.8) // shared with q1
	add("q2", "a3", 0.4) // private
	g := b.Build()
	q1, _ := g.QueryID("q1")
	q2, _ := g.QueryID("q2")
	// des(q1,q2) = w(q2,a1)/|E(q2)| = 0.8/2.
	if got := Desirability(g, core.ChannelRate, q1, q2); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("des(q1,q2) = %v want 0.4", got)
	}
	// Asymmetric: des(q2,q1) = w(q1,a1)/|E(q1)| = 0.25.
	if got := Desirability(g, core.ChannelRate, q2, q1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("des(q2,q1) = %v want 0.25", got)
	}
}

func TestBuildTrialsInvariants(t *testing.T) {
	g := desirabilityGraph(t)
	trials := BuildTrials(g, core.ChannelRate, 10, 7)
	if len(trials) == 0 {
		t.Fatal("no trials built")
	}
	for i, tr := range trials {
		if tr.Des2 == tr.Des3 {
			t.Errorf("trial %d has tied desirability", i)
		}
		if g.QueryDegree(tr.Q2) != g.QueryDegree(tr.Q3) {
			t.Errorf("trial %d candidates not degree-matched", i)
		}
		if len(g.CommonAds(tr.Q1, tr.Q2)) != len(g.CommonAds(tr.Q1, tr.Q3)) {
			t.Errorf("trial %d candidates not shared-count-matched", i)
		}
		// Removal must eliminate all common ads with both candidates.
		if n := len(tr.Pruned.CommonAds(tr.Q1, tr.Q2)); n != 0 {
			t.Errorf("trial %d: %d common ads with q2 remain", i, n)
		}
		if n := len(tr.Pruned.CommonAds(tr.Q1, tr.Q3)); n != 0 {
			t.Errorf("trial %d: %d common ads with q3 remain", i, n)
		}
		if tr.Pruned.QueryDegree(tr.Q1) == 0 {
			t.Errorf("trial %d left q1 isolated", i)
		}
		// Connectivity promised by the protocol.
		if !reachable(tr.Pruned, tr.Q1, tr.Q2) || !reachable(tr.Pruned, tr.Q1, tr.Q3) {
			t.Errorf("trial %d lost connectivity", i)
		}
	}
	// Determinism.
	again := BuildTrials(g, core.ChannelRate, 10, 7)
	if len(again) != len(trials) {
		t.Fatal("BuildTrials not deterministic")
	}
	for i := range trials {
		if trials[i].Q1 != again[i].Q1 || trials[i].Q2 != again[i].Q2 || trials[i].Q3 != again[i].Q3 {
			t.Fatal("BuildTrials not deterministic in trial selection")
		}
	}
}

func TestRunDesirabilityWithOracleScorer(t *testing.T) {
	g := desirabilityGraph(t)
	trials := BuildTrials(g, core.ChannelRate, 8, 7)
	if len(trials) == 0 {
		t.Skip("graph too small for trials")
	}
	// A scorer that returns the ground truth must be 100% correct.
	oracle := func(tr Trial) (float64, float64, error) { return tr.Des2, tr.Des3, nil }
	c, n, err := RunDesirability(trials, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if c != n {
		t.Errorf("oracle scorer correct on %d/%d", c, n)
	}
	// An inverted scorer must be 0% correct.
	inv := func(tr Trial) (float64, float64, error) { return -tr.Des2, -tr.Des3, nil }
	c, n, err = RunDesirability(trials, inv)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("inverted scorer correct on %d/%d, want 0", c, n)
	}
	// A constant scorer (all ties) is never strictly correct.
	tie := func(tr Trial) (float64, float64, error) { return 1, 1, nil }
	c, _, err = RunDesirability(trials, tie)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("tie scorer scored %d correct, want 0", c)
	}
}

func TestScorersRun(t *testing.T) {
	g := desirabilityGraph(t)
	trials := BuildTrials(g, core.ChannelRate, 3, 7)
	if len(trials) == 0 {
		t.Skip("no trials")
	}
	if _, _, err := RunDesirability(trials, LocalScorer(core.DefaultConfig(), core.DefaultLocalConfig())); err != nil {
		t.Errorf("local scorer: %v", err)
	}
}
