package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// weightedSimPair runs weighted SimRank with the clicks channel and
// returns the similarity of the named query pair.
func weightedSimPair(t *testing.T, g *clickgraph.Graph, q1, q2 string) float64 {
	t.Helper()
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = ChannelClicks
	cfg.Iterations = 10
	r := mustRunDense(t, g, cfg)
	return querySimByName(t, r, q1, q2)
}

// Figure 5: equal click counts to a shared ad (low variance) must beat a
// lopsided split (high variance) — consistency rule (ii) of Definition
// 8.1.
func TestFig5VarianceConsistency(t *testing.T) {
	left := weightedSimPair(t, fig5Left(), "flower", "orchids")
	right := weightedSimPair(t, fig5Right(), "flower", "teleflora")
	if !(left > right) {
		t.Errorf("Fig5: equal-split sim %g should exceed lopsided sim %g", left, right)
	}
	// Plain and evidence-based SimRank cannot distinguish the two graphs
	// (both are K2,1 structurally) — the failure §8.1 calls out.
	for _, variant := range []Variant{Simple, Evidence} {
		cfg := DefaultConfig().WithVariant(variant)
		cfg.Channel = ChannelClicks
		l := mustRunDense(t, fig5Left(), cfg)
		r := mustRunDense(t, fig5Right(), cfg)
		lv := querySimByName(t, l, "flower", "orchids")
		rv := querySimByName(t, r, "flower", "teleflora")
		if lv != rv {
			t.Errorf("%v should not distinguish Fig5 graphs: %g vs %g", variant, lv, rv)
		}
	}
}

// Figure 6: with equal spread, more clicks should mean more similarity —
// consistency rule (i). The click counts enter through the expected click
// rate channel in the paper's deployment; with raw counts, the normalized
// weights of the two graphs are identical (5/5 vs 100/100 both normalize
// to 1), so rule (i) is exercised via the rate channel where the shared
// ad's rate estimate differs.
func TestFig6WeightMagnitude(t *testing.T) {
	// Build two graphs that differ only in the magnitude of the expected
	// click rate toward the shared ad.
	build := func(rate float64) *clickgraph.Graph {
		b := clickgraph.NewBuilder()
		for _, q := range []string{"flower", "orchids"} {
			if err := b.AddEdge(q, "teleflora.com", clickgraph.EdgeWeights{
				Impressions: 100, Clicks: int64(rate * 100), ExpectedClickRate: rate,
			}); err != nil {
				t.Fatal(err)
			}
			// A private low-rate ad per query so normalization has a
			// denominator to spread over.
			if err := b.AddEdge(q, "other-"+q+".com", clickgraph.EdgeWeights{
				Impressions: 100, Clicks: 10, ExpectedClickRate: 0.1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = 10
	hi := mustRunDense(t, build(0.9), cfg)
	lo := mustRunDense(t, build(0.2), cfg)
	hiV := querySimByName(t, hi, "flower", "orchids")
	loV := querySimByName(t, lo, "flower", "orchids")
	if !(hiV > loV) {
		t.Errorf("Fig6: high-weight sim %g should exceed low-weight sim %g", hiV, loV)
	}
}

// Theorem 8.1 (consistency), property form: for a K2,1 graph with click
// weights (w1, w2) toward the shared ad, the weighted similarity is
// monotone decreasing in the weight variance. Random weight pairs with
// smaller variance must never score lower.
func TestTheorem81VarianceMonotonicity(t *testing.T) {
	simFor := func(w1, w2 int64) float64 {
		b := clickgraph.NewBuilder()
		for _, e := range []struct {
			q string
			c int64
		}{{"q1", w1}, {"q2", w2}} {
			if err := b.AddEdge(e.q, "shared", clickgraph.EdgeWeights{
				Impressions: e.c * 2, Clicks: e.c, ExpectedClickRate: 0.5,
			}); err != nil {
				t.Fatal(err)
			}
		}
		g := b.Build()
		cfg := DefaultConfig().WithVariant(Weighted)
		cfg.Channel = ChannelClicks
		cfg.Iterations = 8
		r := mustRunDense(t, g, cfg)
		return querySimByName(t, r, "q1", "q2")
	}
	check := func(a, b uint8) bool {
		// Two spreads of the same total mass: (x, y) vs perfectly even.
		total := int64(a%50) + int64(b%50) + 2
		x := int64(a%50) + 1
		y := total - x
		uneven := simFor(x, y)
		even := simFor(total/2, total-total/2)
		return even >= uneven-1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// Symmetry and boundedness of weighted SimRank under random small graphs.
func TestWeightedRandomGraphInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		g := randomGraph(seed, 6, 5, 12)
		cfg := DefaultConfig().WithVariant(Weighted)
		cfg.Channel = ChannelClicks
		r, err := RunDense(g, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < g.NumQueries(); i++ {
			for j := i + 1; j < g.NumQueries(); j++ {
				s := r.QuerySim(i, j)
				if s != r.QuerySim(j, i) || s < 0 || s > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a deterministic pseudo-random bipartite click graph
// for the differential tests.
func randomGraph(seed uint64, nq, na, edges int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	addRandomCluster(b, "", seed, nq, na, edges)
	return b.Build()
}

// addRandomCluster adds one pseudo-random bipartite cluster to b. Node
// names carry the prefix, so clusters with distinct prefixes are
// vertex-disjoint: each its own component (or several, where edge sampling
// leaves nodes isolated).
func addRandomCluster(b *clickgraph.Builder, prefix string, seed uint64, nq, na, edges int) {
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for i := 0; i < nq; i++ {
		b.AddQuery(fmt.Sprintf("%sq%d", prefix, i))
	}
	for e := 0; e < edges; e++ {
		q := next(nq)
		a := next(na)
		clicks := int64(next(20) + 1)
		// Builder merges duplicates, which is fine for the property.
		err := b.AddEdge(fmt.Sprintf("%sq%d", prefix, q), fmt.Sprintf("%sad%d", prefix, a), clickgraph.EdgeWeights{
			Impressions: clicks * 3, Clicks: clicks,
			ExpectedClickRate: float64(next(100)) / 100,
		})
		if err != nil {
			panic(err)
		}
	}
}

// Differential property: sparse engine equals dense engine on random
// graphs for every variant, the query side at the configured depth and
// the ad side, where the chain ends, one depth deeper.
func TestSparseMatchesDenseRandom(t *testing.T) {
	check := func(seed uint64, variantPick uint8) bool {
		g := randomGraph(seed, 7, 6, 15)
		cfg := DefaultConfig().WithVariant(Variant(variantPick % 3))
		cfg.Channel = ChannelClicks
		cfg.Iterations = 6
		deeper := cfg
		deeper.Iterations++
		dq, err := RunDense(g, cfg)
		if err != nil {
			return false
		}
		da, err := RunDense(g, deeper)
		if err != nil {
			return false
		}
		s, err := Run(g, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < g.NumQueries(); i++ {
			for j := i + 1; j < g.NumQueries(); j++ {
				if diff := dq.QuerySim(i, j) - s.QuerySim(i, j); diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		for i := 0; i < g.NumAds(); i++ {
			for j := i + 1; j < g.NumAds(); j++ {
				if diff := da.AdSim(i, j) - s.AdSim(i, j); diff > 1e-9 || diff < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// StrictEvidence zeroes pairs without common neighbors; pass-through
// keeps them at the plain SimRank value.
func TestStrictEvidenceSemantics(t *testing.T) {
	g := clickgraph.Fig3()
	pc, _ := g.QueryID("pc")
	tv, _ := g.QueryID("tv")

	plain := mustRunDense(t, g, DefaultConfig())
	loose := mustRunDense(t, g, DefaultConfig().WithVariant(Evidence))
	strictCfg := DefaultConfig().WithVariant(Evidence)
	strictCfg.StrictEvidence = true
	strict := mustRunDense(t, g, strictCfg)

	if got := strict.QuerySim(pc, tv); got != 0 {
		t.Errorf("strict evidence sim(pc,tv) = %g want 0 (no common ads)", got)
	}
	if got, want := loose.QuerySim(pc, tv), plain.QuerySim(pc, tv); got != want {
		t.Errorf("pass-through evidence sim(pc,tv) = %g want plain value %g", got, want)
	}
	// Pairs WITH common ads are scaled identically under both semantics.
	cam, _ := g.QueryID("camera")
	dig, _ := g.QueryID("digital camera")
	if strict.QuerySim(cam, dig) != loose.QuerySim(cam, dig) {
		t.Errorf("evidence semantics should agree on pairs with common ads")
	}
}

// The local engine must reproduce full-graph scores when the neighborhood
// covers the whole component.
func TestLocalMatchesFullOnSmallGraph(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig()
	full := mustRun(t, g, cfg)
	pc, _ := g.QueryID("pc")
	lc := LocalConfig{Radius: 10, MaxQueries: 100, MaxAds: 100}
	local, err := LocalSimilarities(g, pc, cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	if len(local) == 0 {
		t.Fatal("local engine returned nothing")
	}
	for _, s := range local {
		if want := full.QuerySim(pc, s.Node); !almostEqual(s.Score, want, 1e-10) {
			t.Errorf("local sim(pc,%s) = %g want %g", g.Query(s.Node), s.Score, want)
		}
	}
}

func TestLocalValidation(t *testing.T) {
	g := clickgraph.Fig3()
	if _, err := LocalSimilarities(g, -1, DefaultConfig(), DefaultLocalConfig()); err == nil {
		t.Error("accepted negative query id")
	}
	if _, err := LocalSimilarities(g, g.NumQueries(), DefaultConfig(), DefaultLocalConfig()); err == nil {
		t.Error("accepted out-of-range query id")
	}
	if _, err := LocalSimilarities(g, 0, DefaultConfig(), LocalConfig{Radius: 1}); err == nil {
		t.Error("accepted radius < 2")
	}
}

func TestEvidenceScoreForms(t *testing.T) {
	if evidenceScore(EvidenceGeometric, 0) != 0 {
		t.Error("geometric evidence of 0 common neighbors should be 0")
	}
	if got := evidenceScore(EvidenceGeometric, 1); got != 0.5 {
		t.Errorf("geometric evidence(1) = %g want 0.5", got)
	}
	if got := evidenceScore(EvidenceGeometric, 2); got != 0.75 {
		t.Errorf("geometric evidence(2) = %g want 0.75", got)
	}
	if got := evidenceScore(EvidenceGeometric, 100); got != 1 {
		t.Errorf("geometric evidence(100) = %g want 1", got)
	}
	// Exponential form is increasing and approaches 1.
	prev := 0.0
	for n := 1; n <= 20; n++ {
		v := evidenceScore(EvidenceExponential, n)
		if v <= prev || v >= 1 {
			t.Fatalf("exponential evidence not increasing in (0,1): n=%d v=%g", n, v)
		}
		prev = v
	}
	// Multiplier semantics: the table runs 0 through the largest degree,
	// pass-through or strict at 0 and the score above it.
	rows := [][]int{{0, 1, 2}}
	if ev := evidenceByCount(EvidenceGeometric, false, rows); len(ev) != 4 || ev[0] != 1 {
		t.Errorf("pass-through table = %v, want 4 entries from 1", ev)
	}
	ev := evidenceByCount(EvidenceGeometric, true, rows)
	if ev[0] != 0 {
		t.Error("strict multiplier for n=0 should be 0")
	}
	if ev[3] != evidenceScore(EvidenceGeometric, 3) {
		t.Error("multiplier should equal score for n>0")
	}
}

// The neighborhood caps must bound the extracted subgraph.
func TestLocalNeighborhoodCaps(t *testing.T) {
	g := randomGraph(7, 20, 15, 120)
	cfg := DefaultConfig()
	lc := LocalConfig{Radius: 8, MaxQueries: 5, MaxAds: 4}
	scored, err := LocalSimilarities(g, 0, cfg, lc)
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) >= 5 {
		t.Errorf("caps ignored: %d partners scored with MaxQueries=5", len(scored))
	}
	// Unbounded configuration reaches at least as many partners.
	unbounded, err := LocalSimilarities(g, 0, cfg, LocalConfig{Radius: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(unbounded) < len(scored) {
		t.Errorf("unbounded run found fewer partners (%d) than capped (%d)", len(unbounded), len(scored))
	}
}

// Ad-side evidence must mirror query-side evidence through the
// symmetric roles of the two partitions.
func TestAdSideEvidence(t *testing.T) {
	g := clickgraph.Fig4K22()
	in := newPassInputs(g, DefaultConfig().WithVariant(Evidence))
	hp, _ := g.AdID("hp.com")
	bb, _ := g.AdID("bestbuy.com")
	// Two common queries → geometric evidence 0.75.
	if got := countedEvidence(in.aNbr, in.qNbr, in.ev, hp, bb); got != 0.75 {
		t.Errorf("ad evidence = %v want 0.75", got)
	}
	cam, _ := g.QueryID("camera")
	dig, _ := g.QueryID("digital camera")
	if got := countedEvidence(in.qNbr, in.aNbr, in.ev, cam, dig); got != 0.75 {
		t.Errorf("query evidence = %v want 0.75", got)
	}
}

// countedEvidence returns the multiplier the engine counts for the pair
// (x, p) of the side whose neighbor rows are nbr: a lone pair at score 1
// through applyEvidence.
func countedEvidence(nbr, oppNbr [][]int, ev []float64, x, p int) float64 {
	f := sparse.NewPairFrontier(len(nbr))
	f.SetSortedRow(min(x, p), []int32{int32(max(x, p))}, []float64{1})
	new(engineArena).ensureSPAs(1, len(oppNbr))[0].applyEvidence(f, nbr, ev)
	v, _ := f.Get(x, p)
	return v
}
