package core

import (
	"fmt"
	"math"
	"testing"

	"simrankpp/internal/clickgraph"
)

const tol = 1e-12

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// mustRunDense is a test helper running the dense engine.
func mustRunDense(t *testing.T, g *clickgraph.Graph, cfg Config) *Result {
	t.Helper()
	r, err := RunDense(g, cfg)
	if err != nil {
		t.Fatalf("RunDense: %v", err)
	}
	return r
}

// mustRun is a test helper running the sparse engine.
func mustRun(t *testing.T, g *clickgraph.Graph, cfg Config) *Result {
	t.Helper()
	r, err := Run(g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func querySimByName(t *testing.T, r *Result, q1, q2 string) float64 {
	t.Helper()
	i, ok := r.Graph.QueryID(q1)
	if !ok {
		t.Fatalf("query %q not in graph", q1)
	}
	j, ok := r.Graph.QueryID(q2)
	if !ok {
		t.Fatalf("query %q not in graph", q2)
	}
	return r.QuerySim(i, j)
}

// Table 3 of the paper: plain SimRank on the Figure 4 graphs, C1=C2=0.8,
// per-iteration values. These are the paper's exact numbers.
func TestTable3SimrankIterations(t *testing.T) {
	wantK22 := []float64{0.4, 0.56, 0.624, 0.6496, 0.65984, 0.663936, 0.6655744}
	k22 := clickgraph.Fig4K22()
	k12 := clickgraph.Fig4K12()
	for k := 1; k <= 7; k++ {
		cfg := DefaultConfig()
		cfg.Iterations = k
		r := mustRunDense(t, k22, cfg)
		got := querySimByName(t, r, "camera", "digital camera")
		if !almostEqual(got, wantK22[k-1], tol) {
			t.Errorf("K2,2 iteration %d: sim(camera,digital camera) = %.10f, want %.10f", k, got, wantK22[k-1])
		}
		r12 := mustRunDense(t, k12, cfg)
		got12 := querySimByName(t, r12, "pc", "camera")
		if !almostEqual(got12, 0.8, tol) {
			t.Errorf("K1,2 iteration %d: sim(pc,camera) = %.10f, want 0.8", k, got12)
		}
	}
}

// Table 4 of the paper: evidence-based SimRank on the same graphs.
func TestTable4EvidenceIterations(t *testing.T) {
	wantK22 := []float64{0.3, 0.42, 0.468, 0.4872, 0.49488, 0.497952, 0.4991808}
	k22 := clickgraph.Fig4K22()
	k12 := clickgraph.Fig4K12()
	for k := 1; k <= 7; k++ {
		cfg := DefaultConfig().WithVariant(Evidence)
		cfg.Iterations = k
		r := mustRunDense(t, k22, cfg)
		got := querySimByName(t, r, "camera", "digital camera")
		if !almostEqual(got, wantK22[k-1], tol) {
			t.Errorf("K2,2 iteration %d: evidence sim = %.10f, want %.10f", k, got, wantK22[k-1])
		}
		r12 := mustRunDense(t, k12, cfg)
		got12 := querySimByName(t, r12, "pc", "camera")
		if !almostEqual(got12, 0.4, tol) {
			t.Errorf("K1,2 iteration %d: evidence sim = %.10f, want 0.4", k, got12)
		}
	}
}

// Theorem 6.2(i): on K_{m,2} vs K_{n,2} with m < n, plain SimRank scores
// the smaller graph's pair strictly higher at every iteration.
func TestTheorem62SimrankAnomaly(t *testing.T) {
	for _, mn := range [][2]int{{1, 2}, {2, 3}, {2, 5}, {3, 8}} {
		m, n := mn[0], mn[1]
		gm := completeBipartite(m, 2)
		gn := completeBipartite(n, 2)
		for k := 1; k <= 10; k++ {
			cfg := DefaultConfig()
			cfg.Iterations = k
			// The studied pair is the two ads (the 2-node side).
			rm := mustRunDense(t, gm, cfg)
			rn := mustRunDense(t, gn, cfg)
			am, _ := gm.AdID("a0")
			bm, _ := gm.AdID("a1")
			an, _ := gn.AdID("a0")
			bn, _ := gn.AdID("a1")
			sm, sn := rm.AdSim(am, bm), rn.AdSim(an, bn)
			if !(sm > sn) {
				t.Errorf("K%d,2 vs K%d,2 at k=%d: want sim %f > %f", m, n, k, sm, sn)
			}
		}
	}
}

// Theorem 7.1: with C1, C2 > 1/2, evidence-based SimRank reverses the
// anomaly for k > 1: the pair with more common neighbors scores higher.
//
// NOTE: the paper states this for all m < n and all k > 1, but its
// appendix only proves the K1,2 vs K2,2 case (Theorem B.2) and asserts the
// general case by "similar arguments" (Theorem B.3). As stated the claim
// is false in two ways, both recorded by the counterexample tests below:
// at small k the larger graph's score has not yet accumulated (K1,2 vs
// K8,2 violates it at k = 2), and for m >= 3 the evidence factor has
// already saturated so even the limits violate it (K3,2 vs K8,2).
//
// Here we verify what does hold: the proved (1, 2) case at every k > 1,
// and the limiting inequality for m ∈ {1, 2} against larger n.
func TestTheorem71EvidenceFixesAnomaly(t *testing.T) {
	evidenceSimKm2 := func(t *testing.T, m, k int) float64 {
		t.Helper()
		g := completeBipartite(m, 2)
		cfg := DefaultConfig().WithVariant(Evidence)
		cfg.Iterations = k
		r := mustRunDense(t, g, cfg)
		a, _ := g.AdID("a0")
		b, _ := g.AdID("a1")
		return r.AdSim(a, b)
	}
	for k := 2; k <= 10; k++ {
		s1, s2 := evidenceSimKm2(t, 1, k), evidenceSimKm2(t, 2, k)
		if !(s1 < s2) {
			t.Errorf("evidence K1,2 vs K2,2 at k=%d: want sim %f < %f", k, s1, s2)
		}
	}
	const limitK = 60
	for _, mn := range [][2]int{{1, 2}, {1, 5}, {1, 8}, {2, 3}, {2, 5}, {2, 8}} {
		sm := evidenceSimKm2(t, mn[0], limitK)
		sn := evidenceSimKm2(t, mn[1], limitK)
		if !(sm < sn) {
			t.Errorf("evidence limit K%d,2 vs K%d,2: want sim %f < %f", mn[0], mn[1], sm, sn)
		}
	}
}

// TestTheorem71CounterexampleLargeM records a counterexample to the
// paper's Theorem 7.1 as stated: on K3,2 vs K8,2 with C1 = C2 = 0.8,
// evidence-based SimRank still scores the K3,2 pair HIGHER, because the
// geometric evidence term saturates (1-2^-3 = 0.875 vs 1-2^-8 ≈ 0.996)
// more slowly than plain SimRank decays in m. The theorem holds only for
// small m (the appendix proves m=1 vs n=2). If this test ever fails, the
// engines changed behaviour — not the math.
func TestTheorem71CounterexampleLargeM(t *testing.T) {
	cfg := DefaultConfig().WithVariant(Evidence)
	cfg.Iterations = 10
	g3 := completeBipartite(3, 2)
	g8 := completeBipartite(8, 2)
	r3 := mustRunDense(t, g3, cfg)
	r8 := mustRunDense(t, g8, cfg)
	a3, _ := g3.AdID("a0")
	b3, _ := g3.AdID("a1")
	a8, _ := g8.AdID("a0")
	b8, _ := g8.AdID("a1")
	s3, s8 := r3.AdSim(a3, b3), r8.AdSim(a8, b8)
	if !(s3 > s8) {
		t.Errorf("counterexample vanished: K3,2 evidence sim %f, K8,2 %f — engines changed", s3, s8)
	}
}

// The closed forms of Appendix A must agree with the iterative engine.
func TestClosedFormsMatchEngine(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 8} {
		g := completeBipartite(m, 2)
		for k := 1; k <= 8; k++ {
			cfg := DefaultConfig()
			cfg.Iterations = k
			r := mustRunDense(t, g, cfg)
			a, _ := g.AdID("a0")
			b, _ := g.AdID("a1")
			got := r.AdSim(a, b)
			want := ClosedFormKm2(cfg.C1, cfg.C2, m, k)
			if !almostEqual(got, want, tol) {
				t.Errorf("K%d,2 k=%d: engine %.12f, closed form %.12f", m, k, got, want)
			}
			gotEv := mustRunDense(t, g, cfg.WithVariant(Evidence)).AdSim(a, b)
			wantEv := ClosedFormEvidenceKm2(EvidenceGeometric, cfg.C1, cfg.C2, m, k)
			if !almostEqual(gotEv, wantEv, tol) {
				t.Errorf("evidence K%d,2 k=%d: engine %.12f, closed form %.12f", m, k, gotEv, wantEv)
			}
		}
	}
	// K2,2 also has the explicit series form of Theorem A.1 and K1,2 the
	// constant of Theorem A.2. Side by side they are Theorem 6.1, the
	// anomaly that motivates evidence-based SimRank: the pair with two
	// common neighbors rises monotonically to its limit and still stays
	// strictly below the pair with one, at every k and in the limit.
	limit := ClosedFormK22Limit(0.8, 0.8)
	below := 0.0
	for k := 1; k <= 8; k++ {
		k22, k12 := ClosedFormK22(0.8, 0.8, k), ClosedFormK12(0.8, k)
		if got := ClosedFormKm2(0.8, 0.8, 2, k); !almostEqual(got, k22, tol) {
			t.Errorf("Km2(m=2) vs A.1 series at k=%d: %.12f vs %.12f", k, got, k22)
		}
		if got := ClosedFormKm2(0.8, 0.8, 1, k); !almostEqual(got, k12, tol) {
			t.Errorf("Km2(m=1) vs A.2 constant at k=%d: %.12f vs %.12f", k, got, k12)
		}
		if !(below < k22 && k22 < limit && k22 < k12) {
			t.Errorf("Theorem 6.1 at k=%d: K2,2 %.12f after %.12f, limit %.12f, K1,2 %.12f", k, k22, below, limit, k12)
		}
		below = k22
	}
	if far := ClosedFormK22(0.8, 0.8, 64); !almostEqual(far, limit, tol) || !(limit < ClosedFormK12(0.8, 64)) {
		t.Errorf("Theorem 6.1 in the limit: K2,2 at k=64 %.12f, limit %.12f, K1,2 %.12f", far, limit, ClosedFormK12(0.8, 64))
	}
}

// The sparse engine with no pruning must agree exactly with the dense
// engine on every variant, on the paper fixtures: its query side is the
// dense engine's at the configured depth, and its ad side, which the
// chain ends one depth deeper, the dense engine's at the next.
func TestSparseMatchesDenseOnFixtures(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3":    clickgraph.Fig3(),
		"fig4k22": clickgraph.Fig4K22(),
		"fig4k12": clickgraph.Fig4K12(),
		"fig5L":   fig5Left(),
		"fig5R":   fig5Right(),
		"k3_4":    completeBipartite(3, 4),
		"k5_2":    completeBipartite(5, 2),
	}
	for name, g := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			cfg := DefaultConfig().WithVariant(variant)
			cfg.Channel = ChannelClicks
			deeper := cfg
			deeper.Iterations++
			dq, da := mustRunDense(t, g, cfg), mustRunDense(t, g, deeper)
			s := mustRun(t, g, cfg)
			assertResultsEqual(t, name+"/"+variant.String(), g, dq, da, s, 1e-10)
		}
	}
	// Table 2's settings: SimRank on Figure 3 run to convergence. Run
	// measures Tolerance two depths back and RunDense one iteration back,
	// so they stop at different depths, both within 1e-9 of the fixpoint.
	cfg := DefaultConfig()
	cfg.Iterations, cfg.Tolerance = 1000, 1e-12
	g := clickgraph.Fig3()
	d, s := mustRunDense(t, g, cfg), mustRun(t, g, cfg)
	if !d.Converged || !s.Converged {
		t.Fatalf("table2: converged dense %v (%d iterations), sparse %v (%d)", d.Converged, d.Iterations, s.Converged, s.Iterations)
	}
	assertResultsEqual(t, "fig3/table2", g, d, d, s, 1e-9)
}

// assertResultsEqual compares every pair of got with the query side of dq
// and the ad side of da, within eps.
func assertResultsEqual(t *testing.T, label string, g *clickgraph.Graph, dq, da, got *Result, eps float64) {
	t.Helper()
	for i := 0; i < g.NumQueries(); i++ {
		for j := i + 1; j < g.NumQueries(); j++ {
			if av, bv := dq.QuerySim(i, j), got.QuerySim(i, j); !almostEqual(av, bv, eps) {
				t.Errorf("%s: query pair (%s,%s): dense %.12f sparse %.12f",
					label, g.Query(i), g.Query(j), av, bv)
			}
		}
	}
	for i := 0; i < g.NumAds(); i++ {
		for j := i + 1; j < g.NumAds(); j++ {
			if av, bv := da.AdSim(i, j), got.AdSim(i, j); !almostEqual(av, bv, eps) {
				t.Errorf("%s: ad pair (%s,%s): dense %.12f sparse %.12f",
					label, g.Ad(i), g.Ad(j), av, bv)
			}
		}
	}
}

// On the Figure 3 graph, SimRank must find the indirect pc–tv similarity
// that naive common-ad counting misses, and flower must stay dissimilar
// to everything (Table 2's qualitative content).
func TestFig3QualitativeStructure(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig()
	cfg.Iterations = 20
	r := mustRunDense(t, g, cfg)

	if s := querySimByName(t, r, "pc", "tv"); !(s > 0) {
		t.Errorf("sim(pc,tv) = %f, want > 0: SimRank should find the indirect link", s)
	}
	for _, q := range []string{"pc", "camera", "digital camera", "tv"} {
		if s := querySimByName(t, r, "flower", q); s != 0 {
			t.Errorf("sim(flower,%s) = %f, want 0: different component", q, s)
		}
	}
	// camera and digital camera are structurally symmetric in the fixture,
	// so they must have identical similarity to every other query.
	for _, q := range []string{"pc", "tv"} {
		a := querySimByName(t, r, "camera", q)
		b := querySimByName(t, r, "digital camera", q)
		if !almostEqual(a, b, tol) {
			t.Errorf("sim(camera,%s)=%f != sim(digital camera,%s)=%f", q, a, q, b)
		}
	}
	// The direct pair should beat the indirect pair.
	if direct, indirect := querySimByName(t, r, "camera", "digital camera"), querySimByName(t, r, "pc", "tv"); !(direct > indirect) {
		t.Errorf("sim(camera,digital camera)=%f should exceed sim(pc,tv)=%f", direct, indirect)
	}
}

// Evidence-based scores on Fig3 must rank camera–digital camera (2 common
// ads) above camera–tv (1 common ad) — the correction §6-§7 argue for.
func TestFig3EvidenceRanksByCommonAds(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig().WithVariant(Evidence)
	cfg.Iterations = 7
	r := mustRunDense(t, g, cfg)
	two := querySimByName(t, r, "camera", "digital camera")
	one := querySimByName(t, r, "camera", "tv")
	if !(two > one) {
		t.Errorf("evidence sim: camera-digital camera %f should exceed camera-tv %f", two, one)
	}
}

func TestScoresWithinUnitInterval(t *testing.T) {
	graphs := []*clickgraph.Graph{
		clickgraph.Fig3(), completeBipartite(4, 3), fig5Right(),
	}
	for _, g := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			cfg := DefaultConfig().WithVariant(variant)
			cfg.Channel = ChannelClicks
			cfg.Iterations = 15
			r := mustRunDense(t, g, cfg)
			for i := 0; i < g.NumQueries(); i++ {
				for j := i; j < g.NumQueries(); j++ {
					s := r.QuerySim(i, j)
					if s < 0 || s > 1 {
						t.Errorf("%v: sim(%s,%s) = %f outside [0,1]", variant, g.Query(i), g.Query(j), s)
					}
				}
			}
		}
	}
}

func TestConvergenceWithTolerance(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig()
	cfg.Iterations = 500
	cfg.Tolerance = 1e-10
	r := mustRunDense(t, g, cfg)
	if !r.Converged {
		t.Fatalf("dense engine did not converge in %d iterations", cfg.Iterations)
	}
	if r.Iterations >= 500 {
		t.Errorf("expected early stop, ran all %d iterations", r.Iterations)
	}
	s := mustRun(t, g, cfg)
	if !s.Converged {
		t.Fatalf("sparse engine did not converge")
	}
}

func TestConfigValidation(t *testing.T) {
	type invalid struct {
		name string
		mut  func(*Config)
	}
	cases := []invalid{
		{"zero C1", func(c *Config) { c.C1 = 0 }},
		{"C1 above 1", func(c *Config) { c.C1 = 1.5 }},
		{"zero C2", func(c *Config) { c.C2 = 0 }},
		{"negative C2", func(c *Config) { c.C2 = -0.1 }},
		{"zero iterations", func(c *Config) { c.Iterations = 0 }},
		{"bad variant", func(c *Config) { c.Variant = Variant(99) }},
		{"bad evidence form", func(c *Config) { c.EvidenceForm = EvidenceForm(99) }},
		{"bad channel", func(c *Config) { c.Channel = WeightChannel(99) }},
	}
	// Every threshold must refuse the plainly negative, and also NaN (which
	// compares false with everything) and +Inf (which is not negative).
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases,
			invalid{fmt.Sprintf("Tolerance=%v", bad), func(c *Config) { c.Tolerance = bad }},
			invalid{fmt.Sprintf("PruneEpsilon=%v", bad), func(c *Config) { c.PruneEpsilon = bad }},
			invalid{fmt.Sprintf("DeltaSkipTolerance=%v", bad), func(c *Config) { c.DeltaSkipTolerance = bad }},
		)
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config %+v", tc.name, cfg)
		}
		if _, err := RunDense(clickgraph.Fig3(), cfg); err == nil {
			t.Errorf("%s: RunDense accepted invalid config", tc.name)
		}
		if _, err := Run(clickgraph.Fig3(), cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

// Pruning must only remove small scores: with a tiny epsilon the result
// should still be close to exact.
func TestPruningApproximation(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig()
	exact := mustRun(t, g, cfg)
	cfg.PruneEpsilon = 1e-4
	approx := mustRun(t, g, cfg)
	for i := 0; i < g.NumQueries(); i++ {
		for j := i + 1; j < g.NumQueries(); j++ {
			e, a := exact.QuerySim(i, j), approx.QuerySim(i, j)
			if math.Abs(e-a) > 0.01 {
				t.Errorf("pruned score too far off for (%s,%s): exact %f approx %f",
					g.Query(i), g.Query(j), e, a)
			}
		}
	}
}
