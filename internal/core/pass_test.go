package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// passFixture builds the pass inputs plus a realistic mid-iteration score
// state in every representation the passes consume: the map table the
// reference reads, and the frontier and its symmetric adjacency the
// kernel reads — all in the engine's numbering (memberIndex).
type passFixture struct {
	in     *passInputs
	cfg    Config
	nq, na int
	prevAM *sparse.PairTable
	prevA  *sparse.PairFrontier // the ad side, the query pass's input
	symA   *sparse.SymAdj
	prevQ  *sparse.PairFrontier // the query side one pass earlier
}

// newPassFixture warms cfg's engine on g and captures the ad-side scores
// as the query-side pass's input.
func newPassFixture(t testing.TB, g *clickgraph.Graph, cfg Config) *passFixture {
	t.Helper()
	warm, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := newPassInputs(g, cfg)
	prevA := toLayout(in.aIdx, warm.AdScores)
	return &passFixture{
		in:     in,
		cfg:    cfg,
		nq:     g.NumQueries(),
		na:     g.NumAds(),
		prevAM: toPairTable(prevA),
		prevA:  prevA,
		symA:   prevA.ExpandSymmetric(nil),
		prevQ:  toLayout(in.qIdx, warm.QueryScores),
	}
}

// evQ is the query side's per-pair evidence table, which the map
// reference reads.
func (fx *passFixture) evQ() *evidenceTable {
	return sortedEvidenceTable(fx.nq, fx.in.aNbr, fx.cfg.EvidenceForm, fx.cfg.StrictEvidence)
}

// cand plans the query-side pass as the engine's chain would from the
// fixture's ad scores.
func (fx *passFixture) cand() candidates {
	return plannedCandidates(fx.in.side(fx.cfg, false), fx.prevA, fx.symA)
}

// randomPassFixture is the fixture of the differential tests: a small
// random graph three iterations into a clicks-channel run.
func randomPassFixture(t *testing.T, seed uint64, nq, na, edges int, variant Variant) *passFixture {
	cfg := DefaultConfig().WithVariant(variant)
	cfg.Channel = ChannelClicks
	cfg.Iterations = 3
	return newPassFixture(t, randomGraph(seed, nq, na, edges), cfg)
}

func assertFrontierMatchesTable(t *testing.T, label string, f *sparse.PairFrontier, m *sparse.PairTable, eps float64) {
	t.Helper()
	if f.Len() != m.Len() {
		t.Fatalf("%s: %d pairs (frontier) vs %d (map)", label, f.Len(), m.Len())
	}
	m.Range(func(i, j int, mv float64) bool {
		fv, ok := f.Get(i, j)
		if !ok || math.Abs(fv-mv) > eps {
			t.Fatalf("%s: pair (%d,%d) frontier %v,%v map %v", label, i, j, fv, ok, mv)
		}
		return true
	})
}

// TestSimplePassMatchesMap differentially pins the row-major pass, serial
// and at every worker count, against the map reference.
func TestSimplePassMatchesMap(t *testing.T) {
	for _, seed := range []uint64{1, 17, 99, 2026} {
		fx := randomPassFixture(t, seed, 12, 10, 40, Simple)
		want := simplePassMap(fx.prevAM, fx.in.qNbr, fx.in.aNbr, fx.cfg.C1)
		for _, workers := range []int{1, 2, 3, 8} {
			spas := new(engineArena).ensureSPAs(workers, fx.nq+fx.na)
			got := sparse.NewPairFrontier(fx.nq)
			simplePass(fx.in.qNbr, fx.in.aNbr, fx.cand(), fx.cfg.C1, got, workers, spas)
			assertFrontierMatchesTable(t, fmt.Sprintf("seed %d workers %d", seed, workers), got, want, 1e-12)
		}
	}
}

// TestWeightedPassMatchesMap does the same for the weighted pass, whose
// map reference scatters through the reversed factor rows the pull does
// without.
func TestWeightedPassMatchesMap(t *testing.T) {
	for _, seed := range []uint64{3, 21, 404} {
		fx := randomPassFixture(t, seed, 11, 9, 35, Weighted)
		want := weightedPassMap(fx.prevAM, fx.in.qNbr, fx.in.aNbr, fx.in.qW, fx.evQ(), fx.cfg.C1)
		for _, workers := range []int{1, 2, 5} {
			spas := new(engineArena).ensureSPAs(workers, fx.nq+fx.na)
			got := sparse.NewPairFrontier(fx.nq)
			weightedPass(fx.in.qNbr, fx.in.aNbr, fx.in.qW, fx.in.ev, fx.cand(), fx.cfg.C1, got, workers, spas)
			assertFrontierMatchesTable(t, fmt.Sprintf("seed %d workers %d", seed, workers), got, want, 1e-12)
		}
	}
}

// TestWeightedPassZeroFactors: on the rate channel an edge whose expected
// click rate is 0 carries walk factor 0, so its contributions are exact
// zeros. The kernel may accumulate them but must not store them: the pass
// still equals the map reference pair for pair.
func TestWeightedPassZeroFactors(t *testing.T) {
	cfg := DefaultConfig().WithVariant(Weighted) // rate channel
	cfg.Iterations = 3
	fx := newPassFixture(t, zeroRateGraph(7), cfg)
	zeros := 0
	for _, row := range fx.in.qW {
		for _, f := range row {
			if f == 0 {
				zeros++
			}
		}
	}
	if zeros < 5 {
		t.Fatalf("fixture has %d zero walk factors, want several", zeros)
	}
	want := weightedPassMap(fx.prevAM, fx.in.qNbr, fx.in.aNbr, fx.in.qW, fx.evQ(), fx.cfg.C1)
	got := sparse.NewPairFrontier(fx.nq)
	weightedPass(fx.in.qNbr, fx.in.aNbr, fx.in.qW, fx.in.ev, fx.cand(), fx.cfg.C1, got, 1, new(engineArena).ensureSPAs(1, fx.nq+fx.na))
	assertFrontierMatchesTable(t, "zero factors", got, want, 1e-12) // compares Len too
	got.Range(func(i, j int, v float64) bool {
		if v == 0 {
			t.Fatalf("stored a zero-valued pair (%d,%d)", i, j)
		}
		return true
	})
}

// TestCountedEvidenceMatchesSorted holds the evidence the engine counts
// to the sort-built per-pair table (sortedEvidenceTable) on both sides of
// the paper fixtures and of random graphs — sparse, dense enough that most
// pairs share several neighbors, and with isolated nodes — under both
// evidence forms, strict and not, every multiplier equal bit for bit.
// applyEvidence runs over every pair of the side at score 1, so it must
// store exactly the table's multiplier and drop the pairs whose
// multiplier is zero. The weighted pull
// runs twice on the same mid-run scores with c = 1: with every multiplier
// 1, which stores each cell's dot product t, and with the counted ones,
// whose cell must be exactly the table's multiplier times t, and absent
// where that multiplier is zero.
func TestCountedEvidenceMatchesSorted(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3":    clickgraph.Fig3(),
		"fig4k22": clickgraph.Fig4K22(),
		"fig4k12": clickgraph.Fig4K12(),
		"fig5L":   fig5Left(),
		"fig5R":   fig5Right(),
		"k5_2":    completeBipartite(5, 2),
		"sparse":  randomGraph(7, 150, 90, 400),
		"dense":   randomGraph(11, 70, 40, 1500),
	}
	for name, g := range graphs {
		cfg := DefaultConfig().WithVariant(Weighted)
		cfg.Iterations = 3
		warm := mustRun(t, g, cfg)
		for _, form := range []EvidenceForm{EvidenceGeometric, EvidenceExponential} {
			for _, strict := range []bool{false, true} {
				cfg.EvidenceForm, cfg.StrictEvidence = form, strict
				in := newPassInputs(g, cfg)
				ones := slices.Repeat([]float64{1}, len(in.ev))
				for _, ads := range []bool{false, true} {
					label := fmt.Sprintf("%s/ads=%v/%v/strict=%v", name, ads, form, strict)
					s := in.side(cfg, ads)
					n := len(s.thisNbr)
					want := sortedEvidenceTable(n, s.oppNbr, form, strict)
					sp := new(engineArena).ensureSPAs(1, n+len(s.oppNbr))

					all := everyPair(n)
					sp[0].applyEvidence(all, s.thisNbr, in.ev)
					kept := 0
					for x := 0; x < n; x++ {
						for p := x + 1; p < n; p++ {
							e := want.score(x, p)
							v, ok := all.Get(x, p)
							if e == 0 {
								if ok {
									t.Fatalf("%s: (%d,%d) shares no neighbor but was kept (%v)", label, x, p, v)
								}
								continue
							}
							kept++
							if !ok || math.Float64bits(v) != math.Float64bits(e) {
								t.Fatalf("%s: (%d,%d) applied %v,%v; the sorted table has %v", label, x, p, v, ok, e)
							}
						}
					}
					if all.Len() != kept {
						t.Fatalf("%s: applyEvidence kept %d pairs, want %d", label, all.Len(), kept)
					}

					opp := warm.AdScores
					if ads {
						opp = warm.QueryScores
					}
					opp = toLayout(s.oppIdx, opp)
					cand := plannedCandidates(s, opp, opp.ExpandSymmetric(nil))
					dots, got := sparse.NewPairFrontier(n), sparse.NewPairFrontier(n)
					weightedPass(s.thisNbr, s.oppNbr, s.w, ones, cand, 1, dots, 1, sp)
					weightedPass(s.thisNbr, s.oppNbr, s.w, s.ev, cand, 1, got, 1, sp)
					if dots.Len() == 0 && len(want.mult.Col) > 0 {
						t.Fatalf("%s: the pull stored no cell, though pairs share neighbors", label)
					}
					kept = 0
					dots.Range(func(x, p int, tv float64) bool {
						e := want.score(x, p)
						v, ok := got.Get(x, p)
						if e == 0 {
							if ok {
								t.Fatalf("%s: the pull stored (%d,%d) = %v, which shares no neighbor", label, x, p, v)
							}
							return true
						}
						kept++
						if !ok || math.Float64bits(v) != math.Float64bits(e*tv) {
							t.Fatalf("%s: the pull stored (%d,%d) = %v,%v, want %v × %v", label, x, p, v, ok, e, tv)
						}
						return true
					})
					if got.Len() != kept {
						t.Fatalf("%s: the pull stored %d cells, want %d", label, got.Len(), kept)
					}
				}
			}
		}
	}
}

// everyPair returns a frontier over n nodes holding every pair at score 1.
func everyPair(n int) *sparse.PairFrontier {
	f := sparse.NewPairFrontier(n)
	var cols []int32
	var vals []float64
	for x := 0; x < n; x++ {
		cols, vals = cols[:0], vals[:0]
		for p := x + 1; p < n; p++ {
			cols, vals = append(cols, int32(p)), append(vals, 1)
		}
		f.SetSortedRow(x, cols, vals)
	}
	return f
}

// TestStrictEvidenceEmitsNoDisjointPair: under StrictEvidence a weighted
// pair whose nodes share no neighbor has evidence zero, so no pass may
// store it — whichever path computes it, the block path's products or the
// row path's reach — on either side of graphs mid-run, and neither does the engine.
// Without strict evidence the same passes store such pairs on both paths,
// so the fixtures do reach them.
func TestStrictEvidenceEmitsNoDisjointPair(t *testing.T) {
	graphs := map[string]*clickgraph.Graph{
		"fig3":   clickgraph.Fig3(),
		"random": randomGraph(7, 30, 22, 90),
		"multi":  multiComponentGraph(5, 6, 14, 10, 40),
		"ring":   ringGraph(6),
	}
	shares := func(a, b []int) bool {
		for _, j := range a {
			if _, ok := slices.BinarySearch(b, j); ok {
				return true
			}
		}
		return false
	}
	loose := map[bool]int{} // pairs without a common neighbor stored unstrict, by path
	for name, g := range graphs {
		for _, strict := range []bool{false, true} {
			cfg := DefaultConfig().WithVariant(Weighted)
			cfg.Iterations = 3
			cfg.StrictEvidence = strict
			res := mustRun(t, g, cfg)
			in := newPassInputs(g, cfg)
			for _, ads := range []bool{false, true} {
				s := in.side(cfg, ads)
				opp, own := res.AdScores, res.QueryScores
				if ads {
					opp, own = res.QueryScores, res.AdScores
				}
				opp, own = toLayout(s.oppIdx, opp), toLayout(s.idx, own)
				disjoint := func(f *sparse.PairFrontier) (n int) {
					f.Range(func(x, p int, _ float64) bool {
						if !shares(s.thisNbr[x], s.thisNbr[p]) {
							n++
						}
						return true
					})
					return n
				}
				label := fmt.Sprintf("%s/ads=%v/strict=%v", name, ads, strict)
				if n := disjoint(own); strict && n > 0 {
					t.Fatalf("%s: the engine stored %d pairs without a common neighbor", label, n)
				}
				sym := opp.ExpandSymmetric(nil)
				spas := new(engineArena).ensureSPAs(1, g.NumQueries()+g.NumAds())
				for _, dense := range []bool{true, false} {
					got := sparse.NewPairFrontier(len(s.thisNbr))
					weightedPass(s.thisNbr, s.oppNbr, s.w, s.ev, forcedCandidates(s, opp, sym, dense), s.c, got, 1, spas)
					n := disjoint(got)
					if strict && n > 0 {
						t.Fatalf("%s/range=%v: the pass stored %d pairs without a common neighbor", label, dense, n)
					}
					if !strict {
						loose[dense] += n
					}
				}
			}
		}
	}
	if loose[true] == 0 || loose[false] == 0 {
		t.Fatalf("unstrict passes stored %d (range) and %d (reach) pairs without a common neighbor; the fixtures test nothing", loose[true], loose[false])
	}
}

// assertBitIdentical fails unless both results store exactly the same
// pairs with exactly the same float64 values on both sides.
func assertBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	check := func(side string, as, bs *sparse.PairFrontier) {
		as.Range(func(i, j int, v float64) bool {
			if bv, ok := bs.Get(i, j); !ok || bv != v {
				t.Fatalf("%s: %s pair (%d,%d) %v vs %v,%v", label, side, i, j, v, bv, ok)
			}
			return true
		})
		if as.Len() != bs.Len() {
			t.Fatalf("%s: %s pair count %d vs %d", label, side, as.Len(), bs.Len())
		}
	}
	check("query", a.QueryScores, b.QueryScores)
	check("ad", a.AdScores, b.AdScores)
}

// bitIdenticalConfigs is the config matrix the bit-identicality tests run:
// every variant, plus the evidence-strictness and pruning knobs that alter
// the emit.
func bitIdenticalConfigs() []Config {
	var cfgs []Config
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		cfg := DefaultConfig().WithVariant(variant)
		cfg.Channel = ChannelClicks
		cfgs = append(cfgs, cfg)
	}
	strict := DefaultConfig().WithVariant(Weighted)
	strict.Channel = ChannelClicks
	strict.StrictEvidence = true
	cfgs = append(cfgs, strict)

	strictEv := DefaultConfig().WithVariant(Evidence)
	strictEv.StrictEvidence = true
	cfgs = append(cfgs, strictEv)

	prunedW := DefaultConfig().WithVariant(Weighted) // rate channel: scores survive pruning
	prunedW.PruneEpsilon = 1e-4
	cfgs = append(cfgs, prunedW)

	prunedS := DefaultConfig()
	prunedS.PruneEpsilon = 1e-3
	cfgs = append(cfgs, prunedS)
	return cfgs
}

// TestParallelBitIdentical: each output row is computed by exactly one
// worker in the serial kernel order, so a multi-worker runEngine must equal
// Run bit-for-bit, not just within rounding — across variants, strict
// evidence, and pruning.
func TestParallelBitIdentical(t *testing.T) {
	g := randomGraph(31, 14, 11, 50)
	for _, cfg := range bitIdenticalConfigs() {
		serial := mustRun(t, g, cfg)
		par, err := runEngine(g, cfg, 5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%v strict=%v prune=%g", cfg.Variant, cfg.StrictEvidence, cfg.PruneEpsilon)
		assertBitIdentical(t, label, serial, par)
	}
}

// TestDeltaSkipToleranceChangesNoScore: the engines compute every row of
// every pass, so DeltaSkipTolerance, which pathbench still sets and
// snapshot headers still record, changes no score. An uncut giant under
// the production mode without its tolerance stop, 20 depths deep, scores
// the same bits and reaches the same depth at tolerances 1e-5 and 0.
func TestDeltaSkipToleranceChangesNoScore(t *testing.T) {
	g, cfg := giantGraph(1), productionConfig()
	cfg.Tolerance, cfg.Iterations = 0, 20
	cfg.DeltaSkipTolerance = 0
	exact := mustRun(t, g, cfg)
	cfg.DeltaSkipTolerance = 1e-5
	scaled := mustRun(t, g, cfg)
	requireTablesBitIdentical(t, "queries", exact.QueryScores, scaled.QueryScores)
	requireTablesBitIdentical(t, "ads", exact.AdScores, scaled.AdScores)
	if exact.Iterations != scaled.Iterations {
		t.Fatalf("depth %d at tolerance 0, %d at 1e-5", exact.Iterations, scaled.Iterations)
	}
}

// TestTopRewritesConcurrent guards the serving pattern the partner index
// exists for: many goroutines querying one read-only Result. The lazy
// index build must be safe under -race.
func TestTopRewritesConcurrent(t *testing.T) {
	g := randomGraph(8, 15, 12, 60)
	res := mustRun(t, g, DefaultConfig())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < g.NumQueries(); q++ {
				res.TopRewrites(q, 3)
			}
		}(w)
	}
	wg.Wait()
	want := res.TopRewrites(0, 3)
	if len(want) == 0 {
		t.Fatal("expected rewrites for query 0")
	}
}

// TestTopRewritesMatchesPairTableIndex holds the frontier-backed ranked
// lookups to a full scan of the same pairs in a PairTable, both sides,
// every depth, including nodes with no partners and ids out of range.
func TestTopRewritesMatchesPairTableIndex(t *testing.T) {
	res := mustRun(t, randomGraph(8, 15, 12, 60), DefaultConfig())
	for _, side := range []struct {
		name string
		f    *sparse.PairFrontier
		top  func(i, k int) []sparse.Scored
	}{{"query", res.QueryScores, res.TopRewrites}, {"ad", res.AdScores, res.TopSimilarAds}} {
		ref := toPairTable(side.f)
		for _, k := range []int{-1, 0, 1, 3, 100} {
			for i := -1; i <= side.f.NumRows(); i++ {
				got, want := side.top(i, k), ref.TopKFor(i, k)
				if len(want) == 0 {
					want = nil // the scan keeps an empty non-nil slice at k = 0
				}
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s %d k=%d: %v, PairTable scan %v", side.name, i, k, got, want)
				}
			}
		}
	}
}

// TestRunReusesFrontiersAcrossIterations guards the ping-pong reuse: many
// iterations on the same graph must converge to the dense fixpoint even
// with pruning re-emptying rows between passes.
func TestRunReusesFrontiersAcrossIterations(t *testing.T) {
	g := randomGraph(5, 10, 8, 30)
	for _, variant := range []Variant{Simple, Evidence, Weighted} {
		cfg := DefaultConfig().WithVariant(variant)
		cfg.Channel = ChannelClicks
		cfg.Iterations = 25
		cfg.PruneEpsilon = 1e-7
		d, err := RunDense(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.NumQueries(); i++ {
			for j := i + 1; j < g.NumQueries(); j++ {
				// Pruning at 1e-7 over 25 iterations stays well inside 1e-4.
				if dv, sv := d.QuerySim(i, j), s.QuerySim(i, j); math.Abs(dv-sv) > 1e-4 {
					t.Fatalf("%v: sim(%d,%d) dense %v frontier %v", variant, i, j, dv, sv)
				}
			}
		}
	}
}
