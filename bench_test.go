// Package simrankpp_test benchmarks every table and figure of the
// Simrank++ paper's evaluation section, plus ablations of the choices the
// paper leaves open or this reproduction adds: the two evidence forms
// (Eq. 7.3 / 7.4), the decay factor, threshold pruning, the weighted
// walk's spread factor and strict vs pass-through evidence. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report quality numbers (coverage, P@1, prediction
// accuracy) as custom metrics alongside runtime.
package simrankpp_test

import (
	"sync"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/eval"
	"simrankpp/internal/experiments"
	"simrankpp/internal/partition"
	"simrankpp/internal/workload"
)

// benchDatasetConfig is a reduced dataset so the full bench suite runs in
// minutes; cmd/experiments runs the full-size version.
func benchDatasetConfig() experiments.DatasetConfig {
	cfg := experiments.DefaultDatasetConfig()
	cfg.Universe.Categories = 8
	cfg.Universe.SubtopicsPerCategory = 5
	cfg.Universe.IntentsPerSubtopic = 5
	cfg.Sponsored.Sessions = 250000
	cfg.MinSubgraphNodes = 150
	return cfg
}

var (
	dsOnce sync.Once
	dsVal  *experiments.Dataset
	dsRuns []experiments.MethodRun
	dsErr  error
)

func benchDataset(b *testing.B) (*experiments.Dataset, []experiments.MethodRun) {
	b.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = experiments.BuildDataset(benchDatasetConfig())
		if dsErr != nil {
			return
		}
		dsRuns, dsErr = experiments.RunMethods(dsVal)
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsVal, dsRuns
}

// BenchmarkTable1CommonAdCounts regenerates Table 1: naive common-ad
// counting on the Figure 3 graph.
func BenchmarkTable1CommonAdCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if m := experiments.Table1(); len(m.Labels) != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkTable2SimrankToy regenerates Table 2: SimRank to convergence
// on the Figure 3 graph.
func BenchmarkTable2SimrankToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CompleteBipartite regenerates Table 3: 7 iterations of
// SimRank on the Figure 4 graphs.
func BenchmarkTable3CompleteBipartite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4EvidenceToy regenerates Table 4: evidence-based SimRank
// on the Figure 4 graphs.
func BenchmarkTable4EvidenceToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Partition regenerates Table 5: ACL extraction of the
// five subgraphs from the simulated log (dataset statistics).
func BenchmarkTable5Partition(b *testing.B) {
	ds, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5 := experiments.Table5(ds)
		if t5.Total.Queries == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkFig8Coverage regenerates Figure 8 and reports each method's
// coverage as a custom metric.
func BenchmarkFig8Coverage(b *testing.B) {
	ds, runs := benchDataset(b)
	var rep *experiments.CoverageReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig8(ds, runs)
	}
	b.ReportMetric(rep.Coverage["pearson"]*100, "pearson-cov%")
	b.ReportMetric(rep.Coverage["simrank"]*100, "simrank-cov%")
	b.ReportMetric(rep.Coverage["evidence-based simrank"]*100, "evidence-cov%")
	b.ReportMetric(rep.Coverage["weighted simrank"]*100, "weighted-cov%")
}

// BenchmarkFig9PrecisionRecall regenerates Figure 9 (positive class =
// grades {1,2}) and reports P@1 per method.
func BenchmarkFig9PrecisionRecall(b *testing.B) {
	_, runs := benchDataset(b)
	var rep *experiments.PRReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig9(runs)
	}
	b.ReportMetric(rep.PAtX["pearson"][0]*100, "pearson-P@1%")
	b.ReportMetric(rep.PAtX["simrank"][0]*100, "simrank-P@1%")
	b.ReportMetric(rep.PAtX["evidence-based simrank"][0]*100, "evidence-P@1%")
	b.ReportMetric(rep.PAtX["weighted simrank"][0]*100, "weighted-P@1%")
}

// BenchmarkFig10PrecisionAt1 regenerates Figure 10 (positive class =
// grade 1 only).
func BenchmarkFig10PrecisionAt1(b *testing.B) {
	_, runs := benchDataset(b)
	var rep *experiments.PRReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig10(runs)
	}
	b.ReportMetric(rep.PAtX["pearson"][0]*100, "pearson-P@1%")
	b.ReportMetric(rep.PAtX["weighted simrank"][0]*100, "weighted-P@1%")
}

// BenchmarkFig11Depth regenerates Figure 11 and reports the fraction of
// queries with the full 5 rewrites.
func BenchmarkFig11Depth(b *testing.B) {
	_, runs := benchDataset(b)
	var rep *experiments.DepthReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig11(runs)
	}
	b.ReportMetric(rep.AtLeast["pearson"][4]*100, "pearson-depth5%")
	b.ReportMetric(rep.AtLeast["weighted simrank"][4]*100, "weighted-depth5%")
}

// BenchmarkFig12Desirability regenerates Figure 12 (the edge-removal
// desirability experiment) and reports per-method prediction accuracy.
func BenchmarkFig12Desirability(b *testing.B) {
	ds, _ := benchDataset(b)
	var rep *experiments.DesirabilityReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Fig12(ds, 30, 777)
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.Trials > 0 {
		f := 100 / float64(rep.Trials)
		b.ReportMetric(float64(rep.Correct["simrank"])*f, "simrank-correct%")
		b.ReportMetric(float64(rep.Correct["evidence-based simrank"])*f, "evidence-correct%")
		b.ReportMetric(float64(rep.Correct["weighted simrank"])*f, "weighted-correct%")
	}
}

// --- Engine microbenchmarks -------------------------------------------

// benchGraph builds a mid-size synthetic click graph once.
var (
	graphOnce sync.Once
	benchG    *clickgraph.Graph
)

func midGraph(b *testing.B) *clickgraph.Graph {
	b.Helper()
	graphOnce.Do(func() {
		ds, err := experiments.BuildDataset(benchDatasetConfig())
		if err != nil {
			panic(err)
		}
		benchG = ds.Combined
	})
	return benchG
}

func benchEngine(b *testing.B, variant core.Variant, eps float64) {
	g := midGraph(b)
	cfg := core.DefaultConfig().WithVariant(variant)
	cfg.PruneEpsilon = eps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimple times all-pairs simple SimRank on the combined
// dataset graph.
func BenchmarkEngineSimple(b *testing.B) { benchEngine(b, core.Simple, 1e-5) }

// BenchmarkEngineEvidence times all-pairs evidence-based SimRank.
func BenchmarkEngineEvidence(b *testing.B) { benchEngine(b, core.Evidence, 1e-5) }

// BenchmarkEngineWeighted times all-pairs weighted SimRank.
func BenchmarkEngineWeighted(b *testing.B) { benchEngine(b, core.Weighted, 1e-5) }

// BenchmarkLocalRewriteLatency times the online single-query path: the
// latency a front-end pays per incoming query.
func BenchmarkLocalRewriteLatency(b *testing.B) {
	g := midGraph(b)
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	lc := core.DefaultLocalConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % g.NumQueries()
		if _, err := core.LocalSimilarities(g, q, cfg, lc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPRPush times one ACL approximate-PageRank push.
func BenchmarkPPRPush(b *testing.B) {
	g := midGraph(b)
	cfg := partition.DefaultPPRConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := partition.QueryNode(i % g.NumQueries())
		if _, err := partition.ApproximatePageRank(g, seed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationEvidenceForms compares the geometric (Eq. 7.3) and
// exponential (Eq. 7.4) evidence forms; the paper found "no substantial
// differences", and the reported P@1 metrics let us check.
func BenchmarkAblationEvidenceForms(b *testing.B) {
	for _, form := range []core.EvidenceForm{core.EvidenceGeometric, core.EvidenceExponential} {
		b.Run(form.String(), func(b *testing.B) {
			g := midGraph(b)
			cfg := core.DefaultConfig().WithVariant(core.Evidence)
			cfg.EvidenceForm = form
			cfg.PruneEpsilon = 1e-5
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDecay sweeps the decay factor C (= C1 = C2).
func BenchmarkAblationDecay(b *testing.B) {
	for _, c := range []float64{0.6, 0.8, 0.9} {
		b.Run(formatC(c), func(b *testing.B) {
			g := midGraph(b)
			cfg := core.DefaultConfig().WithVariant(core.Weighted)
			cfg.C1, cfg.C2 = c, c
			cfg.PruneEpsilon = 1e-5
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func formatC(c float64) string {
	switch c {
	case 0.6:
		return "C=0.6"
	case 0.8:
		return "C=0.8"
	default:
		return "C=0.9"
	}
}

// BenchmarkAblationPruneEpsilon trades the sparse engine's accuracy for
// speed: larger epsilon prunes more pairs per iteration. The pair-count
// metric shows the table shrinking.
func BenchmarkAblationPruneEpsilon(b *testing.B) {
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"exact", 0}, {"eps=1e-6", 1e-6}, {"eps=1e-4", 1e-4}, {"eps=1e-2", 1e-2}} {
		b.Run(tc.name, func(b *testing.B) {
			g := midGraph(b)
			cfg := core.DefaultConfig()
			cfg.PruneEpsilon = tc.eps
			var pairs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pairs = res.QueryScores.Len()
			}
			b.ReportMetric(float64(pairs), "query-pairs")
		})
	}
}

// BenchmarkAblationSpread isolates the e^{-variance} spread factor inside
// weighted SimRank's transition model.
func BenchmarkAblationSpread(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"with-spread", false}, {"no-spread", true}} {
		b.Run(tc.name, func(b *testing.B) {
			ds, _ := benchDataset(b)
			trials := eval.BuildTrials(ds.Combined, core.ChannelRate, 25, 777)
			cfg := core.DefaultConfig().WithVariant(core.Weighted)
			cfg.DisableSpread = tc.disable
			cfg.PruneEpsilon = 1e-6
			lc := core.DefaultLocalConfig()
			lc.Radius = 6
			var correct, total int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				correct, total, err = eval.RunDesirability(trials, eval.LocalScorer(cfg, lc))
				if err != nil {
					b.Fatal(err)
				}
			}
			if total > 0 {
				b.ReportMetric(float64(correct)/float64(total)*100, "desirability-correct%")
			}
		})
	}
}

// BenchmarkAblationStrictEvidence compares pass-through evidence (the
// default, required to reproduce the paper's experiments) against the
// literal Equation 7.3 semantics, reporting coverage-style reach: how
// many query pairs carry a nonzero score.
func BenchmarkAblationStrictEvidence(b *testing.B) {
	for _, tc := range []struct {
		name   string
		strict bool
	}{{"pass-through", false}, {"strict-eq73", true}} {
		b.Run(tc.name, func(b *testing.B) {
			g := midGraph(b)
			cfg := core.DefaultConfig().WithVariant(core.Evidence)
			cfg.StrictEvidence = tc.strict
			cfg.PruneEpsilon = 1e-5
			var pairs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pairs = res.QueryScores.Len()
			}
			b.ReportMetric(float64(pairs), "scored-pairs")
		})
	}
}

// BenchmarkWorkloadGeneration times universe + log simulation, the
// substrate the whole evaluation rests on.
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := workload.DefaultUniverseConfig()
	cfg.Categories = 6
	for i := 0; i < b.N; i++ {
		if _, err := workload.BuildUniverse(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
