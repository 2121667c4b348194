package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
	"simrankpp/internal/workload"
)

// Micro-benchmarks for profiling the kernel: one accumulation pass per op
// (the pull kernel serial and parallel against the map reference and the
// push kernel it replaced, and each of the pull's two paths forced
// on every component), and whole sharded runs with their stitch. Run with
//
//	go test -run='^$' -bench='Pass' -benchmem ./internal/core
//
// Recorded numbers come from pathbench (BENCHMARK.json), not from here.

// benchLogGraph builds the base graph of a generated click log.
func benchLogGraph(b *testing.B, lc workload.ClickLogConfig) *clickgraph.Graph {
	b.Helper()
	g, err := lc.BaseGraph(workload.GenerateClickLog(lc))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("graph: %d queries, %d ads, %d edges", g.NumQueries(), g.NumAds(), g.NumEdges())
	return g
}

// passBenchFixture is a passFixture on one dense cluster — large enough
// that the accumulation strategy dominates — warmed for three iterations
// so the measured pass sees a mid-run score distribution.
func passBenchFixture(b *testing.B, variant Variant) *passFixture {
	b.Helper()
	lc := workload.ClickLogConfig{Seed: 1, Clusters: 1, QueriesPerCluster: 500, AdsPerCluster: 350, BaseEvents: 4150}
	if testing.Short() {
		lc.QueriesPerCluster, lc.AdsPerCluster, lc.BaseEvents = 120, 90, 700
	}
	cfg := DefaultConfig().WithVariant(variant)
	cfg.Iterations = 3
	cfg.PruneEpsilon = 1e-5
	return newPassFixture(b, benchLogGraph(b, lc), cfg)
}

// runPassBench times one query-side pass of the fixture's variant under
// the arms every pass benchmark has: the map reference, the push kernel,
// the production pull kernel serial and on every core (each op plans the
// pass and fills its score blocks, as the engine's chain does), and the
// serial pull with every component forced down one path — "block"
// computes it as two products over score blocks (building its pair
// factors each op), "reach" gathers from the expansion and evaluates the
// reach — on candidates planned once, so those two arms time the gather
// and the pull alone.
func runPassBench(b *testing.B, fx *passFixture, reference func()) {
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			reference()
		}
	})
	for _, arm := range []struct {
		name    string
		pass    sidePass
		workers int
	}{{"push", pushSide, 1}, {"row-major", pullSide, 1}, {"parallel", pullSide, runtime.GOMAXPROCS(0)}} {
		b.Run(arm.name, func(b *testing.B) {
			dst := sparse.NewPairFrontier(fx.nq)
			spas := new(engineArena).ensureSPAs(arm.workers, fx.nq+fx.na)
			b.ReportAllocs()
			for b.Loop() {
				arm.pass(fx.in, fx.cfg, false, fx.prevA, fx.symA, dst, arm.workers, spas)
			}
		})
	}
	s := fx.in.side(fx.cfg, false)
	for _, blocks := range []bool{true, false} {
		name := "reach"
		if blocks {
			name = "block"
		}
		b.Run(name, func(b *testing.B) {
			cand := forcedCandidates(s, fx.prevA, fx.symA, blocks)
			dst := sparse.NewPairFrontier(fx.nq)
			spas := new(engineArena).ensureSPAs(1, fx.nq+fx.na)
			b.ReportAllocs()
			for b.Loop() {
				s.pass(fx.cfg, cand, dst, 1, spas)
			}
		})
	}
}

func BenchmarkSimplePass(b *testing.B) {
	fx := passBenchFixture(b, Simple)
	runPassBench(b, fx, func() { simplePassMap(fx.prevAM, fx.in.qNbr, fx.in.aNbr, fx.cfg.C1) })
}

func BenchmarkWeightedPass(b *testing.B) {
	fx := passBenchFixture(b, Weighted)
	ev := fx.evQ()
	runPassBench(b, fx, func() { weightedPassMap(fx.prevAM, fx.in.qNbr, fx.in.aNbr, fx.in.qW, ev, fx.cfg.C1) })
}

// shardBenchWorkload builds the multi-cluster graph of the sharded
// benchmarks, its plan and the run config. Graph and plan have the shape
// of the gated workload (pathbench cold-build), because the kernel's cost
// profile depends on it: many 65 × 45 clusters of ≈500 edges, three packed
// into each ≤ 400-node shard, so neighbor rows are short and a shard's
// accumulator spans several unrelated clusters. The config is PERF.md's
// production mode — weighted, pruning — with a convergence tolerance, so
// finished shards stop early.
func shardBenchWorkload(b *testing.B) (*clickgraph.Graph, *partition.Plan, Config) {
	b.Helper()
	lc := workload.ClickLogConfig{Seed: 7, Clusters: 60, QueriesPerCluster: 65, AdsPerCluster: 45}
	if testing.Short() {
		lc.Clusters = 12
	}
	lc.BaseEvents = lc.Clusters * 390 // + the 110-event coverage pass = 500 a cluster
	g := benchLogGraph(b, lc)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = 400
	pcfg.MinCutNodes = 100
	plan, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("plan: %d shards, exact=%v, %d cut edges", len(plan.Shards), plan.Exact, plan.TotalCutEdges)
	return g, plan, productionConfig()
}

// productionConfig is PERF.md's production mode: weighted, pruning and a
// convergence tolerance.
func productionConfig() Config {
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = 15
	cfg.Tolerance = 1e-4
	cfg.PruneEpsilon = 1e-5
	return cfg
}

// BenchmarkShardedRun compares one full weighted run of the multi-cluster
// workload monolithic vs sharded under the same config. The sharded engine
// stops finished shards entirely and runs shards concurrently on a bounded
// pool; its accumulators are sized per shard.
func BenchmarkShardedRun(b *testing.B) {
	g, plan, cfg := shardBenchWorkload(b)
	b.Run("monolithic", func(b *testing.B) {
		for b.Loop() {
			if _, err := Run(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for b.Loop() {
			if _, err := RunSharded(g, cfg, plan, ShardOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// giantGraph is one component of the shape of pathbench's giants: 650
// queries × 450 ads and 5 500 click records drawn as pathbench draws them,
// folded into 5 452 edges for seed 1.
func giantGraph(seed uint64) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	addUniformCluster(b, rand.New(rand.NewPCG(seed, 1)), "g", 650, 450, 5500)
	return b.Build()
}

// addUniformCluster adds records click records to b as pathbench draws a
// cluster's: a uniform query of nq and ad of na (named prefix+"q"/"a" and
// the index), 1–20 clicks at three impressions a click, an expected click
// rate in [0, 1).
func addUniformCluster(b *clickgraph.Builder, r *rand.Rand, prefix string, nq, na, records int) {
	for range records {
		q, ad := fmt.Sprintf("%sq%d", prefix, r.IntN(nq)), fmt.Sprintf("%sa%d", prefix, r.IntN(na))
		clicks := int64(r.IntN(20) + 1)
		w := clickgraph.EdgeWeights{Impressions: 3 * clicks, Clicks: clicks, ExpectedClickRate: float64(r.IntN(100)) / 100}
		if err := b.AddEdge(q, ad, w); err != nil {
			panic(err)
		}
	}
}

// BenchmarkDenseGiant times one production-mode run of an uncut giant
// (partition.WholePlan), the shard ROADMAP item 4's planner step would
// keep whole: both sides' scores turn dense within a few passes, so all
// but the first passes take the block path, over 650- and 450-node blocks
// of eleven strips and eight. It runs on every core, as RunSharded gives
// a lone shard the whole budget.
func BenchmarkDenseGiant(b *testing.B) {
	g := giantGraph(1)
	b.Logf("giant: %d queries, %d ads, %d edges, %d components", g.NumQueries(), g.NumAds(), g.NumEdges(), len(clickgraph.Components(g)))
	plan, cfg := partition.WholePlan(g), productionConfig()
	for b.Loop() {
		if _, err := RunSharded(g, cfg, plan, ShardOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedStitch times the hand-off from shard engines to the
// stitched Result on the multi-cluster workload: every shard's final
// frontiers copied into the global frontiers' disjoint rows (here serially,
// from standalone shard runs; in RunSharded each engine emits its own
// shard straight from its arena as it finishes), then the run-metadata
// merge.
func BenchmarkShardedStitch(b *testing.B) {
	g, plan, cfg := shardBenchWorkload(b)
	views := make([]*clickgraph.Subview, len(plan.Shards))
	locals := make([]*Result, len(plan.Shards))
	outs := make([]shardOut, len(plan.Shards))
	pairs := 0
	for i := range plan.Shards {
		v, err := clickgraph.NewSubview(g, plan.Shards[i].Queries, plan.Shards[i].Ads, clickgraph.AdTable(g, plan.Shards[i].Ads))
		if err != nil {
			b.Fatal(err)
		}
		r, err := Run(v.Graph, cfg)
		if err != nil {
			b.Fatal(err)
		}
		views[i], locals[i] = v, r
		outs[i] = shardOut{res: &Result{Converged: true}}
		pairs += r.QueryScores.Len() + r.AdScores.Len()
	}
	b.ReportAllocs()
	for b.Loop() {
		qScores := sparse.NewPairFrontier(g.NumQueries())
		aScores := sparse.NewPairFrontier(g.NumAds())
		for i, r := range locals {
			qScores.SetRowsRemapped(r.QueryScores, views[i].QueryIDs)
			aScores.SetRowsRemapped(r.AdScores, views[i].AdIDs)
		}
		stitch(g, cfg, qScores, aScores, outs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}
