package core

import (
	"strings"
	"testing"

	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// Micro-benchmarks for the iteration hot path: one accumulation pass per
// op, map baseline vs frontier-scatter vs the default row-major pass
// (serial and parallel). Run with
//
//	go test -run='^$' -bench='Pass' -benchmem ./internal/core
//
// cmd/corebench runs the same bodies and records BENCH_core.json.

func benchPassConfig(b *testing.B) PassBenchConfig {
	bc := DefaultPassBenchConfig()
	if testing.Short() {
		bc.Queries, bc.Ads, bc.Edges = 120, 90, 900
	}
	b.Logf("graph: %d queries, %d ads, %d edges, %d workers", bc.Queries, bc.Ads, bc.Edges, bc.Workers)
	return bc
}

func runPassBenchCases(b *testing.B, prefix string) {
	bc := benchPassConfig(b)
	for _, c := range PassBenchCases(bc) {
		group, variant, _ := strings.Cut(c.Name, "/")
		if group != prefix {
			continue
		}
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			c.Body(b.N)
		})
	}
}

func BenchmarkSimplePass(b *testing.B)   { runPassBenchCases(b, "SimplePass") }
func BenchmarkWeightedPass(b *testing.B) { runPassBenchCases(b, "WeightedPass") }

// BenchmarkEvidenceBuild measures constructing the query-side evidence
// table: the old per-pair Add accumulation vs the sorted per-row scatter
// (which additionally precomputes the multipliers and expands the
// symmetric CSR the fused harvest reads).
func BenchmarkEvidenceBuild(b *testing.B) {
	bc := benchPassConfig(b)
	for _, c := range EvidenceBuildBenchCases(bc) {
		_, variant, _ := strings.Cut(c.Name, "/")
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			c.Body(b.N)
		})
	}
}

// BenchmarkWeightedIterations measures whole multi-iteration weighted runs
// under the delta-skip modes (one 20-iteration run per op). Beyond ns/op,
// each sub-benchmark reports the mean cost of the first iteration, the
// most expensive iteration, and the last three iterations — the shape that
// shows change-tracked skipping making later iterations cheaper as rows
// freeze. See PERF.md for how to read the three modes.
func BenchmarkWeightedIterations(b *testing.B) {
	bc := benchPassConfig(b)
	const iters = 20
	for _, m := range IterTrajectoryModes {
		b.Run(m.Name, func(b *testing.B) {
			var iter1, peak, late float64
			for i := 0; i < b.N; i++ {
				stats := IterationTrajectory(bc, iters, m.SkipTol, m.Channel)
				pk, lt := 0.0, 0.0
				for _, s := range stats {
					if d := float64(s.Duration.Nanoseconds()); d > pk {
						pk = d
					}
				}
				tail := stats[len(stats)-3:]
				for _, s := range tail {
					lt += float64(s.Duration.Nanoseconds())
				}
				iter1 += float64(stats[0].Duration.Nanoseconds())
				peak += pk
				late += lt / float64(len(tail))
			}
			n := float64(b.N)
			b.ReportMetric(iter1/n, "iter1-ns")
			b.ReportMetric(peak/n, "peak-ns")
			b.ReportMetric(late/n, "late-ns")
		})
	}
}

// BenchmarkShardedRun compares one full weighted run of the multi-cluster
// workload (many medium components + one ACL-carved giant) monolithic vs
// sharded: same config, tolerance-based early stop, pruning, delta skip.
// The sharded engine stops finished shards entirely and runs shards
// concurrently on a bounded pool; its accumulators are sized per shard.
func BenchmarkShardedRun(b *testing.B) {
	bc := DefaultShardBenchConfig()
	if testing.Short() {
		bc = SmokeShardBenchConfig()
	}
	g := MultiClusterGraph(bc)
	cfg := shardBenchRunConfig(bc)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = bc.MaxShardNodes
	pcfg.MinCutNodes = bc.MaxShardNodes / 4
	plan, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("graph: %d queries, %d ads, %d edges; plan: %d shards, exact=%v, %d cut edges",
		g.NumQueries(), g.NumAds(), g.NumEdges(), len(plan.Shards), plan.Exact, plan.TotalCutEdges)
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunSharded(g, cfg, plan, ShardOptions{Workers: bc.Workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedStitch times the hand-off from shard engines to the
// stitched Result on the multi-cluster workload: every shard's local
// frontiers remapped into the global frontiers' disjoint rows (here
// serially; in RunSharded each pool worker deposits its own shard as it
// finishes), then the run-metadata merge.
func BenchmarkShardedStitch(b *testing.B) {
	bc := DefaultShardBenchConfig()
	if testing.Short() {
		bc = SmokeShardBenchConfig()
	}
	_, _, res, err := RunShardBench(bc, 1)
	if err != nil {
		b.Fatal(err)
	}
	g, cfg := res.Graph, res.Config
	outs := make([]shardOut, len(res.ShardScores))
	for i := range outs {
		outs[i] = shardOut{res: &Result{Converged: true}, stat: res.ShardStats[i]}
	}
	b.ReportAllocs()
	for b.Loop() {
		qScores := sparse.NewPairFrontier(g.NumQueries())
		aScores := sparse.NewPairFrontier(g.NumAds())
		for _, ss := range res.ShardScores {
			qScores.SetRowsRemapped(ss.QueryScores, ss.QueryIDs)
			aScores.SetRowsRemapped(ss.AdScores, ss.AdIDs)
		}
		qScores.Compact()
		aScores.Compact()
		stitch(g, cfg, qScores, aScores, outs)
	}
	pairs := res.QueryScores.Len() + res.AdScores.Len()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}
