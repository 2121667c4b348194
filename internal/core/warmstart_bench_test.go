package core

import (
	"testing"

	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
	"simrankpp/internal/workload"
)

// BenchmarkFillWarmSeeds times the warm start's seeding on the pass-bench
// cluster: every node matched by name in the graph's own run, its ranked
// partner list read from that Result (the ScoreSource surface a stored
// snapshot also answers), and the in-graph partners above it sorted into
// its frontier row. No gated workload warm-starts, so this is where the
// seeder is timed. Run with
//
//	go test -run='^$' -bench=FillWarmSeeds -benchmem ./internal/core
func BenchmarkFillWarmSeeds(b *testing.B) {
	lc := workload.ClickLogConfig{Seed: 1, Clusters: 1, QueriesPerCluster: 500, AdsPerCluster: 350, BaseEvents: 4150}
	if testing.Short() {
		lc.QueriesPerCluster, lc.AdsPerCluster, lc.BaseEvents = 120, 90, 700
	}
	g, err := lc.BaseGraph(workload.GenerateClickLog(lc))
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = 3
	cfg.PruneEpsilon = 1e-5
	res, err := RunSharded(g, cfg, partition.ComponentPlan(g), ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	q, a := sparse.NewPairFrontier(g.NumQueries()), sparse.NewPairFrontier(g.NumAds())
	b.ReportAllocs()
	for b.Loop() {
		q.Reset()
		a.Reset()
		fillWarmSeeds(res, g, q, a)
	}
	b.ReportMetric(float64(q.Len()+a.Len()), "pairs")
}
