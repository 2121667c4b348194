package core_test

import (
	"bytes"
	"testing"

	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
	"simrankpp/internal/workload"
)

// BenchmarkFillWarmSeeds times the warm start's seeding on the pass-bench
// cluster: every node matched by name in a stored snapshot of the graph's
// own run, its ranked partner list read from the snapshot, and the in-graph
// partners above it sorted into its frontier row. No gated workload
// warm-starts, so this is where the seeder is timed. Run with
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
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Iterations = 3
	cfg.PruneEpsilon = 1e-5
	res, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{RetainShardScores: true})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serve.WriteSnapshotTopK(&buf, res, serve.TopKOptions{}); err != nil {
		b.Fatal(err)
	}
	snap, err := serve.NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	if err := snap.PreloadAll(); err != nil {
		b.Fatal(err)
	}
	q, a := sparse.NewPairFrontier(g.NumQueries()), sparse.NewPairFrontier(g.NumAds())
	b.ReportAllocs()
	for b.Loop() {
		q.Reset()
		a.Reset()
		core.FillWarmSeeds(snap, g, q, a)
	}
	b.ReportMetric(float64(q.Len()+a.Len()), "pairs")
}
