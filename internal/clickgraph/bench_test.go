package clickgraph_test

import (
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/workload"
)

// BenchmarkBuilder folds a generated click log the way every consumer of
// one does — AddEdge per event, then Build — on the cluster shape of the
// gated workload (pathbench cold-build: 65 × 45 clusters of ≈500 events,
// so rows are short, ads arrive in no order and about one event in twelve
// repeats an edge). Run with
//
//	go test -run='^$' -bench=Builder -benchmem ./internal/clickgraph
//
// Recorded numbers come from pathbench (clickgraph.build_s), not from here.
// On a 2-vCPU box the name index and the Go maps it replaced read the
// same within the box's noise (medians 142 / 147 and 163 / 158 ms/op, two
// sets of eight alternated rounds of ten), 617 allocations an op against
// 1 128: this log cycles through every cluster before it repeats a name,
// so each hit's byte compare misses the cache either way, where on
// pathbench's clustered log the fold is 14 % faster.
func BenchmarkBuilder(b *testing.B) {
	lc := workload.ClickLogConfig{Seed: 7, Clusters: 840, QueriesPerCluster: 65, AdsPerCluster: 45}
	if testing.Short() {
		lc.Clusters = 12
	}
	lc.BaseEvents = lc.Clusters * 390 // + the 110-event coverage pass = 500 a cluster
	log := workload.GenerateClickLog(lc).Base
	b.ReportAllocs()
	var g *clickgraph.Graph
	for b.Loop() {
		bld := clickgraph.NewBuilder()
		for _, e := range log {
			w := clickgraph.EdgeWeights{Impressions: e.Impressions, Clicks: e.Clicks, ExpectedClickRate: e.Rate}
			if err := bld.AddEdge(e.Query, e.Ad, w); err != nil {
				b.Fatal(err)
			}
		}
		g = bld.Build()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(log)), "ns/event")
	b.Logf("%d events, %d queries, %d ads, %d edges", len(log), g.NumQueries(), g.NumAds(), g.NumEdges())
}
