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
