package workload

import (
	"fmt"

	"simrankpp/internal/clickgraph"
)

// The replayable click log: the generator behind the ingest pipeline's
// tests and the engine and snapshot micro-benchmarks. A run has two
// halves — base events that build the serving snapshot's graph, and a
// stream of follow-on events that the WAL tails and the controller
// folds. Everything is deterministic from the seed, so the ingest chaos
// tests replay bit-identically.
//
// The stream is locality-skewed on purpose: HotFraction of the events
// land in the first HotClusters clusters, mirroring how real click
// traffic churns a few campaigns while the rest of the graph idles —
// the regime where incremental refresh (dirty hot shards, byte-copied
// cold ones) earns its keep.

// ClickEvent is one weighted click-edge observation, the text-log twin
// of ingest.Record.
type ClickEvent struct {
	Query, Ad   string
	Impressions int64
	Clicks      int64
	Rate        float64
}

// ClickLogConfig parameterizes GenerateClickLog.
type ClickLogConfig struct {
	Seed uint64
	// Clusters structurally disjoint query/ad groups (each becomes at
	// least one component, so ComponentPlan shards by cluster).
	Clusters          int
	QueriesPerCluster int
	AdsPerCluster     int
	// BaseEvents is the number of pre-snapshot events beyond the
	// coverage pass (every node is touched at least once so the base
	// graph interns the full universe up front — stable ids are what
	// keep cold shards byte-copy clean across folds).
	BaseEvents int
	// StreamEvents is the replayable stream's length.
	StreamEvents int
	// HotClusters (default 1) receive HotFraction (default 0.9) of the
	// stream; the rest spreads uniformly.
	HotClusters int
	HotFraction float64
}

func (c *ClickLogConfig) defaults() {
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if c.QueriesPerCluster <= 0 {
		c.QueriesPerCluster = 16
	}
	if c.AdsPerCluster <= 0 {
		c.AdsPerCluster = 12
	}
	if c.HotClusters <= 0 || c.HotClusters > c.Clusters {
		c.HotClusters = 1
	}
	if c.HotFraction <= 0 || c.HotFraction > 1 {
		c.HotFraction = 0.9
	}
}

// ClickLog is a generated base + stream pair.
type ClickLog struct {
	Base   []ClickEvent
	Stream []ClickEvent
}

// GenerateClickLog produces the deterministic event halves for cfg.
func GenerateClickLog(cfg ClickLogConfig) ClickLog {
	cfg.defaults()
	rng := NewRNG(cfg.Seed)
	qname := func(c, q int) string { return fmt.Sprintf("c%d-q%d", c, q) }
	aname := func(c, a int) string { return fmt.Sprintf("c%d-a%d", c, a) }
	event := func(c int) ClickEvent {
		clicks := int64(1 + rng.Intn(20))
		return ClickEvent{
			Query:       qname(c, rng.Intn(cfg.QueriesPerCluster)),
			Ad:          aname(c, rng.Intn(cfg.AdsPerCluster)),
			Impressions: clicks * 3,
			Clicks:      clicks,
			Rate:        float64(rng.Intn(1000)) / 1000,
		}
	}

	var log ClickLog
	// Coverage pass: every query and every ad appears in the base graph.
	for c := 0; c < cfg.Clusters; c++ {
		for q := 0; q < cfg.QueriesPerCluster; q++ {
			e := event(c)
			e.Query = qname(c, q)
			log.Base = append(log.Base, e)
		}
		for a := 0; a < cfg.AdsPerCluster; a++ {
			e := event(c)
			e.Ad = aname(c, a)
			log.Base = append(log.Base, e)
		}
	}
	for i := 0; i < cfg.BaseEvents; i++ {
		log.Base = append(log.Base, event(i%cfg.Clusters))
	}
	for i := 0; i < cfg.StreamEvents; i++ {
		var c int
		if cfg.Clusters > cfg.HotClusters && rng.Float64() >= cfg.HotFraction {
			c = cfg.HotClusters + rng.Intn(cfg.Clusters-cfg.HotClusters)
		} else {
			c = rng.Intn(cfg.HotClusters)
		}
		log.Stream = append(log.Stream, event(c))
	}
	return log
}

// BaseGraph folds the base events into a click graph with EVERY node of
// the configured universe interned first, in cluster-major order — the
// graph the serving snapshot is built from and the intern order every
// later fold must preserve.
func (cfg ClickLogConfig) BaseGraph(log ClickLog) (*clickgraph.Graph, error) {
	cfg.defaults()
	b := clickgraph.NewBuilder()
	for c := 0; c < cfg.Clusters; c++ {
		for q := 0; q < cfg.QueriesPerCluster; q++ {
			b.AddQuery(fmt.Sprintf("c%d-q%d", c, q))
		}
	}
	for c := 0; c < cfg.Clusters; c++ {
		for a := 0; a < cfg.AdsPerCluster; a++ {
			b.AddAd(fmt.Sprintf("c%d-a%d", c, a))
		}
	}
	for _, e := range log.Base {
		if err := b.AddEdge(e.Query, e.Ad, clickgraph.EdgeWeights{
			Impressions: e.Impressions, Clicks: e.Clicks, ExpectedClickRate: e.Rate,
		}); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
