// Package experiments wires the substrates into the paper's evaluation
// section: it builds the five-subgraph dataset (§9.2) from the simulated
// click log, runs each rewriting method through the §9.3 pipeline, and
// regenerates every table and figure of §10. Each exported runner
// corresponds to one table or figure; cmd/experiments prints them and
// this package's tests assert their numbers.
package experiments

import (
	"fmt"
	"sort"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sponsored"
	"simrankpp/internal/workload"
)

// DatasetConfig assembles the synthetic analogue of the paper's dataset.
type DatasetConfig struct {
	// Universe shapes the latent population.
	Universe workload.UniverseConfig
	// Sponsored shapes the simulated click log.
	Sponsored sponsored.Config
	// Subgraphs is how many pieces to extract (the paper uses 5).
	Subgraphs int
	// PPR parameterizes the ACL extraction.
	PPR partition.PPRConfig
	// MinSubgraphNodes forces each extracted piece to keep at least this
	// many nodes.
	MinSubgraphNodes int
	// MaxSample caps the evaluation sample size (the paper evaluates on
	// 120 queries); 0 means no cap.
	MaxSample int
	// TrafficSample is how many live-traffic draws form the raw benchmark
	// sample (the paper uses a standardized 1200-query sample).
	TrafficSample int
	// SampleSeed drives the traffic sampling.
	SampleSeed uint64
}

// DefaultDatasetConfig returns a laptop-scale analogue of the paper's
// setup: the default universe and simulator, five subgraphs, and a
// 1200-draw traffic sample.
func DefaultDatasetConfig() DatasetConfig {
	return DatasetConfig{
		Universe:         workload.DefaultUniverseConfig(),
		Sponsored:        sponsored.DefaultConfig(),
		Subgraphs:        5,
		PPR:              partition.DefaultPPRConfig(),
		MinSubgraphNodes: 300,
		TrafficSample:    1200,
		MaxSample:        120,
		SampleSeed:       99,
	}
}

// Dataset is the materialized evaluation input.
type Dataset struct {
	Config DatasetConfig
	// Universe is the ground truth (for the editorial oracle).
	Universe *workload.Universe
	// Log is the full simulation output.
	Log *sponsored.Result
	// Subgraphs are the ACL-extracted pieces, largest first.
	Subgraphs []partition.Subgraph
	// Combined is the union of the subgraphs: "the five-subgraphs
	// dataset" every method takes as its input click graph.
	Combined *clickgraph.Graph
	// Sample holds the evaluation query ids (in Combined), the analogue
	// of the paper's 120 benchmark queries that appear in the dataset.
	Sample []int
	// RawSampleSize is the number of distinct queries drawn from traffic
	// before intersecting with the dataset.
	RawSampleSize int
}

// BuildDataset generates the universe, simulates the click log, extracts
// the subgraphs, and samples the evaluation queries — the full §9.2
// procedure.
func BuildDataset(cfg DatasetConfig) (*Dataset, error) {
	if cfg.Subgraphs < 1 {
		return nil, fmt.Errorf("experiments: Subgraphs must be >= 1, got %d", cfg.Subgraphs)
	}
	if cfg.TrafficSample < 1 {
		return nil, fmt.Errorf("experiments: TrafficSample must be >= 1, got %d", cfg.TrafficSample)
	}
	u, err := workload.BuildUniverse(cfg.Universe)
	if err != nil {
		return nil, err
	}
	log, err := sponsored.Simulate(u, cfg.Sponsored)
	if err != nil {
		return nil, err
	}
	subs, err := partition.Extract(log.Graph, cfg.Subgraphs, cfg.PPR, cfg.MinSubgraphNodes)
	if err != nil {
		return nil, err
	}
	combined, err := unionGraphs(subs)
	if err != nil {
		return nil, err
	}

	// Sample live traffic by popularity; keep distinct queries that made
	// it into the combined dataset. Popularity weighting means popular
	// queries are more likely to be in the sample, as the paper intends.
	r := workload.NewRNG(cfg.SampleSeed)
	seen := make(map[int]bool)
	var rawDistinct []string
	for i := 0; i < cfg.TrafficSample; i++ {
		qid := u.SampleQuery(r)
		if seen[qid] {
			continue
		}
		seen[qid] = true
		rawDistinct = append(rawDistinct, u.Queries[qid].Text)
	}
	var sample []int
	for _, text := range rawDistinct {
		if id, ok := combined.QueryID(text); ok && combined.QueryDegree(id) > 0 {
			sample = append(sample, id)
		}
	}
	sort.Ints(sample)
	if cfg.MaxSample > 0 && len(sample) > cfg.MaxSample {
		// Deterministic thinning: keep an evenly spaced subset.
		thin := make([]int, 0, cfg.MaxSample)
		for i := 0; i < cfg.MaxSample; i++ {
			thin = append(thin, sample[i*len(sample)/cfg.MaxSample])
		}
		sample = thin
	}
	return &Dataset{
		Config:        cfg,
		Universe:      u,
		Log:           log,
		Subgraphs:     subs,
		Combined:      combined,
		Sample:        sample,
		RawSampleSize: len(rawDistinct),
	}, nil
}

// unionGraphs merges node-disjoint subgraphs into one graph.
func unionGraphs(subs []partition.Subgraph) (*clickgraph.Graph, error) {
	b := clickgraph.NewBuilder()
	var err error
	for _, s := range subs {
		g := s.Graph
		for q := 0; q < g.NumQueries(); q++ {
			b.AddQuery(g.Query(q))
		}
		for a := 0; a < g.NumAds(); a++ {
			b.AddAd(g.Ad(a))
		}
		g.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
			err = b.AddEdge(g.Query(q), g.Ad(a), w)
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
