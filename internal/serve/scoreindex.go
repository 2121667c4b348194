// Package serve is the online half of the paper's Figure 2 deployment
// split: SimRank++ scores are computed offline, one engine per shard
// (core.RunSharded), persisted as a shard-segmented binary snapshot, and
// answered at query time by a front-end that never touches an engine. The
// package provides the versioned snapshot format (snapshot_format.go),
// its one writer (snapshot_write.go) and its reader (snapshot_read.go),
// the incremental refresh and generation journal, the simrankd HTTP
// server (server.go), which answers from a *Snapshot, and the ScoreIndex
// read surface the rewrite pipeline reads.
package serve

import (
	"simrankpp/internal/core"
	"simrankpp/internal/sparse"
)

// ScoreIndex is the engine-agnostic read surface over a computed
// similarity result: node naming plus the ranked lookups. A live
// *core.Result implements it directly; a *Snapshot implements it from a
// file, loading per-shard score segments lazily. The rewrite filtering
// pipeline reads either through it; the server
// answers from a *Snapshot only, and takes a ScoreIndex in NewServer,
// Index and Reload for the callers built against those signatures.
//
// Implementations must be safe for concurrent readers.
type ScoreIndex interface {
	// NumQueries and NumAds are the scored graph's dimensions.
	NumQueries() int
	NumAds() int
	// Query and Ad resolve ids to display strings; QueryID and AdID
	// invert them.
	Query(id int) string
	Ad(id int) string
	QueryID(name string) (int, bool)
	AdID(name string) (int, bool)
	// TopRewrites returns the k most similar queries to q, best first
	// with deterministic tie-breaking; k < 0 means all. TopSimilarAds is
	// the ad-side counterpart.
	TopRewrites(q, k int) []sparse.Scored
	TopSimilarAds(a, k int) []sparse.Scored
	// VariantName names the similarity measure that produced the scores.
	VariantName() string
}

// Both halves of the batch/online split serve the same interface.
var (
	_ ScoreIndex = (*core.Result)(nil)
	_ ScoreIndex = (*Snapshot)(nil)
)
