package core

import (
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// IterationStat records one ad pass of a sparse engine's chain and the
// query pass before it (none before the first ad pass of a chain that
// starts on the ad side, where the query fields stay zero): their wall
// time and how many output rows the change-tracked delta skip copied
// forward instead of recomputing (see Config.DeltaSkipTolerance). Skip
// counts are zero until a side's previous value was computed by the chain
// and grow as rows converge. A run records at most Iterations of them.
type IterationStat struct {
	// Duration is the wall time of the pass pair: the passes, pruning, and
	// the convergence/change diffs.
	Duration time.Duration
	// QueryRowsSkipped of QueryRows query-side output rows were copied
	// forward unchanged; likewise AdRowsSkipped of AdRows.
	QueryRowsSkipped, QueryRows int
	AdRowsSkipped, AdRows       int
}

// Result holds the similarity scores an engine computed: one pair
// frontier per graph side — each unordered pair once, in the row of its
// smaller id, rows ascending: the order the engines emit and snapshot
// segments are written in, so scores reach the bytes without being
// re-keyed or re-sorted. Diagonal scores are implicitly 1 per the SimRank
// definition; absent off-diagonal pairs score 0. Read-only once returned.
type Result struct {
	// Graph is the graph the scores were computed on.
	Graph *clickgraph.Graph
	// Config is the configuration that produced the result.
	Config Config
	// QueryScores holds s(q, q') for query pairs, AdScores s(α, α') for
	// ad pairs.
	QueryScores, AdScores *sparse.PairFrontier
	// Iterations is the query-side depth reached: Config.Iterations, or
	// less when the run converged first. The ad scores are one depth
	// deeper (see Config.Iterations).
	Iterations int
	// Converged reports whether iteration stopped because the largest
	// score change fell below Config.Tolerance.
	Converged bool
	// IterStats holds per-pass-pair timing and delta-skip counters. For
	// RunSharded, entry i sums every shard's pair i — total work, not wall
	// time, since shards run concurrently.
	IterStats []IterationStat
	// Plan is the partition.Plan RunSharded ran (nil from Run): its
	// shards' ascending global ids select each shard's rows of QueryScores
	// and AdScores, which is how serve.WriteSnapshotTopK writes one
	// segment pair per shard.
	Plan *partition.Plan
	// ShardStats records each shard engine's run, in plan order, when the
	// result came from RunSharded (nil otherwise).
	ShardStats []ShardStat

	// qTop and aTop back TopRewrites and TopSimilarAds.
	qTop, aTop lazyPartners
}

// lazyPartners answers ranked partner lookups from a frontier's symmetric
// expansion, built on the first lookup (safely under concurrent readers):
// collect the node's row and rank it, as a mapped snapshot segment does.
type lazyPartners struct {
	once sync.Once
	adj  *sparse.SymAdj
}

func (l *lazyPartners) topK(f *sparse.PairFrontier, i, k int) []sparse.Scored {
	l.once.Do(func() { l.adj = f.ExpandSymmetric(nil) })
	if i < 0 || i >= f.NumRows() || k == 0 {
		return nil
	}
	cols, vals := l.adj.Row(i)
	if len(cols) == 0 {
		return nil
	}
	out := make([]sparse.Scored, len(cols))
	for n, c := range cols {
		out[n] = sparse.Scored{Node: int(c), Score: vals[n]}
	}
	return sparse.TopScored(out, k)
}

// QuerySim returns s(q1, q2): 1 on the diagonal, the stored score or 0
// otherwise.
func (r *Result) QuerySim(q1, q2 int) float64 {
	if q1 == q2 {
		return 1
	}
	v, _ := r.QueryScores.Get(q1, q2)
	return v
}

// TopRewrites returns the k most similar queries to q, descending by score
// with deterministic tie-breaking; k < 0 returns all scored partners. The
// first call expands the symmetric adjacency, so each lookup costs its
// node's degree instead of a scan of every row.
func (r *Result) TopRewrites(q, k int) []sparse.Scored {
	return r.qTop.topK(r.QueryScores, q, k)
}

// TopSimilarAds is TopRewrites for the ad side: the k ads most similar to
// a, descending by score with deterministic tie-breaking.
func (r *Result) TopSimilarAds(a, k int) []sparse.Scored {
	return r.aTop.topK(r.AdScores, a, k)
}

// The delegating accessors below complete the serve.ScoreIndex read
// surface, so a live Result and a loaded serve.Snapshot are
// interchangeable to the rewrite pipeline. They mirror clickgraph.Graph's
// names.

// NumQueries returns the number of query nodes in the scored graph.
func (r *Result) NumQueries() int { return r.Graph.NumQueries() }

// NumAds returns the number of ad nodes in the scored graph.
func (r *Result) NumAds() int { return r.Graph.NumAds() }

// Query returns the query string for id.
func (r *Result) Query(id int) string { return r.Graph.Query(id) }

// Ad returns the ad string for id.
func (r *Result) Ad(id int) string { return r.Graph.Ad(id) }

// QueryID returns the id of query q and whether it exists.
func (r *Result) QueryID(q string) (int, bool) { return r.Graph.QueryID(q) }

// AdID returns the id of ad a and whether it exists.
func (r *Result) AdID(a string) (int, bool) { return r.Graph.AdID(a) }

// VariantName names the similarity measure that produced the scores
// ("simrank", "evidence-based simrank", "weighted simrank").
func (r *Result) VariantName() string { return r.Config.Variant.String() }
