package core

import (
	"cmp"
	"math"
	"slices"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// Warm-started iteration: instead of the identity start s0 = I, a run can
// seed its ping-pong frontiers from a previous generation's scores. The
// SimRank update is a contraction, so iteration converges to the same
// fixpoint from any start — but a start that is already near the fixpoint
// (yesterday's scores, on a graph that churned at the margins) crosses
// Config.Tolerance in a handful of iterations instead of the full
// schedule, and the change-tracked delta skip compounds: rows whose
// neighborhoods did not move freeze after the first pass. This is the
// compute half of the incremental refresh story; partition.DiffPlans
// decides which shards to run at all.

// ScoreSource is the read surface a warm start pulls prior scores from:
// node naming plus the ranked partner listings. It is the subset of
// serve.ScoreIndex the seeding needs, so both a live *Result and a loaded
// *serve.Snapshot qualify. Lookups go through names, never ids — the new
// graph may have re-interned nodes under different ids (such nodes live
// in dirty shards, but their *partners'* scores are still good seeds).
type ScoreSource interface {
	Query(id int) string
	Ad(id int) string
	QueryID(name string) (int, bool)
	AdID(name string) (int, bool)
	TopRewrites(q, k int) []sparse.Scored
	TopSimilarAds(a, k int) []sparse.Scored
}

// Result implements ScoreSource (via the serve.ScoreIndex surface).
var _ ScoreSource = (*Result)(nil)

// warmSeed fills the engine's starting frontiers; nil means the identity
// start. The frontiers are empty when it runs.
type warmSeed func(prevQ, prevA *sparse.PairFrontier)

// fillWarmSeeds sets the rows of the empty frontiers prevQ and prevA (sized
// for g's queries and ads) to the pairs of ws that a warm start of g (a
// shard subgraph or a whole graph) begins from, replaying the previous
// generation: every node is matched to its previous generation by name, its
// stored partner list is pulled once, and each partner that maps into g is
// seeded. Pairs are stored symmetrically in the source, so the j > i guard
// keeps exactly one copy, and names are unique, so a row's partners are
// distinct; sorting them by id makes the row. Partners outside g (the pair
// straddles a shard cut, or the node vanished) are dropped — the same pairs
// a cold per-shard run could never score. So is any score that is not
// finite and positive: the source is a stored generation whose values
// nothing else checks, the convergence test (d > max) cannot see a NaN, and
// the kernels read a zero accumulator cell as untouched — one bad seed
// would otherwise be published as converged and seed the next refresh.
func fillWarmSeeds(ws ScoreSource, g *clickgraph.Graph, prevQ, prevA *sparse.PairFrontier) {
	var row []sparse.Scored
	var cols []int32
	var vals []float64
	setRow := func(f *sparse.PairFrontier, r int) {
		slices.SortFunc(row, func(a, b sparse.Scored) int { return cmp.Compare(a.Node, b.Node) })
		cols, vals = cols[:0], vals[:0]
		for _, p := range row {
			cols, vals = append(cols, int32(p.Node)), append(vals, p.Score)
		}
		f.SetSortedRow(r, cols, vals)
	}
	for q := 0; q < g.NumQueries(); q++ {
		old, ok := ws.QueryID(g.Query(q))
		if !ok {
			continue
		}
		row = row[:0]
		for _, sc := range ws.TopRewrites(old, -1) {
			if nj, ok := g.QueryID(ws.Query(sc.Node)); ok && nj > q && validSeed(sc.Score) {
				row = append(row, sparse.Scored{Node: nj, Score: sc.Score})
			}
		}
		setRow(prevQ, q)
	}
	for a := 0; a < g.NumAds(); a++ {
		old, ok := ws.AdID(g.Ad(a))
		if !ok {
			continue
		}
		row = row[:0]
		for _, sc := range ws.TopSimilarAds(old, -1) {
			if nj, ok := g.AdID(ws.Ad(sc.Node)); ok && nj > a && validSeed(sc.Score) {
				row = append(row, sparse.Scored{Node: nj, Score: sc.Score})
			}
		}
		setRow(prevA, a)
	}
}

// validSeed reports whether v is finite and positive (false for NaN).
func validSeed(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// unapplyEvidence divides every stored pair by its evidence multiplier —
// the inverse of applyEvidence. The Evidence variant iterates on raw
// SimRank scores and multiplies evidence in only at the end, so a warm
// seed drawn from stored Evidence scores must be mapped back to iteration
// space. Pairs whose multiplier is zero (strict evidence, no common
// neighbors) carry no information about the raw score and are dropped.
func (sp *spa) unapplyEvidence(f *sparse.PairFrontier, nbr [][]int, ev []float64) {
	sp.mapEvidence(f, nbr, ev, func(v, e float64) (float64, bool) {
		if e == 0 {
			return 0, false
		}
		return v / e, true
	})
}
