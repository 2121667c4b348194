// Package clickgraph implements the weighted bipartite click graph at the
// heart of the Simrank++ paper (§2): queries on one side, ads on the other,
// and an edge (q, α) whenever at least one user who issued q clicked α
// during the observation window. Each edge carries three weights —
// impressions, clicks, and the position-adjusted expected click rate — and
// the graph stores the edges once, as a table sorted by (query, ad), with
// an ad-ordered view over it, so the SimRank engines read either side's
// neighbors as contiguous ascending rows.
package clickgraph

import (
	"fmt"
	"slices"
)

// Side distinguishes the two node partitions.
type Side int

const (
	// QuerySide is the partition of user queries.
	QuerySide Side = iota
	// AdSide is the partition of advertisements.
	AdSide
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case QuerySide:
		return "query"
	case AdSide:
		return "ad"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// EdgeWeights are the three per-edge measurements the back-end records
// (§2): how often the ad was displayed for the query, how often it was
// clicked, and the position-adjusted clicks-over-impressions estimate.
type EdgeWeights struct {
	Impressions int64
	Clicks      int64
	// ExpectedClickRate is the position-adjusted click-through estimate in
	// [0, 1]. All weighted experiments in the paper use this weight.
	ExpectedClickRate float64
}

// Validate reports physically impossible weights: negative counts, clicks
// exceeding impressions when impressions are recorded, or an expected
// click rate that is not a number in [0, 1].
func (w EdgeWeights) Validate() error {
	switch {
	case w.Impressions < 0 || w.Clicks < 0:
		return fmt.Errorf("clickgraph: negative counts: %d impressions, %d clicks", w.Impressions, w.Clicks)
	case w.Impressions > 0 && w.Clicks > w.Impressions:
		return fmt.Errorf("clickgraph: clicks %d exceed impressions %d", w.Clicks, w.Impressions)
	// Written so that NaN, which compares false with everything, fails it.
	case !(w.ExpectedClickRate >= 0 && w.ExpectedClickRate <= 1):
		return fmt.Errorf("clickgraph: expected click rate %v outside [0,1]", w.ExpectedClickRate)
	}
	return nil
}

// Builder accumulates edges and compiles an immutable Graph. Adding the
// same (query, ad) pair twice merges the observations: impressions and
// clicks sum, and the expected click rate is re-estimated as an
// impressions-weighted mean.
type Builder struct {
	queryID map[string]int
	adID    map[string]int
	queries []string
	ads     []string
	// rows[q] holds query q's edges ascending by ad id, so the table Build
	// fills is the rows end to end. Ids are interned in arrival order, so an
	// edge to an ad first seen now is inserted at its row's end.
	rows  [][]builderEdge
	edges int
}

type builderEdge struct {
	ad int
	w  EdgeWeights
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		queryID: make(map[string]int),
		adID:    make(map[string]int),
	}
}

func (b *Builder) internQuery(q string) int {
	if id, ok := b.queryID[q]; ok {
		return id
	}
	id := len(b.queries)
	b.queryID[q] = id
	b.queries = append(b.queries, q)
	b.rows = append(b.rows, nil)
	return id
}

func (b *Builder) internAd(a string) int {
	if id, ok := b.adID[a]; ok {
		return id
	}
	id := len(b.ads)
	b.adID[a] = id
	b.ads = append(b.ads, a)
	return id
}

// AddQuery ensures a query node exists even if it has no edges yet.
func (b *Builder) AddQuery(q string) { b.internQuery(q) }

// AddAd ensures an ad node exists even if it has no edges yet.
func (b *Builder) AddAd(a string) { b.internAd(a) }

// AddEdge records an observation for (query, ad). Weights that fail
// EdgeWeights.Validate are an error and add nothing.
func (b *Builder) AddEdge(query, ad string, w EdgeWeights) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("%w for (%q,%q)", err, query, ad)
	}
	qi, ai := b.internQuery(query), b.internAd(ad)
	row := b.rows[qi]
	at, found := slices.BinarySearchFunc(row, ai, func(e builderEdge, ad int) int { return e.ad - ad })
	if found {
		old := &row[at].w
		// Impressions-weighted mean of the two rate estimates; fall back to
		// a plain mean when neither observation carries impressions.
		ti, tn := float64(old.Impressions), float64(w.Impressions)
		if ti+tn > 0 {
			old.ExpectedClickRate = (old.ExpectedClickRate*ti + w.ExpectedClickRate*tn) / (ti + tn)
		} else {
			old.ExpectedClickRate = (old.ExpectedClickRate + w.ExpectedClickRate) / 2
		}
		old.Impressions += w.Impressions
		old.Clicks += w.Clicks
		return nil
	}
	b.rows[qi] = slices.Insert(row, at, builderEdge{ad: ai, w: w})
	b.edges++
	return nil
}

// AddClick is shorthand for a single displayed-and-clicked observation with
// the given rate estimate.
func (b *Builder) AddClick(query, ad string, rate float64) error {
	return b.AddEdge(query, ad, EdgeWeights{Impressions: 1, Clicks: 1, ExpectedClickRate: rate})
}

// Build compiles the accumulated edges into an immutable Graph: one copy
// of the rows into the table. The Builder stays usable: the graph shares
// nothing with it.
func (b *Builder) Build() *Graph {
	g := newGraph(slices.Clone(b.queries), slices.Clone(b.ads), b.edges)
	for q, row := range b.rows {
		for _, e := range row {
			g.appendEdge(e.ad, e.w)
		}
		g.qPtr[q+1] = len(g.ad)
	}
	g.indexAds()
	return g
}

// Graph is an immutable weighted bipartite click graph. Node ids are dense
// ints per side: query ids in [0, NumQueries), ad ids in [0, NumAds).
type Graph struct {
	queries []string
	ads     []string
	queryID map[string]int
	adID    map[string]int

	// The edge table, sorted by (query id, ad id): query q's edges are
	// positions [qPtr[q], qPtr[q+1]) of the four columns.
	qPtr   []int
	ad     []int
	rate   []float64
	clicks []int64
	impr   []int64

	// The same edges ordered by (ad id, query id): ad a's are positions
	// [aPtr[a], aPtr[a+1]). The rate is stored in this order too because
	// the engines hold both sides' rate rows for a whole run; an ad's
	// counts are reached through pos, the edge's position in the table.
	aPtr  []int
	query []int
	aRate []float64
	pos   []int
}

// newGraph returns a graph over the given names (which it keeps) with an
// empty edge table of capacity n. The caller appends the edges in (query
// id, ad id) order, sets qPtr and calls indexAds.
func newGraph(queries, ads []string, n int) *Graph {
	g := &Graph{
		queries: queries,
		ads:     ads,
		queryID: make(map[string]int, len(queries)),
		adID:    make(map[string]int, len(ads)),
		qPtr:    make([]int, len(queries)+1),
		ad:      make([]int, 0, n),
		rate:    make([]float64, 0, n),
		clicks:  make([]int64, 0, n),
		impr:    make([]int64, 0, n),
	}
	for i, q := range queries {
		g.queryID[q] = i
	}
	for i, a := range ads {
		g.adID[a] = i
	}
	return g
}

func (g *Graph) appendEdge(a int, w EdgeWeights) {
	g.ad = append(g.ad, a)
	g.rate = append(g.rate, w.ExpectedClickRate)
	g.clicks = append(g.clicks, w.Clicks)
	g.impr = append(g.impr, w.Impressions)
}

// indexAds builds the ad-ordered view of the finished table: one counting
// pass sizes the ad rows, one walk of the table in order fills them, so
// every ad row comes out ascending by query id without sorting.
func (g *Graph) indexAds() {
	g.aPtr = make([]int, len(g.ads)+1)
	for _, a := range g.ad {
		g.aPtr[a+1]++
	}
	for a := range g.ads {
		g.aPtr[a+1] += g.aPtr[a]
	}
	n := len(g.ad)
	g.query, g.aRate, g.pos = make([]int, n), make([]float64, n), make([]int, n)
	next := slices.Clone(g.aPtr[:len(g.ads)])
	for q := range g.queries {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			at := next[g.ad[p]]
			next[g.ad[p]]++
			g.query[at], g.aRate[at], g.pos[at] = q, g.rate[p], p
		}
	}
}

// NumQueries returns the number of query nodes.
func (g *Graph) NumQueries() int { return len(g.queries) }

// NumAds returns the number of ad nodes.
func (g *Graph) NumAds() int { return len(g.ads) }

// NumEdges returns the number of (query, ad) edges.
func (g *Graph) NumEdges() int { return len(g.ad) }

// Query returns the query string for id, panicking on out-of-range ids as
// any slice index would.
func (g *Graph) Query(id int) string { return g.queries[id] }

// Ad returns the ad string for id.
func (g *Graph) Ad(id int) string { return g.ads[id] }

// QueryID returns the id of query q and whether it exists.
func (g *Graph) QueryID(q string) (int, bool) {
	id, ok := g.queryID[q]
	return id, ok
}

// AdID returns the id of ad a and whether it exists.
func (g *Graph) AdID(a string) (int, bool) {
	id, ok := g.adID[a]
	return id, ok
}

// Queries returns all query strings indexed by id. Callers must not mutate
// the returned slice.
func (g *Graph) Queries() []string { return g.queries }

// Ads returns all ad strings indexed by id. Callers must not mutate the
// returned slice.
func (g *Graph) Ads() []string { return g.ads }

// AdsOf returns the ad neighbors of query q, ascending, with their expected
// click rates, as shared slices that must not be mutated. This is E(q) in
// the paper's notation.
func (g *Graph) AdsOf(q int) (ads []int, rates []float64) {
	lo, hi := g.qPtr[q], g.qPtr[q+1]
	return g.ad[lo:hi], g.rate[lo:hi]
}

// QueriesOf returns the query neighbors of ad a, ascending, with their
// expected click rates. This is E(α).
func (g *Graph) QueriesOf(a int) (queries []int, rates []float64) {
	lo, hi := g.aPtr[a], g.aPtr[a+1]
	return g.query[lo:hi], g.aRate[lo:hi]
}

// Row is one node's incident edges: its neighbor ids, ascending, and one
// entry per neighbor in each weight column. Callers must not mutate it.
type Row struct {
	Neighbors   []int
	Rate        []float64
	Clicks      []int64
	Impressions []int64
}

// Row returns the incident edges of node id on the given side with all
// three weights. A query's row is four slices of the edge table; an ad's
// shares its ids and rates and gathers its counts from the table.
func (g *Graph) Row(side Side, id int) Row {
	if side == QuerySide {
		lo, hi := g.qPtr[id], g.qPtr[id+1]
		return Row{g.ad[lo:hi], g.rate[lo:hi], g.clicks[lo:hi], g.impr[lo:hi]}
	}
	lo, hi := g.aPtr[id], g.aPtr[id+1]
	r := Row{g.query[lo:hi], g.aRate[lo:hi], make([]int64, hi-lo), make([]int64, hi-lo)}
	for i, p := range g.pos[lo:hi] {
		r.Clicks[i], r.Impressions[i] = g.clicks[p], g.impr[p]
	}
	return r
}

// QueryDegree returns N(q), the number of ads adjacent to query q.
func (g *Graph) QueryDegree(q int) int { return g.qPtr[q+1] - g.qPtr[q] }

// AdDegree returns N(α), the number of queries adjacent to ad a.
func (g *Graph) AdDegree(a int) int { return g.aPtr[a+1] - g.aPtr[a] }

// EdgeWeightsOf returns the full weights of edge (q, a) and whether the
// edge exists.
func (g *Graph) EdgeWeightsOf(q, a int) (EdgeWeights, bool) {
	lo := g.qPtr[q]
	i, ok := slices.BinarySearch(g.ad[lo:g.qPtr[q+1]], a)
	if !ok {
		return EdgeWeights{}, false
	}
	return g.weightsAt(lo + i), true
}

func (g *Graph) weightsAt(p int) EdgeWeights {
	return EdgeWeights{Impressions: g.impr[p], Clicks: g.clicks[p], ExpectedClickRate: g.rate[p]}
}

// Edges calls fn for every edge in (query id, ad id) order. If fn returns
// false, iteration stops.
func (g *Graph) Edges(fn func(q, a int, w EdgeWeights) bool) {
	for q := range g.queries {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			if !fn(q, g.ad[p], g.weightsAt(p)) {
				return
			}
		}
	}
}

// CommonAds returns the ads adjacent to both q1 and q2, i.e. E(q1) ∩ E(q2),
// in ascending id order.
func (g *Graph) CommonAds(q1, q2 int) []int {
	a1, _ := g.AdsOf(q1)
	a2, _ := g.AdsOf(q2)
	return intersectSorted(a1, a2)
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// RemoveEdges returns a new Graph equal to g minus the listed (query id,
// ad id) edges. Node ids are preserved, including nodes left isolated.
// Unknown edges are ignored. The desirability experiment (§9.3) uses this
// to delete the direct evidence between a query and its rewrite candidates.
func (g *Graph) RemoveEdges(drop [][2]int) *Graph {
	skip := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		skip[e] = true
	}
	b := NewBuilder()
	for _, q := range g.queries {
		b.AddQuery(q)
	}
	for _, a := range g.ads {
		b.AddAd(a)
	}
	g.Edges(func(q, a int, w EdgeWeights) bool {
		if !skip[[2]int{q, a}] {
			// Weights were validated when first added, so re-adding them
			// cannot fail.
			_ = b.AddEdge(g.queries[q], g.ads[a], w)
		}
		return true
	})
	return b.Build()
}

// InducedSubgraph returns the subgraph on the given query and ad id sets,
// with nodes re-interned (ids are NOT preserved). Edges survive only if
// both endpoints are kept.
func (g *Graph) InducedSubgraph(queryIDs, adIDs []int) *Graph {
	keepQ := make(map[int]bool, len(queryIDs))
	for _, q := range queryIDs {
		keepQ[q] = true
	}
	keepA := make(map[int]bool, len(adIDs))
	for _, a := range adIDs {
		keepA[a] = true
	}
	b := NewBuilder()
	for _, q := range queryIDs {
		b.AddQuery(g.queries[q])
	}
	for _, a := range adIDs {
		b.AddAd(g.ads[a])
	}
	g.Edges(func(q, a int, w EdgeWeights) bool {
		if keepQ[q] && keepA[a] {
			_ = b.AddEdge(g.queries[q], g.ads[a], w)
		}
		return true
	})
	return b.Build()
}
