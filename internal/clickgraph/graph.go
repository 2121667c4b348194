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
	"maps"
	"slices"
	"sync"
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
//
// The adds only log what they are given; Build does the fold. It interns
// the logged names, one goroutine a side, so ids follow first arrival on
// each side (a node added by AddQuery or AddAd keeps its place among the
// edges' names), sorts the logged edges into rows by a counting sort on
// the query id, and merges each row, in arrival order, into the rows of
// the previous Build. Each logged name is looked up once: the graph takes
// over the Builder's name→id maps instead of building its own, and the
// Builder copies a side's map only when it next interns a name new to
// that side.
type Builder struct {
	q, a nameSide
	// base is the graph the last Build returned (or NewBuilderFrom
	// adopted): its table holds the rows the next Build merges into.
	base *Graph
	log  entryLog // what was added since base
}

// nameSide is one side's names in id order and its name→id map.
type nameSide struct {
	id map[string]int
	// lent reports that a graph also reads id: a new name interns into a
	// copy.
	lent  bool
	names []string
}

func (s *nameSide) intern(name string) int {
	if id, ok := s.id[name]; ok {
		return id
	}
	if s.lent {
		s.id, s.lent = maps.Clone(s.id), false
	}
	id := len(s.names)
	s.id[name] = id
	s.names = append(s.names, name)
	return id
}

// lend returns the names and the map for a graph, which keeps them: the
// names slice is capped, so the Builder's appends never reach it.
func (s *nameSide) lend() ([]string, map[string]int) {
	s.lent = true
	return s.names[:len(s.names):len(s.names)], s.id
}

type entryKind uint8

const (
	edgeEntry entryKind = iota
	queryEntry
	adEntry
)

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{q: nameSide{id: make(map[string]int)}, a: nameSide{id: make(map[string]int)}}
}

// NewBuilderFrom returns a Builder that holds g: its names keep their ids
// and its edges are the rows later adds merge into, so Build returns a
// graph equal to g until something is added. It shares g's name maps
// under the copy-on-write rule of Build.
func NewBuilderFrom(g *Graph) *Builder {
	qID, aID := g.index()
	nq, na := len(g.queries), len(g.ads)
	return &Builder{
		q:    nameSide{id: qID, lent: true, names: g.queries[:nq:nq]},
		a:    nameSide{id: aID, lent: true, names: g.ads[:na:na]},
		base: g,
	}
}

// entryLog is the adds in order, in chunks of logChunk, so that it grows
// without copying: add i is row i%logChunk of chunk i/logChunk. A chunk
// holds its adds in columns, so each of Build's passes reads only the
// column it needs: one side's names, or the weights.
type entryLog []logColumns

const logChunk = 1 << 12

// logColumns holds up to logChunk adds: an edge, or a node (its kind, the
// other side's name empty).
type logColumns struct {
	query, ad []string
	w         []EdgeWeights
	kind      []entryKind
}

func (l *entryLog) add(query, ad string, w EdgeWeights, kind entryKind) {
	n := len(*l)
	if n == 0 || len((*l)[n-1].kind) == logChunk {
		var c logColumns // the first grows by append, from small
		if n > 0 {
			c = logColumns{make([]string, 0, logChunk), make([]string, 0, logChunk),
				make([]EdgeWeights, 0, logChunk), make([]entryKind, 0, logChunk)}
		}
		*l = append(*l, c)
		n++
	}
	c := &(*l)[n-1]
	c.query, c.ad, c.w, c.kind = append(c.query, query), append(c.ad, ad), append(c.w, w), append(c.kind, kind)
}

func (l entryLog) len() int {
	if len(l) == 0 {
		return 0
	}
	return (len(l)-1)*logChunk + len(l[len(l)-1].kind)
}

// weights returns the weights of add i.
func (l entryLog) weights(i uint32) EdgeWeights { return l[i/logChunk].w[i%logChunk] }

// AddQuery ensures a query node exists even if it has no edges yet.
func (b *Builder) AddQuery(q string) { b.log.add(q, "", EdgeWeights{}, queryEntry) }

// AddAd ensures an ad node exists even if it has no edges yet.
func (b *Builder) AddAd(a string) { b.log.add("", a, EdgeWeights{}, adEntry) }

// AddEdge records an observation for (query, ad). Weights that fail
// EdgeWeights.Validate are an error and add nothing.
func (b *Builder) AddEdge(query, ad string, w EdgeWeights) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("%w for (%q,%q)", err, query, ad)
	}
	b.log.add(query, ad, w, edgeEntry)
	return nil
}

// AddClick is shorthand for a single displayed-and-clicked observation with
// the given rate estimate.
func (b *Builder) AddClick(query, ad string, rate float64) error {
	return b.AddEdge(query, ad, EdgeWeights{Impressions: 1, Clicks: 1, ExpectedClickRate: rate})
}

// merge folds a later observation w of the same edge into e: impressions
// and clicks sum, and the rate becomes the impressions-weighted mean of the
// two estimates, or their plain mean when neither carries impressions.
func (e *EdgeWeights) merge(w EdgeWeights) {
	ti, tn := float64(e.Impressions), float64(w.Impressions)
	if ti+tn > 0 {
		e.ExpectedClickRate = (float64(e.ExpectedClickRate*ti) + float64(w.ExpectedClickRate*tn)) / (ti + tn)
	} else {
		e.ExpectedClickRate = (e.ExpectedClickRate + w.ExpectedClickRate) / 2
	}
	e.Impressions += w.Impressions
	e.Clicks += w.Clicks
}

// Build compiles everything added so far into an immutable Graph. The
// Builder stays usable. The graph shares the Builder's name maps and the
// backing arrays of its name lists: the Builder copies a side's map before
// it interns a name new to that side and appends past the graph's names,
// so the graph never sees a later add, and a graph built earlier stays
// safe to read while the Builder goes on.
func (b *Builder) Build() *Graph {
	log := b.log
	qid, aid := make([]int32, log.len()), make([]int32, log.len())
	concurrently(func() { b.a.internLog(log, aid, AdSide) }, func() { b.q.internLog(log, qid, QuerySide) })

	// Counting sort of the logged edges by query: query q's log positions
	// are order[start[q]:start[q+1]], in arrival order.
	nq := len(b.q.names)
	start := make([]int, nq+1)
	for _, q := range qid {
		if q >= 0 {
			start[q+1]++
		}
	}
	for q := range nq {
		start[q+1] += start[q]
	}
	order := make([]uint32, start[nq])
	for i, q := range qid {
		if q >= 0 {
			order[start[q]] = uint32(i)
			start[q]++
		}
	}
	copy(start[1:], start[:nq]) // each start[q] now holds start[q+1]
	start[0] = 0

	// Two query ranges of about equal work merge in parallel: one pass
	// sorts each query's logged edges and sizes its row, the next fills
	// the table.
	f := mergeFold{base: b.base, log: log, aid: aid, order: order, start: start, qPtr: make([]int, nq+1)}
	total := len(order)
	if f.base != nil {
		total += f.base.NumEdges()
	}
	split, work := 0, 0
	for split < nq && 2*work < total {
		lo, hi := f.baseRow(split)
		work += hi - lo + start[split+1] - start[split]
		split++
	}
	concurrently(func() { f.size(split, nq) }, func() { f.size(0, split) })
	for q := range nq {
		f.qPtr[q+1] += f.qPtr[q]
	}
	queries, qID := b.q.lend()
	ads, aID := b.a.lend()
	n := f.qPtr[nq]
	g := &Graph{queries: queries, ads: ads, qPtr: f.qPtr,
		ad: make([]int, n), rate: make([]float64, n), clicks: make([]int64, n), impr: make([]int64, n)}
	f.g = g
	concurrently(func() { f.fill(split, nq) }, func() { f.fill(0, split) })
	g.indexAds()
	g.setIndex(qID, aID)
	b.base, b.log = g, nil
	return g
}

// internLog interns this side's name of every log entry that has one, in
// log order, and records each edge's id in ids (-1 for a node entry).
func (s *nameSide) internLog(log entryLog, ids []int32, side Side) {
	other := adEntry
	if side == AdSide {
		other = queryEntry
	}
	i := 0
	for _, c := range log {
		names := c.query
		if side == AdSide {
			names = c.ad
		}
		for k, name := range names {
			ids[i] = -1
			if kind := c.kind[k]; kind != other {
				if id := s.intern(name); kind == edgeEntry {
					ids[i] = int32(id)
				}
			}
			i++
		}
	}
}

// mergeFold is one Build's merge of the logged edges into the previous
// rows, run over ranges of queries.
type mergeFold struct {
	base *Graph // the previous rows; nil before the first Build
	log  entryLog
	aid  []int32 // each logged edge's ad id, by log position
	// order holds query q's logged edges at order[start[q]:start[q+1]]:
	// log positions in arrival order, until size sorts them by ad. Ids
	// and positions are 32-bit: a Builder holds fewer than 2^31 names a
	// side and 2^32 adds between Builds.
	order []uint32
	start []int
	qPtr  []int // the table's row pointers; row lengths until summed
	g     *Graph
}

// baseRow returns the range of query q's row in the previous table.
func (f *mergeFold) baseRow(q int) (lo, hi int) {
	if f.base == nil || q >= f.base.NumQueries() {
		return 0, 0
	}
	return f.base.qPtr[q], f.base.qPtr[q+1]
}

// size sorts each query of [lo, hi)'s logged edges by ad, then arrival,
// and sets qPtr[q+1] to the length of its merged row.
func (f *mergeFold) size(lo, hi int) {
	var keys []uint64 // a row's edges: ad id over log position
	for q := lo; q < hi; q++ {
		order := f.order[f.start[q]:f.start[q+1]]
		keys = keys[:0]
		for _, i := range order {
			keys = append(keys, uint64(f.aid[i])<<32|uint64(i))
		}
		slices.Sort(keys)
		p, end := f.baseRow(q)
		n := end - p
		for k, key := range keys {
			order[k] = uint32(key)
			ad := int(key >> 32)
			if k > 0 && keys[k-1]>>32 == key>>32 {
				continue
			}
			for p < end && f.base.ad[p] < ad {
				p++
			}
			if p == end || f.base.ad[p] != ad {
				n++
			}
		}
		f.qPtr[q+1] = n
	}
}

// fill writes the merged row of each query of [lo, hi) at qPtr[q]: the
// previous row's edges and the logged ones in ad order, each logged
// observation merged into its edge in arrival order.
func (f *mergeFold) fill(lo, hi int) {
	g := f.g
	for q := lo; q < hi; q++ {
		order := f.order[f.start[q]:f.start[q+1]]
		p, end := f.baseRow(q)
		k := 0
		for out := f.qPtr[q]; p < end || k < len(order); out++ {
			var ad int
			var w EdgeWeights
			if k == len(order) || p < end && f.base.ad[p] <= int(f.aid[order[k]]) {
				ad, w = f.base.ad[p], f.base.weightsAt(p)
				p++
			} else {
				ad, w = int(f.aid[order[k]]), f.log.weights(order[k])
				k++
			}
			for ; k < len(order) && int(f.aid[order[k]]) == ad; k++ {
				w.merge(f.log.weights(order[k]))
			}
			g.ad[out], g.rate[out], g.clicks[out], g.impr[out] = ad, w.ExpectedClickRate, w.Clicks, w.Impressions
		}
	}
}

// concurrently runs a on a goroutine of its own and b on the caller's,
// and returns when both have.
func concurrently(a, b func()) {
	done := make(chan struct{})
	go func() {
		a()
		close(done)
	}()
	b()
	<-done
}

// Graph is an immutable weighted bipartite click graph. Node ids are dense
// ints per side: query ids in [0, NumQueries), ad ids in [0, NumAds).
type Graph struct {
	queries []string
	ads     []string
	// The name→id maps: handed over by Build and RemoveEdges, built from
	// the names on the first lookup of a graph NewSubview carved. Read
	// them through index.
	names   sync.Once
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
// empty edge table of capacity n and no name maps. The caller appends the
// edges in (query id, ad id) order, sets qPtr and calls indexAds.
func newGraph(queries, ads []string, n int) *Graph {
	return &Graph{
		queries: queries,
		ads:     ads,
		qPtr:    make([]int, len(queries)+1),
		ad:      make([]int, 0, n),
		rate:    make([]float64, 0, n),
		clicks:  make([]int64, 0, n),
		impr:    make([]int64, 0, n),
	}
}

// setIndex hands g the name→id maps of its names.
func (g *Graph) setIndex(queryID, adID map[string]int) {
	g.names.Do(func() { g.queryID, g.adID = queryID, adID })
}

// index returns g's name→id maps, building them on the first call if g
// was given none.
func (g *Graph) index() (queryID, adID map[string]int) {
	g.names.Do(func() { g.queryID, g.adID = idsOf(g.queries), idsOf(g.ads) })
	return g.queryID, g.adID
}

func idsOf(names []string) map[string]int {
	ids := make(map[string]int, len(names))
	for i, name := range names {
		ids[name] = i
	}
	return ids
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
	queryID, _ := g.index()
	id, ok := queryID[q]
	return id, ok
}

// AdID returns the id of ad a and whether it exists.
func (g *Graph) AdID(a string) (int, bool) {
	_, adID := g.index()
	id, ok := adID[a]
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
// ad id) edges. Node ids are preserved, including nodes left isolated, and
// the new graph shares g's names and name maps. Unknown edges are ignored.
// The desirability experiment (§9.3) uses this to delete the direct
// evidence between a query and its rewrite candidates.
func (g *Graph) RemoveEdges(drop [][2]int) *Graph {
	skip := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		skip[e] = true
	}
	out := newGraph(g.queries, g.ads, g.NumEdges())
	for q := range g.queries {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			if !skip[[2]int{q, g.ad[p]}] {
				out.appendEdge(g.ad[p], g.weightsAt(p))
			}
		}
		out.qPtr[q+1] = len(out.ad)
	}
	out.indexAds()
	out.setIndex(g.index())
	return out
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
