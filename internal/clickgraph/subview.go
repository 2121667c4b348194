package clickgraph

import (
	"fmt"
	"sort"
)

// Subview is an induced subgraph of a parent Graph together with the
// stable local↔global id remapping the shard engines stitch results back
// through. Local ids are dense per side and assigned in ascending global
// order, so the relative order of any two surviving nodes — and therefore
// the iteration order of every neighbor list — is exactly the parent's.
// That monotonicity is what lets a per-shard SimRank run reproduce the
// whole-graph run bit for bit on shards that are unions of connected
// components.
type Subview struct {
	// Graph is the induced subgraph: only edges with both endpoints kept
	// survive, and its node ids are local.
	Graph *Graph
	// QueryIDs maps local query id -> global query id (strictly
	// ascending); AdIDs likewise for ads. Callers must not mutate them.
	QueryIDs, AdIDs []int
}

// NewSubview builds the induced subgraph on the given global query and ad
// id sets. The id lists are copied, sorted and de-duplicated; out-of-range
// ids are an error. Unlike InducedSubgraph (which replays edges through a
// Builder), the view is carved directly out of the parent's edge table —
// one pass over the selected queries' rows, then the ad-ordered view of
// what survived, no maps on the edge path — and carries no name indexes
// until its first QueryID or AdID, so carving many shards out of a large
// graph stays cheap.
//
// adLocal translates an edge's ad to its local id: a table over g's ads
// in which every ad of the view holds its position in the view's ascending
// ad list, the ads of other views anything else (AdTable builds one). The
// views of a partition share one, since each ad lies in one view, so a
// carve allocates in proportion to its view alone.
func NewSubview(g *Graph, queryIDs, adIDs []int, adLocal []int32) (*Subview, error) {
	qSel, err := checkIDs(queryIDs, g.NumQueries(), "query")
	if err != nil {
		return nil, err
	}
	aSel, err := checkIDs(adIDs, g.NumAds(), "ad")
	if err != nil {
		return nil, err
	}
	if len(adLocal) != g.NumAds() {
		return nil, fmt.Errorf("clickgraph: ad table of %d ids for %d ads", len(adLocal), g.NumAds())
	}
	queries, ads := make([]string, len(qSel)), make([]string, len(aSel))
	maxEdges := 0
	for i, q := range qSel {
		queries[i] = g.queries[q]
		maxEdges += g.QueryDegree(q)
	}
	for la, a := range aSel {
		if adLocal[a] != int32(la) {
			return nil, fmt.Errorf("clickgraph: ad table gives ad %d local id %d, not its position %d in the view", a, adLocal[a], la)
		}
		ads[la] = g.ads[a]
	}
	// An edge survives when its ad's local id names that ad in aSel. Parent
	// rows ascend and local ids preserve their order, so the table comes
	// out in (query, ad) order without sorting.
	sub := newGraph(queries, ads, maxEdges)
	for i, q := range qSel {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			a := g.ad[p]
			if la := int(adLocal[a]); la >= 0 && la < len(aSel) && aSel[la] == a {
				sub.appendEdge(la, g.weightsAt(p))
			}
		}
		sub.qPtr[i+1] = len(sub.ad)
	}
	sub.indexAds()
	return &Subview{Graph: sub, QueryIDs: qSel, AdIDs: aSel}, nil
}

// AdTable returns the ad table NewSubview takes for views of g whose ad
// lists are ascending, free of repeats and disjoint, as a partition's
// shards are: each listed ad holds its position in its view's list, every
// other ad 0.
func AdTable(g *Graph, views ...[]int) []int32 {
	table := make([]int32, g.NumAds())
	for _, ads := range views {
		for la, a := range ads {
			table[a] = int32(la)
		}
	}
	return table
}

// checkIDs copies, sorts, de-duplicates and range-checks one side's ids.
func checkIDs(ids []int, n int, side string) ([]int, error) {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	w := 0
	for i, id := range out {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("clickgraph: %s id %d outside [0,%d)", side, id, n)
		}
		if i > 0 && out[i-1] == id {
			continue
		}
		out[w] = id
		w++
	}
	return out[:w], nil
}
