package clickgraph

import (
	"fmt"
	"slices"
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
// what survived, no maps on the edge path — and carries no name maps
// until its first QueryID or AdID, so carving many shards out of a large
// graph stays cheap.
func NewSubview(g *Graph, queryIDs, adIDs []int) (*Subview, error) {
	qSel, err := checkIDs(queryIDs, g.NumQueries(), "query")
	if err != nil {
		return nil, err
	}
	aSel, err := checkIDs(adIDs, g.NumAds(), "ad")
	if err != nil {
		return nil, err
	}
	queries, ads := make([]string, len(qSel)), make([]string, len(aSel))
	maxEdges := 0
	for i, q := range qSel {
		queries[i] = g.queries[q]
		maxEdges += g.QueryDegree(q)
	}
	for i, a := range aSel {
		ads[i] = g.ads[a]
	}
	// Global→local ad translation is a binary search of the sorted aSel —
	// no scratch sized to the parent's ad side, so carving many shards out
	// of a large graph allocates in proportion to the shards alone. Parent
	// rows ascend and local ids preserve their order, so the table comes
	// out in (query, ad) order without sorting.
	sub := newGraph(queries, ads, maxEdges)
	for i, q := range qSel {
		for p := g.qPtr[q]; p < g.qPtr[q+1]; p++ {
			if la, ok := slices.BinarySearch(aSel, g.ad[p]); ok {
				sub.appendEdge(la, g.weightsAt(p))
			}
		}
		sub.qPtr[i+1] = len(sub.ad)
	}
	sub.indexAds()
	return &Subview{Graph: sub, QueryIDs: qSel, AdIDs: aSel}, nil
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
