package clickgraph

import (
	"fmt"
	"sort"

	"simrankpp/internal/sparse"
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

// LocalQuery returns the local id of global query q and whether q is in
// the view. O(log n) over the ascending id list.
func (v *Subview) LocalQuery(q int) (int, bool) { return searchID(v.QueryIDs, q) }

// LocalAd returns the local id of global ad a and whether a is in the view.
func (v *Subview) LocalAd(a int) (int, bool) { return searchID(v.AdIDs, a) }

func searchID(ids []int, id int) (int, bool) {
	i := sort.SearchInts(ids, id)
	return i, i < len(ids) && ids[i] == id
}

// NewSubview builds the induced subgraph on the given global query and ad
// id sets. The id lists are copied, sorted and de-duplicated; out-of-range
// ids are an error. Unlike InducedSubgraph (which replays edges through a
// Builder), the view is assembled directly from the parent's CSR rows —
// one counting pass and one copying pass per weight channel, no maps on
// the edge path — so carving many shards out of a large graph stays cheap.
func NewSubview(g *Graph, queryIDs, adIDs []int) (*Subview, error) {
	qSel, err := checkIDs(queryIDs, g.NumQueries(), "query")
	if err != nil {
		return nil, err
	}
	aSel, err := checkIDs(adIDs, g.NumAds(), "ad")
	if err != nil {
		return nil, err
	}

	// Global→local ad translation is a binary search of the sorted aSel —
	// no scratch sized to the parent's ad side, so carving many shards out
	// of a large graph allocates in proportion to the shards alone.
	//
	// One shared structure pass sizes the rows; the three weight channels
	// share the structure (they are built from the same edge set), so the
	// column array can be computed once and copied.
	rowPtr := make([]int, len(qSel)+1)
	for i, q := range qSel {
		cols, _ := g.rateQA.Row(q)
		n := 0
		for _, a := range cols {
			if _, ok := searchID(aSel, a); ok {
				n++
			}
		}
		rowPtr[i+1] = rowPtr[i] + n
	}
	nnz := rowPtr[len(qSel)]
	colIdx := make([]int, nnz)
	rateV := make([]float64, nnz)
	clickV := make([]float64, nnz)
	imprV := make([]float64, nnz)
	for i, q := range qSel {
		cols, rates := g.rateQA.Row(q)
		lo := g.clicksQA.RowPtr[q]
		imLo := g.imprQA.RowPtr[q]
		w := rowPtr[i]
		for k, a := range cols {
			la, ok := searchID(aSel, a)
			if !ok {
				continue
			}
			// Parent columns ascend and local ids preserve their order, so
			// rows come out ascending without sorting.
			colIdx[w] = la
			rateV[w] = rates[k]
			clickV[w] = g.clicksQA.Val[lo+k]
			imprV[w] = g.imprQA.Val[imLo+k]
			w++
		}
	}

	sub := &Graph{
		queries: make([]string, len(qSel)),
		ads:     make([]string, len(aSel)),
		queryID: make(map[string]int, len(qSel)),
		adID:    make(map[string]int, len(aSel)),
	}
	for i, q := range qSel {
		sub.queries[i] = g.queries[q]
		sub.queryID[sub.queries[i]] = i
	}
	for i, a := range aSel {
		sub.ads[i] = g.ads[a]
		sub.adID[sub.ads[i]] = i
	}
	// The three channels share the structure arrays; CSR is immutable after
	// construction, so aliasing rowPtr/colIdx across them is safe.
	sub.rateQA = sparse.NewCSR(len(qSel), len(aSel), rowPtr, colIdx, rateV)
	sub.clicksQA = sparse.NewCSR(len(qSel), len(aSel), rowPtr, colIdx, clickV)
	sub.imprQA = sparse.NewCSR(len(qSel), len(aSel), rowPtr, colIdx, imprV)
	sub.rateAQ = sub.rateQA.Transpose()
	sub.clicksAQ = sub.clicksQA.Transpose()
	sub.imprAQ = sub.imprQA.Transpose()
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
