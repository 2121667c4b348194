// Package pearson implements the query-rewriting baseline of §9.1 of the
// Simrank++ paper: the Pearson correlation between two queries' edge
// weights over their common ads. It can only relate queries that share at
// least one ad, which is exactly the limitation the paper's coverage
// experiment (Figure 8) exposes.
package pearson

import (
	"math"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/sparse"
)

// Similarity returns sim_pearson(q1, q2) on g using the given weight
// channel: the Pearson correlation of the two queries' weights over
// E(q1) ∩ E(q2), with each query's mean taken over all of its own edges
// (w̄_q in the paper). It returns 0 when the queries share no ad or when
// either deviation vector is identically zero (degenerate correlation).
// Values are in [-1, 1].
func Similarity(g *clickgraph.Graph, ch core.WeightChannel, q1, q2 int) float64 {
	if q1 == q2 {
		if g.QueryDegree(q1) > 0 {
			return 1
		}
		return 0
	}
	ads1, w1 := ch.Weights(g, clickgraph.QuerySide, q1)
	ads2, w2 := ch.Weights(g, clickgraph.QuerySide, q2)
	m1, m2 := mean(w1), mean(w2)
	num, d1, d2 := 0.0, 0.0, 0.0
	// Both rows ascend by ad id: the common ads are a merge.
	for i, j := 0, 0; i < len(ads1) && j < len(ads2); {
		switch {
		case ads1[i] < ads2[j]:
			i++
		case ads1[i] > ads2[j]:
			j++
		default:
			x, y := w1[i]-m1, w2[j]-m2
			num += x * y
			d1 += x * x
			d2 += y * y
			i++
			j++
		}
	}
	den := math.Sqrt(d1 * d2)
	if den == 0 {
		return 0
	}
	return num / den
}

// TopRewrites returns the k best-correlated rewrite candidates for q,
// descending; k < 0 returns all.
func TopRewrites(g *clickgraph.Graph, ch core.WeightChannel, q, k int) []sparse.Scored {
	var out []sparse.Scored
	ads, _ := g.AdsOf(q)
	seen := map[int]bool{}
	for _, a := range ads {
		qs, _ := g.QueriesOf(a)
		for _, p := range qs {
			if p == q || seen[p] {
				continue
			}
			seen[p] = true
			if v := Similarity(g, ch, q, p); v > 0 {
				out = append(out, sparse.Scored{Node: p, Score: v})
			}
		}
	}
	return sparse.TopScored(out, k)
}

// mean is w̄_q; the NaN of an edgeless query is never read, as it shares no
// ad.
func mean(ws []float64) float64 {
	s := 0.0
	for _, w := range ws {
		s += w
	}
	return s / float64(len(ws))
}
