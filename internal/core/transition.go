package core

import (
	"math"

	"simrankpp/internal/clickgraph"
)

// transitionModel precomputes the weighted-SimRank walk factors of §8.2:
//
//	W(q, i) = spread(i) · w(q, i) / Σ_{j∈E(q)} w(q, j)   (i is an ad)
//	W(α, i) = spread(i) · w(α, i) / Σ_{j∈E(α)} w(α, j)   (i is a query)
//	spread(v) = e^{-variance(v)}
//
// where variance(v) is the population variance of the weights on v's
// incident edges. The factors satisfy the consistency rules of Definition
// 8.1: higher weight toward a low-variance neighbor yields a larger factor.
type transitionModel struct {
	g       *clickgraph.Graph
	channel WeightChannel
	// spreadQ[q] = e^{-variance over q's incident edge weights};
	// spreadA[a] analogous.
	spreadQ, spreadA []float64
	// rowSumQ[q] = Σ_{a∈E(q)} w(q,a); rowSumA[a] = Σ_{q∈E(a)} w(q,a).
	rowSumQ, rowSumA []float64
}

// Weights returns the neighbor ids and channel c's weights of a node.
func (c WeightChannel) Weights(g *clickgraph.Graph, side clickgraph.Side, id int) ([]int, []float64) {
	if c == ChannelRate {
		// The one float column, stored in both orders: shared rows, no
		// gather of an ad's counts and no conversion.
		if side == clickgraph.QuerySide {
			return g.AdsOf(id)
		}
		return g.QueriesOf(id)
	}
	row := g.Row(side, id)
	counts := row.Clicks
	if c == ChannelImpressions {
		counts = row.Impressions
	}
	w := make([]float64, len(counts))
	for i, n := range counts {
		w[i] = float64(n)
	}
	return row.Neighbors, w
}

// popVariance returns the population variance of xs (0 for fewer than two
// values, matching "a single observation has no spread").
func popVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	v := 0.0
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return v / float64(n)
}

// newTransitionModel scans the graph once and caches spreads and row sums.
func newTransitionModel(g *clickgraph.Graph, ch WeightChannel) *transitionModel {
	m := &transitionModel{
		g:       g,
		channel: ch,
		spreadQ: make([]float64, g.NumQueries()),
		spreadA: make([]float64, g.NumAds()),
		rowSumQ: make([]float64, g.NumQueries()),
		rowSumA: make([]float64, g.NumAds()),
	}
	for q := 0; q < g.NumQueries(); q++ {
		_, w := ch.Weights(g, clickgraph.QuerySide, q)
		m.rowSumQ[q] = sum(w)
		m.spreadQ[q] = math.Exp(-popVariance(w))
	}
	for a := 0; a < g.NumAds(); a++ {
		_, w := ch.Weights(g, clickgraph.AdSide, a)
		m.rowSumA[a] = sum(w)
		m.spreadA[a] = math.Exp(-popVariance(w))
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// queryRow fills w, which has one cell per ad neighbor of query q in the
// order AdsOf lists them, with the walk factors W(q, a).
func (m *transitionModel) queryRow(q int, w []float64) {
	ads, raw := m.channel.Weights(m.g, clickgraph.QuerySide, q)
	rs := m.rowSumQ[q]
	if rs == 0 {
		clear(w)
		return
	}
	for i, a := range ads {
		w[i] = m.spreadA[a] * raw[i] / rs
	}
}

// adRow fills w, one cell per query neighbor of ad a in the order
// QueriesOf lists them, with the walk factors W(a, q).
func (m *transitionModel) adRow(a int, w []float64) {
	queries, raw := m.channel.Weights(m.g, clickgraph.AdSide, a)
	rs := m.rowSumA[a]
	if rs == 0 {
		clear(w)
		return
	}
	for i, q := range queries {
		w[i] = m.spreadQ[q] * raw[i] / rs
	}
}
