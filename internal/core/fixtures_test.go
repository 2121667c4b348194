package core

import (
	"fmt"

	"simrankpp/internal/clickgraph"
)

// The small graphs only this package's tests build; the paper fixtures
// the table experiments print (Figures 3 and 4) stay in clickgraph.

// completeBipartite builds K_{m,n}: m queries named q0..q(m-1) fully
// connected to n ads named a0..a(n-1), all weights unit.
func completeBipartite(m, n int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if err := b.AddClick(fmt.Sprintf("q%d", i), fmt.Sprintf("a%d", j), 1); err != nil {
				panic(fmt.Sprintf("completeBipartite fixture: %v", err))
			}
		}
	}
	return b.Build()
}

// fig5Left builds the left weighted graph of Figure 5: queries flower and
// orchids each bring 100 clicks to the same ad — equal spread, high
// similarity expected.
func fig5Left() *clickgraph.Graph {
	return twoQueryOneAd("flower", "orchids", "teleflora.com", 100, 100)
}

// fig5Right builds the right weighted graph of Figure 5: flower brings
// 190 clicks and teleflora brings 10 to the same ad — high variance,
// lower similarity expected.
func fig5Right() *clickgraph.Graph {
	return twoQueryOneAd("flower", "teleflora", "teleflora.com", 190, 10)
}

func twoQueryOneAd(q1, q2, ad string, c1, c2 int64) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for _, e := range []struct {
		q string
		c int64
	}{{q1, c1}, {q2, c2}} {
		if err := b.AddEdge(e.q, ad, clickgraph.EdgeWeights{
			Impressions:       e.c * 2,
			Clicks:            e.c,
			ExpectedClickRate: 0.5,
		}); err != nil {
			panic(fmt.Sprintf("twoQueryOneAd fixture: %v", err))
		}
	}
	return b.Build()
}
