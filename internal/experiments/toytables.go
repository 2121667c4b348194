package experiments

import (
	"fmt"
	"strings"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
)

// PairMatrix is a symmetric query-query score table with labels, the shape
// of the paper's Tables 1 and 2.
type PairMatrix struct {
	Title   string
	Labels  []string
	Scores  [][]float64 // Scores[i][j]; diagonal rendered as "-"
	Decimal int         // digits after the point when rendering
}

// String renders the matrix as an aligned text table.
func (m *PairMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", m.Title)
	w := 0
	for _, l := range m.Labels {
		if len(l) > w {
			w = len(l)
		}
	}
	cell := w
	if c := m.Decimal + 3; c > cell {
		cell = c
	}
	fmt.Fprintf(&b, "%*s", w+2, "")
	for _, l := range m.Labels {
		fmt.Fprintf(&b, "%*s", cell+2, l)
	}
	b.WriteByte('\n')
	for i, l := range m.Labels {
		fmt.Fprintf(&b, "%-*s", w+2, l)
		for j := range m.Labels {
			if i == j {
				fmt.Fprintf(&b, "%*s", cell+2, "-")
			} else {
				fmt.Fprintf(&b, "%*.*f", cell+2, m.Decimal, m.Scores[i][j])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// fig3Order is the row/column order of the paper's Tables 1-2.
var fig3Order = []string{"pc", "camera", "digital camera", "tv", "flower"}

// Table1 reproduces Table 1: common-ad counts between the Figure 3
// queries.
func Table1() *PairMatrix {
	g := clickgraph.Fig3()
	counts := core.CommonAdCounts(g)
	m := &PairMatrix{
		Title:   "Table 1: query-query similarity by common-ad counting (Figure 3 graph)",
		Labels:  fig3Order,
		Decimal: 0,
	}
	m.Scores = make([][]float64, len(fig3Order))
	for i, qi := range fig3Order {
		m.Scores[i] = make([]float64, len(fig3Order))
		ii, _ := g.QueryID(qi)
		for j, qj := range fig3Order {
			jj, _ := g.QueryID(qj)
			m.Scores[i][j] = float64(counts[ii][jj])
		}
	}
	return m
}

// Table2 reproduces Table 2: SimRank scores with C1 = C2 = 0.8 on the
// Figure 3 graph, run to convergence as the paper's table implies.
func Table2() (*PairMatrix, error) {
	g := clickgraph.Fig3()
	cfg := core.DefaultConfig()
	cfg.Iterations = 1000
	cfg.Tolerance = 1e-12
	res, err := core.Run(g, cfg)
	if err != nil {
		return nil, err
	}
	m := &PairMatrix{
		Title:   "Table 2: query-query SimRank scores, C1=C2=0.8 (Figure 3 graph)",
		Labels:  fig3Order,
		Decimal: 3,
	}
	m.Scores = make([][]float64, len(fig3Order))
	for i, qi := range fig3Order {
		m.Scores[i] = make([]float64, len(fig3Order))
		ii, _ := g.QueryID(qi)
		for j, qj := range fig3Order {
			jj, _ := g.QueryID(qj)
			if ii != jj {
				m.Scores[i][j] = res.QuerySim(ii, jj)
			}
		}
	}
	return m, nil
}

// IterationTable is the shape of Tables 3-4: one score per iteration for
// the two Figure 4 pairs.
type IterationTable struct {
	Title string
	// K22 is sim("camera", "digital camera") on K2,2 per iteration 1..k;
	// K12 is sim("pc", "camera") on K1,2.
	K22, K12 []float64
}

// String renders the table.
func (t *IterationTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-10s  %-32s  %-20s\n", "Iteration", `sim("camera","digital camera")`, `sim("pc","camera")`)
	for i := range t.K22 {
		fmt.Fprintf(&b, "%-10d  %-32.7f  %-20.7f\n", i+1, t.K22[i], t.K12[i])
	}
	return b.String()
}

// iterationSeries runs the engine at k = 1..iters and collects the score
// of the named query pair, whose side Run computes at depth k.
func iterationSeries(g *clickgraph.Graph, cfg core.Config, q1, q2 string, iters int) ([]float64, error) {
	out := make([]float64, iters)
	for k := 1; k <= iters; k++ {
		c := cfg
		c.Iterations = k
		res, err := core.Run(g, c)
		if err != nil {
			return nil, err
		}
		i, ok := res.Graph.QueryID(q1)
		if !ok {
			return nil, fmt.Errorf("experiments: query %q missing", q1)
		}
		j, ok := res.Graph.QueryID(q2)
		if !ok {
			return nil, fmt.Errorf("experiments: query %q missing", q2)
		}
		out[k-1] = res.QuerySim(i, j)
	}
	return out, nil
}

// Table3 reproduces Table 3: per-iteration SimRank on the Figure 4 graphs.
func Table3(iters int) (*IterationTable, error) {
	cfg := core.DefaultConfig()
	k22, err := iterationSeries(clickgraph.Fig4K22(), cfg, "camera", "digital camera", iters)
	if err != nil {
		return nil, err
	}
	k12, err := iterationSeries(clickgraph.Fig4K12(), cfg, "pc", "camera", iters)
	if err != nil {
		return nil, err
	}
	return &IterationTable{
		Title: "Table 3: SimRank per iteration on the Figure 4 graphs, C1=C2=0.8",
		K22:   k22, K12: k12,
	}, nil
}

// Table4 reproduces Table 4: per-iteration evidence-based SimRank on the
// Figure 4 graphs.
func Table4(iters int) (*IterationTable, error) {
	cfg := core.DefaultConfig().WithVariant(core.Evidence)
	k22, err := iterationSeries(clickgraph.Fig4K22(), cfg, "camera", "digital camera", iters)
	if err != nil {
		return nil, err
	}
	k12, err := iterationSeries(clickgraph.Fig4K12(), cfg, "pc", "camera", iters)
	if err != nil {
		return nil, err
	}
	return &IterationTable{
		Title: "Table 4: evidence-based SimRank per iteration on the Figure 4 graphs, C1=C2=0.8",
		K22:   k22, K12: k12,
	}, nil
}
