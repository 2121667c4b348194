package core

import (
	"testing"

	"simrankpp/internal/clickgraph"
)

func TestParallelMatchesSerial(t *testing.T) {
	graphs := []*clickgraph.Graph{
		clickgraph.Fig3(),
		completeBipartite(5, 4),
		randomGraph(99, 12, 10, 40),
	}
	for _, g := range graphs {
		for _, variant := range []Variant{Simple, Evidence, Weighted} {
			for _, workers := range []int{1, 2, 4, 7} {
				cfg := DefaultConfig().WithVariant(variant)
				cfg.Channel = ChannelClicks
				serial := mustRun(t, g, cfg)
				par, err := runEngine(g, cfg, workers, nil, nil)
				if err != nil {
					t.Fatalf("runEngine(%v, %d workers): %v", variant, workers, err)
				}
				for i := 0; i < g.NumQueries(); i++ {
					for j := i + 1; j < g.NumQueries(); j++ {
						s, p := serial.QuerySim(i, j), par.QuerySim(i, j)
						if !almostEqual(s, p, 1e-9) {
							t.Fatalf("%v workers=%d: sim(%d,%d) serial %.12f parallel %.12f",
								variant, workers, i, j, s, p)
						}
					}
				}
				for i := 0; i < g.NumAds(); i++ {
					for j := i + 1; j < g.NumAds(); j++ {
						s, p := serial.AdSim(i, j), par.AdSim(i, j)
						if !almostEqual(s, p, 1e-9) {
							t.Fatalf("%v workers=%d: ad sim(%d,%d) serial %.12f parallel %.12f",
								variant, workers, i, j, s, p)
						}
					}
				}
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.C1 = 0
	if _, err := runEngine(clickgraph.Fig3(), cfg, 4, nil, nil); err == nil {
		t.Error("runEngine accepted invalid config")
	}
}

func TestParallelConvergence(t *testing.T) {
	g := clickgraph.Fig3()
	cfg := DefaultConfig()
	cfg.Iterations = 500
	cfg.Tolerance = 1e-10
	r, err := runEngine(g, cfg, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Error("parallel engine did not converge")
	}
}
