package core

import (
	"runtime"

	"simrankpp/internal/clickgraph"
)

// RunParallel is Run with each iteration's row computations sharded
// across workers goroutines (workers <= 0 selects GOMAXPROCS). The output
// row space is split into contiguous ranges balanced by gather weight;
// every worker computes its rows with a private dense accumulator and
// emits them into disjoint rows of one frontier, so there are no locks and
// no merge phase.
//
// Each output row is computed by exactly one worker in the same order as
// the serial engine, so scores are bit-identical to Run's. The
// differential test pins this.
func RunParallel(g *clickgraph.Graph, cfg Config, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runEngine(g, cfg, workers, nil, nil)
}
