// Command partition extracts low-conductance subgraphs from a click graph
// with the Andersen-Chung-Lang algorithm, reproducing the paper's
// five-subgraph dataset construction (§9.2).
//
// Usage:
//
//	partition -graph FILE [-count 5] [-alpha 0.15] [-epsilon 1e-6]
//	          [-min-nodes 300] [-out-prefix subgraph]
//	partition -graph FILE -plan [-max-shard-nodes 4096] [-min-cut-nodes 64]
//
// Each subgraph is written to <out-prefix>N.graph; statistics go to
// stdout in the shape of Table 5.
//
// With -plan, no subgraphs are written: the full shard plan that
// core.RunSharded (simrank -sharded) would execute is built — whole
// components packed under the node budget, oversized components carved
// with ACL sweep cuts — and printed as a table of per-shard sizes, cut
// edges and conductance, so a plan can be inspected before committing to
// a sharded run.
package main

import (
	"flag"
	"fmt"
	"os"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "click graph file (required)")
		count     = flag.Int("count", 5, "subgraphs to extract")
		alpha     = flag.Float64("alpha", 0.15, "PPR teleport probability")
		epsilon   = flag.Float64("epsilon", 1e-6, "PPR push threshold")
		minNodes  = flag.Int("min-nodes", 300, "minimum nodes per subgraph")
		outPrefix = flag.String("out-prefix", "subgraph", "output file prefix")
		planMode  = flag.Bool("plan", false, "print the shard plan RunSharded would execute instead of extracting subgraphs")
		maxShard  = flag.Int("max-shard-nodes", 4096, "plan mode: shard node budget")
		minCut    = flag.Int("min-cut-nodes", 64, "plan mode: minimum ACL sweep-cut prefix")
	)
	flag.Parse()
	if *graphPath == "" {
		fatal(fmt.Errorf("-graph is required"))
	}
	g, err := clickgraph.ReadFile(*graphPath)
	if err != nil {
		fatal(err)
	}

	if *planMode {
		pcfg := partition.PlanConfig{
			MaxShardNodes: *maxShard,
			MinCutNodes:   *minCut,
			PPR:           partition.PPRConfig{Alpha: *alpha, Epsilon: *epsilon},
		}
		plan, err := partition.BuildPlan(g, pcfg)
		if err != nil {
			fatal(err)
		}
		if err := plan.WriteSummary(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	subs, err := partition.Extract(g, *count, partition.PPRConfig{Alpha: *alpha, Epsilon: *epsilon}, *minNodes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-12s  %10s  %10s  %10s  %12s\n", "", "# Queries", "# Ads", "# Edges", "Conductance")
	var tq, ta, te int
	for i, s := range subs {
		st := clickgraph.ComputeStats(s.Graph)
		fmt.Printf("subgraph %-3d  %10d  %10d  %10d  %12.4f\n", i+1, st.Queries, st.Ads, st.Edges, s.Conductance)
		tq += st.Queries
		ta += st.Ads
		te += st.Edges
		path := fmt.Sprintf("%s%d.graph", *outPrefix, i+1)
		out, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := clickgraph.Write(out, s.Graph); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%-12s  %10d  %10d  %10d\n", "Total", tq, ta, te)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partition:", err)
	os.Exit(1)
}
