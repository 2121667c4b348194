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
// a sharded run. A flag the chosen mode does not read is an error naming
// it, not silently ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
)

// options is what one command line asks for.
type options struct {
	graph, outPrefix                  string
	count, minNodes, maxShard, minCut int
	alpha, epsilon                    float64
	plan                              bool
}

// parseFlags reads args. Each mode reads the flags it lists; any other
// flag on the command line is an error naming it rather than ignored.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.graph, "graph", "", "click graph file (required)")
	fs.IntVar(&o.count, "count", 5, "subgraphs to extract")
	fs.Float64Var(&o.alpha, "alpha", 0.15, "PPR teleport probability")
	fs.Float64Var(&o.epsilon, "epsilon", 1e-6, "PPR push threshold")
	fs.IntVar(&o.minNodes, "min-nodes", 300, "minimum nodes per subgraph")
	fs.StringVar(&o.outPrefix, "out-prefix", "subgraph", "output file prefix")
	fs.BoolVar(&o.plan, "plan", false, "print the shard plan RunSharded would execute instead of extracting subgraphs")
	fs.IntVar(&o.maxShard, "max-shard-nodes", 4096, "plan mode: shard node budget")
	fs.IntVar(&o.minCut, "min-cut-nodes", 64, "plan mode: minimum ACL sweep-cut prefix")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	mode, uses := "by subgraph extraction (without -plan)", "graph plan alpha epsilon count min-nodes out-prefix"
	if o.plan {
		mode, uses = "with -plan, which writes no subgraphs", "graph plan alpha epsilon max-shard-nodes min-cut-nodes"
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(uses), f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return nil, fmt.Errorf("%s not used %s", strings.Join(stray, ", "), mode)
	}
	if o.graph == "" {
		return nil, fmt.Errorf("-graph is required")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		fatal(err)
	}
	g, err := clickgraph.ReadFile(o.graph)
	if err != nil {
		fatal(err)
	}
	ppr := partition.PPRConfig{Alpha: o.alpha, Epsilon: o.epsilon}

	if o.plan {
		plan, err := partition.BuildPlan(g, partition.PlanConfig{MaxShardNodes: o.maxShard, MinCutNodes: o.minCut, PPR: ppr})
		if err != nil {
			fatal(err)
		}
		if err := plan.WriteSummary(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	subs, err := partition.Extract(g, o.count, ppr, o.minNodes)
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
		path := fmt.Sprintf("%s%d.graph", o.outPrefix, i+1)
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
