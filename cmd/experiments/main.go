// Command experiments regenerates the tables and figures of the
// Simrank++ paper's evaluation section (§10) on the synthetic dataset.
//
// Usage:
//
//	experiments [-run all|table1|table2|table3|table4|table5|
//	             fig8|fig9|fig10|fig11|fig12] [-seed N] [-trials 50]
//	            [-sessions N] [-sample 120]
//
// Toy tables (1-4) are exact reproductions of the paper's numbers; the
// dataset experiments (table5, fig8-fig12) run on the simulated log and
// reproduce the paper's qualitative shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"simrankpp/internal/experiments"
)

// names lists every experiment -run accepts besides "all", in run order.
var names = []string{"table1", "table2", "table3", "table4", "table5", "fig8", "fig9", "fig10", "fig11", "fig12"}

// options are the parsed command line.
type options struct {
	want     map[string]bool // the -run names
	seed     uint64
	trials   int
	sessions int
	sample   int
}

// parseFlags parses args (without the program name). It refuses an
// experiment name -run does not know, naming the valid ones, and a
// -trials below 1, which would leave Figure 12 without a trial.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := fs.String("run", "all", "which experiments to run, comma-separated: all, "+strings.Join(names, ", "))
	o := &options{want: map[string]bool{}}
	fs.Uint64Var(&o.seed, "seed", 0, "dataset seed override (0 = built-in defaults)")
	fs.IntVar(&o.trials, "trials", 50, "desirability trials (fig12)")
	fs.IntVar(&o.sessions, "sessions", 600000, "simulated sessions")
	fs.IntVar(&o.sample, "sample", 120, "evaluation sample cap")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	for _, r := range strings.Split(*run, ",") {
		r = strings.TrimSpace(r)
		if r != "all" && !slices.Contains(names, r) {
			return nil, fmt.Errorf("-run: unknown experiment %q (valid: all, %s)", r, strings.Join(names, ", "))
		}
		o.want[r] = true
	}
	if o.trials < 1 {
		return nil, fmt.Errorf("-trials must be at least 1, got %d", o.trials)
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
	has := func(name string) bool { return o.want["all"] || o.want[name] }

	if has("table1") {
		fmt.Println(experiments.Table1())
	}
	if has("table2") {
		t, err := experiments.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if has("table3") {
		t, err := experiments.Table3(7)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	if has("table4") {
		t, err := experiments.Table4(7)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}

	needDataset := has("table5") || has("fig8") || has("fig9") || has("fig10") || has("fig11") || has("fig12")
	if !needDataset {
		return
	}
	cfg := experiments.DefaultDatasetConfig()
	if o.seed != 0 {
		cfg.Universe.Seed = o.seed
		cfg.Sponsored.Seed = o.seed + 1
		cfg.SampleSeed = o.seed + 2
	}
	cfg.Sponsored.Sessions = o.sessions
	cfg.MaxSample = o.sample
	fmt.Fprintln(os.Stderr, "building dataset (universe + simulated log + ACL extraction)...")
	ds, err := experiments.BuildDataset(cfg)
	if err != nil {
		fatal(err)
	}
	if has("table5") {
		fmt.Println(experiments.Table5(ds))
	}
	if has("fig8") || has("fig9") || has("fig10") || has("fig11") {
		fmt.Fprintln(os.Stderr, "running the four rewriting methods over the sample...")
		runs, err := experiments.RunMethods(ds)
		if err != nil {
			fatal(err)
		}
		if has("fig8") {
			fmt.Println(experiments.Fig8(ds, runs))
		}
		if has("fig9") {
			fmt.Println(experiments.Fig9(runs))
		}
		if has("fig10") {
			fmt.Println(experiments.Fig10(runs))
		}
		if has("fig11") {
			fmt.Println(experiments.Fig11(runs))
		}
	}
	if has("fig12") {
		fmt.Fprintln(os.Stderr, "running the desirability edge-removal experiment...")
		trialSeed := uint64(4)
		if o.seed != 0 {
			trialSeed = o.seed + 3
		}
		rep, err := experiments.Fig12(ds, o.trials, trialSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
