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
	"os"
	"strings"

	"simrankpp/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "all", "which experiment to run")
		seed     = flag.Uint64("seed", 0, "dataset seed override (0 = built-in defaults)")
		trials   = flag.Int("trials", 50, "desirability trials (fig12)")
		sessions = flag.Int("sessions", 600000, "simulated sessions")
		sample   = flag.Int("sample", 120, "evaluation sample cap")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	has := func(name string) bool { return want["all"] || want[name] }

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
	if *seed != 0 {
		cfg.Universe.Seed = *seed
		cfg.Sponsored.Seed = *seed + 1
		cfg.SampleSeed = *seed + 2
	}
	cfg.Sponsored.Sessions = *sessions
	cfg.MaxSample = *sample
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
		if *seed != 0 {
			trialSeed = *seed + 3
		}
		rep, err := experiments.Fig12(ds, *trials, trialSeed)
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
