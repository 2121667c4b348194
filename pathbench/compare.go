package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The one compare/gate implementation: given the --out files of a parent
// and a change (ideally ≥10 runs each, made in alternation), it applies
// every end-to-end metric's direction and bound, per workload.

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method (Python's statistics.quantiles(v, n=4)).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p*float64(len(s)+1) - 1
		i := int(pos)
		switch {
		case pos <= 0:
			return s[0]
		case i >= len(s)-1:
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// verdict is one (workload, metric) pairing's outcome.
type verdict struct {
	Workload, Metric, Outcome string
	Parent, Change            [3]float64 // q1, median, q3
	Spread, Worse             float64    // parent IQR / median; change worse than parent by this share
	Wins, Pairs, Bound        float64
}

// judge compares one metric's parent and change runs. worse > 0 means the
// change is worse, whichever direction is better. Paired runs (same index
// in both files) count as a win for whichever side is better.
func judge(def metricDef, parent, change []float64) verdict {
	v := verdict{Metric: def.Name, Bound: def.Bound}
	v.Parent[0], v.Parent[1], v.Parent[2] = quartiles(parent)
	v.Change[0], v.Change[1], v.Change[2] = quartiles(change)
	iqr := v.Parent[2] - v.Parent[0]
	if v.Parent[1] != 0 {
		v.Spread = iqr / v.Parent[1]
		v.Worse = (v.Change[1] - v.Parent[1]) / v.Parent[1]
		if def.Better == "higher" {
			v.Worse = -v.Worse
		}
	}
	for i := 0; i < len(parent) && i < len(change); i++ {
		v.Pairs++
		better := change[i] < parent[i]
		if def.Better == "higher" {
			better = change[i] > parent[i]
		}
		if better {
			v.Wins++
		}
	}
	gap := v.Change[1] - v.Parent[1]
	if gap < 0 {
		gap = -gap
	}
	switch {
	case v.Spread > def.Bound:
		v.Outcome = "unresolved" // the parent's own runs differ by more than the bound
	case v.Worse > def.Bound:
		v.Outcome = "REGRESSION"
	case v.Worse < 0 && v.Pairs >= 10 && v.Wins >= 0.9*v.Pairs && gap > iqr:
		v.Outcome = "improved"
	default:
		v.Outcome = "ok"
	}
	return v
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareRecords judges every (workload, metric) pairing present on both
// sides, in the order workloads first appear in the parent.
func compareRecords(parent, change []record, defs []metricDef) []verdict {
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var order []string
	seen := map[string]bool{}
	for _, r := range parent {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			order = append(order, r.Workload)
		}
	}
	var out []verdict
	for _, w := range order {
		for _, d := range defs {
			p, c := values(parent, w, d.Name), values(change, w, d.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(d, p, c)
			v.Workload = w
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints the verdict table and returns an error if any
// pairing regressed or more operations failed on the change.
func compareFiles(w io.Writer, parentPath, changePath string, defs []metricDef) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	failedOps := func(recs []record) (n int64) {
		for _, r := range recs {
			n += r.Result.Failed
		}
		return n
	}
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %12s %8s %8s %7s %7s  %s\n",
		"workload", "metric", "parent med", "change med", "parent iqr", "spread", "worse", "bound", "wins", "outcome")
	regressed := 0
	for _, v := range compareRecords(parent, change, defs) {
		fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %12.5g %7.1f%% %+7.1f%% %6.0f%% %3.0f/%-3.0f  %s\n",
			v.Workload, v.Metric, v.Parent[1], v.Change[1], v.Parent[2]-v.Parent[0],
			100*v.Spread, 100*v.Worse, 100*v.Bound, v.Wins, v.Pairs, v.Outcome)
		if v.Outcome == "REGRESSION" {
			regressed++
		}
	}
	pf, cf := failedOps(parent), failedOps(change)
	fmt.Fprintf(w, "failed operations: parent %d, change %d\n", pf, cf)
	if regressed > 0 || cf > pf {
		return fmt.Errorf("%d pairing(s) regressed beyond their bound; failed operations %d → %d", regressed, pf, cf)
	}
	return nil
}
