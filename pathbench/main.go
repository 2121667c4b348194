// Command pathbench is the repository's one end-to-end benchmark: it
// generates a seeded ≥10^5-node click graph, builds the serving snapshot
// with the production engine settings, stands up two replicas, a gateway
// and an ingest controller on loopback sockets inside this process,
// drives one of four workloads through them, checks the answers, and
// prints every metric by name and unit. README.md has the glossary.
//
//	pathbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|smoke]
//	pathbench --spec                       # print BENCHMARK.json
//	pathbench --compare parent.jsonl change.jsonl
//	pathbench --repeat N --workload NAME ... [--out runs.jsonl]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var processStart = time.Now()

// options is one run's configuration.
type options struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Scale    Scale
	WorkDir  string // parent for the run's scratch directory
	Verbose  bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract's four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run stamped with where and how it was made, for
// --repeat/--compare files.
type record struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Scale      string         `json:"scale"`
	Host       string         `json:"host"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Dirty      bool           `json:"dirty"`
	Samples    map[string]int `json:"samples"`
	Result     result         `json:"result"`
}

func main() {
	var (
		workload = flag.String("workload", "", "cold-build | read-hot | read-cold, or the undeclared ingest-stream")
		seed     = flag.Uint64("seed", 1, "input seed: same seed, same inputs")
		seconds  = flag.Int("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		scale    = flag.String("scale", "full", "full (≥10^5 nodes) | smoke (≈2k nodes)")
		printSpc = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		compare  = flag.Bool("compare", false, "compare two --out files (parent change) under ./BENCHMARK.json's directions and bounds")
		repeat   = flag.Int("repeat", 1, "run the workload N times with seeds seed, seed+1, ...")
		out      = flag.String("out", "", "append each run's stamped record to this JSON-lines file")
		verbose  = flag.Bool("v", false, "progress lines on standard error")
	)
	flag.Parse()
	switch {
	case *printSpc:
		if err := spec().validate(); err != nil {
			fatal(err)
		}
		b, _ := json.MarshalIndent(spec(), "", "  ")
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare wants two files: parent change"))
		}
		// Directions and bounds come from the checkout's BENCHMARK.json.
		s, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), s.EndToEnd); err != nil {
			fatal(err)
		}
		return
	}
	opt := options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		WorkDir: ".bench_build", Verbose: *verbose}
	switch *scale {
	case "full":
		opt.Scale = fullScale()
	case "smoke":
		opt.Scale = smokeScale()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if opt.Seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	// The servers under test run on every core, as an operator's would.
	runtime.GOMAXPROCS(runtime.NumCPU())
	for i := 0; i < *repeat; i++ {
		o := opt
		o.Seed += uint64(i)
		rec, err := runStamped(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		processStart = time.Now() // the next repetition's set-up starts here
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pathbench:", err)
	os.Exit(1)
}

// runStamped runs one workload, prints every metric by name and unit —
// the result object last, on a line of its own — and stamps the record.
func runStamped(opt options, w io.Writer) (*record, error) {
	e, err := run(opt)
	if err != nil {
		return nil, err
	}
	defs := metricsFor(opt.Workload, opt.Trace)
	res := result{Attempted: e.attempted.Load(), Failed: e.failed.Load(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v scale=%s nodes=%d edges=%d\n",
		opt.Workload, opt.Seed, opt.Seconds, opt.Trace, opt.Scale.Name, e.nodes, e.edges)
	for _, note := range e.notes {
		fmt.Fprintln(w, "# "+note)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: e.metrics[d.Name], Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", d.Name, e.metrics[d.Name], d.Unit, e.samples[d.Name])
	}
	fmt.Fprintf(w, "%-34s %16d\n%-34s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	host, _ := os.Hostname()
	commit, dirty := gitState()
	return &record{Workload: opt.Workload, Seed: opt.Seed, Seconds: opt.Seconds, Trace: opt.Trace,
		Scale: opt.Scale.Name, Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Dirty: dirty, Samples: e.samples, Result: res}, nil
}

// gitState reports the checkout's commit and whether it has local
// changes; both are empty when the checkout is not a git repository (the
// driver's is not).
func gitState() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "", false
	}
	st, _ := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(st) > 0
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// run dispatches one workload inside a scratch directory of its own.
func run(opt options) (*env, error) {
	fn, ok := map[string]func(*env) error{
		"cold-build":    coldBuild,
		"read-hot":      readHot,
		"read-cold":     readCold,
		"ingest-stream": ingestStream,
	}[opt.Workload]
	if !ok {
		var names []string
		for _, w := range append(workloads, undeclared...) {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.Workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := newEnv(opt, dir)
	if opt.Trace {
		e.tr = newTracer()
	}
	if err := fn(e); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.Workload, err)
	}
	e.noteSteal()
	if e.tr != nil {
		if err := e.tr.write(filepath.Join(opt.WorkDir, "spans-"+opt.Workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	return e, nil
}
