package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"simrankpp/internal/partition"
)

// The seed is the only source of variation: same seed, same graph, key
// stream and click stream; another seed, other ones.
func TestGeneratorIsSeeded(t *testing.T) {
	type inputs struct {
		fingerprint uint64
		hot, cold   []string
		clicks      string
	}
	gen := func(seed uint64) inputs {
		ds := Generate(seed, smokeScale())
		g, err := BuildGraph(ds.Log)
		if err != nil {
			t.Fatal(err)
		}
		var clicks strings.Builder
		for _, b := range ds.ClickStream(5, 20) {
			clicks.Write(ingestPost("", b).body)
		}
		return inputs{partition.GraphFingerprint(g), HotKeys(seed, 0, g.Queries(), 200),
			UniformKeys(seed, 0, g.Ads(), 200), clicks.String()}
	}
	a, again, b := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("the same seed generated different inputs")
	}
	if a.fingerprint == b.fingerprint || reflect.DeepEqual(a.hot, b.hot) ||
		reflect.DeepEqual(a.cold, b.cold) || a.clicks == b.clicks {
		t.Fatal("different seeds generated the same inputs")
	}
	if !strings.Contains(a.clicks, "n0\t") {
		t.Error("the click stream names no new query")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z, r := newZipf(1000), rng(1, 1)
	first := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if z.sample(r) == 0 {
			first++
		}
	}
	// P(rank 0) = 1/H(1000) ≈ 0.134.
	if p := float64(first) / n; p < 0.12 || p > 0.15 {
		t.Errorf("rank 0 drawn with probability %.3f, want about 0.134", p)
	}
}

// BENCHMARK.json is generated by `pathbench --spec`; the table in spec.go
// is the source of truth and the file must not drift from it.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := spec()
	if err := want.validate(); err != nil {
		t.Fatal(err)
	}
	got, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from spec(): regenerate it with `pathbench --spec`")
	}
}

// The CI leg: every workload, untraced and traced, at smoke scale. Each
// run must report exactly the declared metrics and fail nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the whole stack eight times")
	}
	for _, w := range append(workloads, undeclared...) {
		for _, trace := range []bool{false, true} {
			opt := options{Workload: w.Name, Seed: 3, Seconds: 1, Trace: trace, Scale: smokeScale(), WorkDir: t.TempDir()}
			processStart = time.Now()
			var out bytes.Buffer
			rec, err := runStamped(opt, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := metricsFor(w.Name, trace)
			if len(rec.Result.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, trace, len(rec.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s reported as %+v (present: %v)", w.Name, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want a positive number", w.Name, d.Name, m.Value)
				}
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace,
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s trace=%v: last output line is not the result object: %v", w.Name, trace, err)
			}
		}
	}
}

// A paired window reports each second at the reference box's speed: a
// second in which the reference round trips were twice as slow has its
// latencies halved and its count doubled before the median over seconds.
func TestPairedWindowIsScaledPerSecond(t *testing.T) {
	d := driven{
		seconds: []lats{{100, 100, 100}, {150, 150, 150}, {400, 400, 400}},
		slow:    []float64{1, 1.5, 2},
	}
	if got := d.over(0.5); got != 100 {
		t.Errorf("scaled p50 = %v, want 100 (100/1, 150/1.5, 400/2 -> median 100)", got)
	}
	if got := d.rate(); got != 4.5 {
		t.Errorf("scaled rate = %v, want 4.5 (3*1, 3*1.5, 3*2 -> median 4.5)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_per_s", Better: "higher", Bound: 0.10}
	noisy := []float64{100, 140, 70, 100, 150, 60, 100, 130, 80, 100}
	for _, c := range []struct {
		name   string
		def    metricDef
		change []float64
		parent []float64
		want   string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, scale(steady, 1.05), steady, "ok"},
		{"slower beyond bound", lower, scale(steady, 1.2), steady, "REGRESSION"},
		{"faster", lower, scale(steady, 0.8), steady, "improved"},
		{"less throughput", higher, scale(steady, 0.8), steady, "REGRESSION"},
		{"more throughput", higher, scale(steady, 1.3), steady, "improved"},
		{"parent too noisy to tell", lower, scale(noisy, 1.2), noisy, "unresolved"},
		{"too few pairs to claim a gain", lower, scale(steady[:5], 0.8), steady[:5], "ok"},
	} {
		if got := judge(c.def, c.parent, c.change).Outcome; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildCover(t *testing.T) {
	tr := &tracer{}
	add := func(name string, seq uint64, start, end int64) {
		tr.spans = append(tr.spans, span{Name: name, Seq: seq, Start: start, End: end})
	}
	// One request: client 0..100, gateway 10..90, two overlapping upstream
	// calls 20..50 and 40..80 (a batch fan-out), handlers inside them.
	add("client", 1, 0, 100)
	add("gw", 1, 10, 90)
	add("up", 1, 20, 50)
	add("up", 1, 40, 80)
	add("srv", 1, 25, 45)
	add("srv", 1, 50, 70)
	add("gw", 2, 0, 5) // no client span: not a traced request
	self := tr.selfTimes([]string{"client", "gw", "up", "srv"})
	want := []int64{20, 20, 20, 40}
	for i, w := range want {
		if len(self[i]) != 1 || self[i][0] != w {
			t.Errorf("layer %d self time %v, want [%d]", i, self[i], w)
		}
	}
	if n := tr.perRequest("client", "up"); n != 2 {
		t.Errorf("perRequest = %v, want 2", n)
	}
}
