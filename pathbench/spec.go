package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDef is one declared metric. Bound is the share of the parent's
// median an end-to-end metric may worsen by before a change is rejected;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// workloads are the declared ones: the driver runs and gates these.
var workloads = []workloadDef{
	{"cold-build", "the batch half: click log to servable snapshot; core and the snapshot encoder do the work, route, ingest and sockets none"},
	{"read-hot", "Zipf keys, default depth: LRU or precomputed section answers, so the gateway relay and two HTTP hops dominate and lookup does little"},
	{"read-cold", "uniform keys over 10^5 nodes (far above the LRU), /similar, deep /rewrite and /batch: segment lookup, live pipeline and batch fan-out do the work"},
}

// undeclared workloads run like the others (`--workload ingest-stream`, the
// tests, --repeat/--compare) but are not in BENCHMARK.json: a declared
// workload has to repeat within its bounds, and the write path's numbers on
// this box do not (README "Steadiness").
var undeclared = []workloadDef{
	{"ingest-stream", "1000 click records/s folded and reloaded beside a reader: WAL fsync, fold, dirty-shard refresh, publish and reload set click-to-servable time"},
}

// Every workload reports every end-to-end metric, so they are named for
// what a user of that path sees rather than for one endpoint; the README
// has the per-workload definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
}

var perLayer = []metricDef{
	// cold-build: one span per public call.
	{Name: "clickgraph.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.build_plan_s", Unit: "s", Better: "lower"},
	{Name: "partition.shards", Unit: "count", Better: "lower"},
	{Name: "partition.cut_edge_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.run_sharded_s", Unit: "s", Better: "lower"},
	{Name: "core.run_sharded_w1_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.iterations_total", Unit: "count", Better: "lower"},
	{Name: "core.rows_skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.pairs_scored", Unit: "count", Better: "lower"},
	{Name: "core.max_shard_spa_bytes", Unit: "B", Better: "lower"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.write_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "serve.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.snapshot_bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "serve.open_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.preload_s", Unit: "s", Better: "lower"},
	{Name: "serve.first_answer_ms", Unit: "ms", Better: "lower"},
	// Reads, one request in flight: client ⊃ route.handler ⊃ route.upstream ⊃ serve.handler.
	{Name: "client.rewrite_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.similar_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "net.client_hop_us", Unit: "us", Better: "lower"},
	{Name: "route.self_us", Unit: "us", Better: "lower"},
	{Name: "net.upstream_hop_us", Unit: "us", Better: "lower"},
	{Name: "route.upstream_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "route.batch_self_us", Unit: "us", Better: "lower"},
	{Name: "route.batch_subrequests", Unit: "count", Better: "lower"},
	{Name: "route.extra_attempt_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.handler_rewrite_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_similar_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_batch_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_precomputed_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.lookup_toprewrites_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_similar_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.pipeline_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower"},
	// Validity of the run, not the program.
	{Name: "harness.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "harness.cpu_steal_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.ref_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.budget_sum_ratio", Unit: "ratio", Better: "lower"},
}

// ingestLayer is what a traced ingest-stream run reports on top of
// perLayer.
var ingestLayer = []metricDef{
	// ingest-stream: ingest.post ⊃ ingest.ingest_call; fold ⊃ its stages, then reload, then cutover.
	{Name: "ingest.ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "ingest.ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "ingest.post_self_us", Unit: "us", Better: "lower"},
	{Name: "ingest.ingest_call_us", Unit: "us", Better: "lower"},
	{Name: "ingest.wal_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "ingest.backpressure_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ingest.lag_max_records", Unit: "count", Better: "lower"},
	{Name: "ingest.folds", Unit: "count", Better: "higher"},
	{Name: "ingest.records_per_fold", Unit: "count", Better: "lower"},
	{Name: "ingest.fold_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fold_max_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fold_replay_build_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fold_diff_refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.refresh_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fold_cursor_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.reload_ms", Unit: "ms", Better: "lower"},
	{Name: "route.cutover_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.dirty_shard_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.bytes_copied_per_fold", Unit: "B", Better: "lower"},
	{Name: "serve.bytes_reencoded_per_fold", Unit: "B", Better: "lower"},
	{Name: "partition.diff_plans_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fresh.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "read.bystander_p50_us", Unit: "us", Better: "lower"},
	{Name: "read.bystander_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
}

// runSeconds is how long one run measures; see README "Run length".
const runSeconds = 12

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "pathbench/run.sh"},
		Paths:      []string{"pathbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// metricsFor lists what a run of workload reports.
func metricsFor(workload string, trace bool) []metricDef {
	switch {
	case !trace:
		return endToEnd
	case workload == "ingest-stream":
		return append(append([]metricDef(nil), perLayer...), ingestLayer...)
	}
	return perLayer
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer, ingestLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validate applies the benchmark contract's limits to a spec.
func (s benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(s.Workloads))
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 || len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		return fmt.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(s.EndToEnd), len(s.PerLayer))
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	return nil
}

// loadSpec reads a BENCHMARK.json.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	err = json.Unmarshal(raw, &s)
	return s, err
}
