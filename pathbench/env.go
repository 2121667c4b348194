package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/route"
	"simrankpp/internal/serve"
)

// env is one run: its inputs, the numbers it has measured so far, and the
// operations it has attempted and failed.
type env struct {
	opt     options
	dir     string
	tr      *tracer // nil with tracing off
	clients int     // load-generator connections: one per core
	ds      *Dataset
	// keyCursor is how far into their key lists the read drivers are.
	keyCursor int

	metrics map[string]float64
	samples map[string]int
	nodes   int
	edges   int

	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	notes  []string
	shown  int
	hc     http.Client // for /stats and reference fetches, never in a timed loop
	window time.Duration

	steal0, total0 float64 // /proc/stat at the start of the run
}

func newEnv(opt options, dir string) *env {
	e := &env{opt: opt, dir: dir, clients: runtime.GOMAXPROCS(0),
		metrics: map[string]float64{}, samples: map[string]int{},
		window: time.Duration(opt.Seconds) * time.Second}
	e.steal0, e.total0 = cpuSteal()
	return e
}

func (e *env) set(name string, v float64, n int) {
	if unitOf(name) == "" {
		panic("pathbench: undeclared metric " + name)
	}
	e.metrics[name], e.samples[name] = v, n
}

func (e *env) note(format string, args ...any) {
	e.mu.Lock()
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

func (e *env) logf(format string, args ...any) {
	if e.opt.Verbose {
		fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
	}
}

// failf counts one failed operation and shows the first few.
func (e *env) failf(format string, args ...any) {
	e.failed.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shown++; e.shown <= 5 {
		fmt.Fprintln(os.Stderr, "pathbench: FAIL:", fmt.Sprintf(format, args...))
	}
}

// cpuSteal reads the share of CPU time the hypervisor has given to someone
// else since boot (0 where /proc/stat does not say).
func cpuSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue // the "cpu" label
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// noteSteal records how much of the machine the run did not get: a run
// on a box that was being stolen from is slower for reasons no commit
// explains.
func (e *env) noteSteal() {
	steal, total := cpuSteal()
	if d := total - e.total0; d > 0 {
		e.set("harness.cpu_steal_ratio", (steal-e.steal0)/d, int(d))
		e.note("hypervisor steal during the run: %.1f %% of CPU time", 100*(steal-e.steal0)/d)
	}
}

// setupDone closes the set-up phase — everything from process start to the
// first timed sample — after dropping what set-up left on the heap.
func (e *env) setupDone() {
	runtime.GC()
	debug.FreeOSMemory()
	e.set("setup_s", time.Since(processStart).Seconds(), 1)
	e.logf("set-up done")
}

// setupStack generates the dataset, builds the snapshot and boots the
// stack. The build-side heap (graph matrices, result tables) is dropped
// before it returns; node names are kept for the key streams.
func (e *env) setupStack() (b *Built, st *Stack, err error) {
	e.ds = Generate(e.opt.Seed, e.opt.Scale)
	b, err = BuildSnapshot(e.ds.Log, e.opt.Scale, filepath.Join(e.dir, "serving.snap"), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	e.logf("snapshot built: %+v", b.Stages)
	e.setBuildMetrics(b)
	e.nodes, e.edges = b.Graph.NumQueries()+b.Graph.NumAds(), b.Graph.NumEdges()
	if e.opt.Scale.Name == "full" && e.nodes < 100_000 {
		return nil, nil, fmt.Errorf("generated graph has %d nodes, want at least 10^5", e.nodes)
	}
	e.note("build: graph %.3fs plan %.3fs run %.3fs write %.3fs open+preload %.3fs; snapshot %d B, %d shards, %d cut edges",
		b.Stages.Graph.Seconds(), b.Stages.Plan.Seconds(), b.Stages.Run.Seconds(), b.Stages.Write.Seconds(),
		(b.Stages.Open + b.Stages.Preload).Seconds(), b.SnapBytes, len(b.Plan.Shards), b.Plan.TotalCutEdges)
	b.Result, b.Plan = nil, nil
	// The snapshot was written without an fsync; flush it now, or the
	// kernel writes those megabytes back in the middle of the timed window.
	if err := syncFile(b.SnapPath); err != nil {
		return nil, nil, err
	}
	var so stackOptions
	if e.tr != nil {
		so = stackOptions{
			wrapReplica: func(h http.Handler) http.Handler { return e.tr.handler("serve.handler", "route.upstream", h) },
			wrapGateway: func(h http.Handler) http.Handler { return e.tr.handler("route.handler", "client.request", h) },
			transport: func(rt http.RoundTripper) http.RoundTripper {
				return e.tr.transport("route.upstream", "route.handler", rt)
			},
		}
	}
	st, err = BootStack(b.SnapPath, b.Bids, so)
	if err != nil {
		return nil, nil, err
	}
	return b, st, nil
}

// setBuildMetrics reports one build's stage times and the counters of its
// plan, run and snapshot. Every stack workload builds once during set-up,
// so these attribute setup_s there.
func (e *env) setBuildMetrics(b *Built) {
	s, edges := b.Stages, b.Graph.NumEdges()
	e.set("clickgraph.build_s", s.Graph.Seconds(), 1)
	e.set("partition.build_plan_s", s.Plan.Seconds(), 1)
	e.set("partition.shards", float64(len(b.Plan.Shards)), 1)
	e.set("partition.cut_edge_ratio", float64(b.Plan.TotalCutEdges)/float64(edges), edges)
	e.set("core.run_sharded_s", s.Run.Seconds(), 1)
	e.set("serve.write_snapshot_s", s.Write.Seconds(), 1)
	e.set("serve.snapshot_bytes", float64(b.SnapBytes), 1)
	e.set("serve.snapshot_bytes_per_edge", float64(b.SnapBytes)/float64(edges), edges)
	e.set("serve.open_snapshot_ms", float64(s.Open)/1e6, 1)
	e.set("serve.preload_s", s.Preload.Seconds(), 1)
	e.set("serve.first_answer_ms", float64(s.FirstAnswer)/1e6, 1)
	var iters, rows, skipped int
	var spa int64
	for _, ss := range b.Result.ShardStats {
		iters += ss.Iterations
		spa = max(spa, ss.SPABytes)
	}
	for _, it := range b.Result.IterStats {
		rows += it.QueryRows + it.AdRows
		skipped += it.QueryRowsSkipped + it.AdRowsSkipped
	}
	e.set("core.iterations_total", float64(iters), len(b.Result.ShardStats))
	e.set("core.rows_skipped_ratio", float64(skipped)/float64(max(rows, 1)), rows)
	e.set("core.pairs_scored", float64(b.Result.QueryScores.Len()+b.Result.AdScores.Len()), 1)
	e.set("core.max_shard_spa_bytes", float64(spa), len(b.Result.ShardStats))
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// getJSON fetches url into v.
func (e *env) getJSON(url string, v any) error {
	resp, err := e.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fleetStats sums the replicas' /stats counters and reads the gateway's.
type fleetStats struct {
	requests, cacheHits, shed int64 // scoring requests only
	gateway                   route.StatsResponse
}

func (e *env) fleetStats(st *Stack) (fleetStats, error) {
	var fs fleetStats
	for _, u := range st.ReplicaURL {
		var sr serve.StatsResponse
		if err := e.getJSON(u+"/stats", &sr); err != nil {
			return fs, err
		}
		for _, ep := range []string{"rewrite", "similar", "batch"} {
			fs.requests += sr.Endpoints[ep].Requests
		}
		fs.cacheHits += sr.CacheHits
		fs.shed += sr.Shed
	}
	return fs, e.getJSON(st.GatewayURL+"/stats", &fs.gateway)
}

// setFleetRatios reports what the fleet's own counters say about the
// window between two readings, in which the clients asked for lookups
// /rewrite answers (a /batch of 8 is 8 of them).
func (e *env) setFleetRatios(before, after fleetStats, lookups int) {
	reqs := after.requests - before.requests
	if reqs <= 0 {
		return
	}
	e.set("serve.cache_hit_ratio", float64(after.cacheHits-before.cacheHits)/float64(max(lookups, 1)), lookups)
	e.set("serve.shed_ratio", float64(after.shed-before.shed)/float64(reqs), int(reqs))
	g0, g1 := before.gateway, after.gateway
	if n := g1.Requests - g0.Requests; n > 0 {
		extra := (g1.Retries - g0.Retries) + (g1.Hedges - g0.Hedges) + (g1.Failovers - g0.Failovers)
		e.set("route.extra_attempt_ratio", float64(extra)/float64(n), int(n))
	}
}
