package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/core"
	"simrankpp/internal/ingest"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
)

// ---------------------------------------------------------------- cold-build

// coldBuild times click log → servable snapshot → first correct answer,
// repeatedly, for the length of the window and at least three times. The
// median build is the gated latency. The gated "tail" is the first build:
// with three samples no percentile has samples beyond it, the slowest of
// three caught every stall of a shared box (its spread was twice the
// median's), and the first build is the one a production build is — a
// fresh process growing its heap and creating its file. Every build
// starts from a collected heap, so none pays for its predecessor's garbage.
// Set-up is only the log's generation: the build is the workload. At a
// third of a second it is too short to repeat as one measurement, so it is
// done five times and the median reported.
func coldBuild(e *env) error {
	var setups []float64
	for i := 0; i < 5; i++ {
		processStart = time.Now()
		e.ds = Generate(e.opt.Seed, e.opt.Scale)
		e.setupDone()
		setups = append(setups, e.metrics["setup_s"])
	}
	e.set("setup_s", median(setups), len(setups))
	workers := runtime.GOMAXPROCS(0)
	path := filepath.Join(e.dir, "cold.snap")

	var totals lats
	var last *Built
	var allocMB float64
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start) < e.window; rep++ {
		last = nil
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b, err := BuildSnapshot(e.ds.Log, e.opt.Scale, path, workers)
		e.attempted.Add(1)
		if err != nil {
			e.failf("build %d: %v", rep, err)
			continue
		}
		runtime.ReadMemStats(&m1)
		allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		totals = append(totals, b.Stages.Total.Nanoseconds())
		e.logf("build %d: %+v", rep, b.Stages)
		last = b
		if e.opt.Trace {
			break // the traced run spends the rest of its time on the single-worker leg
		}
	}
	if last == nil {
		return fmt.Errorf("no build succeeded")
	}
	e.nodes, e.edges = last.Graph.NumQueries()+last.Graph.NumAds(), last.Graph.NumEdges()
	first := float64(totals[0]) / 1e6
	totals = totals.sorted()
	e.set("latency_p50_ms", totals.ms(0.5), len(totals))
	e.set("latency_tail_ms", first, 1)
	e.set("throughput_per_s", float64(e.edges)/(totals.q(0.5)/1e9), len(totals)) // edges built per second
	e.note("build median %.3fs, first %.3fs, slowest %.3fs over %d builds of %d nodes, %d edges; snapshot %d B (%.1f B/edge)",
		totals.q(0.5)/1e9, first/1e3, totals.q(1)/1e9, len(totals), e.nodes, e.edges, last.SnapBytes, float64(last.SnapBytes)/float64(e.edges))

	s := last.Stages
	e.setBuildMetrics(last)
	e.set("core.alloc_mb", allocMB, 1)

	checked, bad, err := checkExactShards(last, e.opt.Scale.ExactChecks, workers)
	if err != nil {
		return err
	}
	e.attempted.Add(int64(checked))
	for i := 0; i < bad; i++ {
		e.failf("an exact shard disagrees with core.Run on its induced subgraph beyond 1e-12")
	}
	if e.opt.Trace {
		last.Result = nil
		t0 := time.Now()
		_, err := core.RunSharded(last.Graph, engineConfig(), last.Plan, core.ShardOptions{Workers: 1, RetainShardScores: true})
		if err != nil {
			return err
		}
		w1 := time.Since(t0)
		e.set("core.run_sharded_w1_s", w1.Seconds(), 1)
		e.set("core.parallel_speedup", w1.Seconds()/s.Run.Seconds(), 1)
		e.set("harness.heap_mb", heapMB(), 1)
		e.set("trace.overhead_ratio", 1, 0) // spans here are the stage timers themselves
		sum := s.Graph + s.Plan + s.Run + s.Write + s.Open + s.Preload + s.FirstAnswer
		e.set("trace.budget_sum_ratio", sum.Seconds()/s.Total.Seconds(), 1)
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"clickgraph.build", s.Graph}, {"partition.build_plan", s.Plan}, {"core.run_sharded", s.Run},
			{"serve.write_snapshot", s.Write}, {"serve.open_snapshot", s.Open}, {"serve.preload", s.Preload}, {"serve.first_answer", s.FirstAnswer}} {
			e.note("budget cold-build: %-22s %8.3fs %5.1f%%", st.name, st.d.Seconds(), 100*st.d.Seconds()/s.Total.Seconds())
		}
	}
	return nil
}

// ------------------------------------------------------------------ read-hot

// readLeg is one kind of read request with its per-client prepared
// request lists.
type readLeg struct {
	name string // "rewrite", "similar", "batch"
	reqs [][]request
}

// driven is what one closed-loop window measured.
type driven struct {
	ops     lats   // whole-operation latencies, ascending
	perLeg  []lats // per-leg latencies, ascending
	wall    time.Duration
	seconds []lats // ops by the whole second of the window they completed in, ascending
	refs    lats   // reference round trips, ascending; empty when the window was not paired
	// slow is, per second of the window, how much slower than on the quiet
	// reference box the reference round trips of that second were (1 when
	// the window was not paired); slowAll is the same for the whole window.
	slow    []float64
	slowAll float64
}

// over returns the median over the window's seconds of each second's
// q-quantile, each divided by that second's slowness: a disturbance that
// lasts a second moves one sample of the window, not the run's result, and
// a box that is a third slower for minutes moves the reference round trips
// with the requests. The whole-window quantile stands in when the window
// was shorter than a second.
func (d driven) over(q float64) float64 {
	if len(d.seconds) == 0 {
		return d.ops.q(q) / d.slowAll
	}
	per := make([]float64, len(d.seconds))
	for i, s := range d.seconds {
		per[i] = s.q(q) / d.slow[i]
	}
	return median(per)
}

// rate is completed operations per second at the reference box's speed:
// the median of the per-second counts, each multiplied by its second's
// slowness.
func (d driven) rate() float64 {
	if len(d.seconds) == 0 {
		return float64(len(d.ops)) / d.wall.Seconds() * d.slowAll
	}
	per := make([]float64, len(d.seconds))
	for i, s := range d.seconds {
		per[i] = float64(len(s)) * d.slow[i]
	}
	return median(per)
}

// setReadMetrics reports a read window's gated numbers. The tail is the
// p95: the p99 of closed-loop clients sharing two cores with the servers
// they drive moved by a sixth between two sets of ten runs of one commit;
// the p95 repeats, and the whole-window p99 and p999 stay in the notes.
func (e *env) setReadMetrics(d driven) {
	e.set("latency_p50_ms", d.over(0.5)/1e6, len(d.ops))
	e.set("latency_tail_ms", d.over(0.95)/1e6, len(d.ops))
	e.set("throughput_per_s", d.rate(), len(d.ops))
	e.note("as measured: p50 %.1f us, p95 %.1f us, %.0f operations/s; %d reference round trips, p50 %.1f us = %.2f x the quiet reference box's %.0f us",
		d.ops.us(0.5), d.ops.us(0.95), float64(len(d.ops))/d.wall.Seconds(), len(d.refs), d.refs.us(0.5), d.slowAll, refQuietNs[e.opt.Workload]/1e3)
}

// Reference round trips. The sandbox this benchmark is gated on is a
// 2-core guest of a shared host, and the cost of its system calls, wake-ups
// and loopback packets — most of a read — moves by 20-50 % for minutes at
// a time while arithmetic stays put (README "Steadiness"). So a timed read
// window is paired: every client, once refEvery has passed since its last
// one, sends a GET to a handler of the stack that writes a constant — the
// standard library's HTTP over loopback, none of this repository's code —
// and every gated number is scaled by how much slower than refQuietNs the
// median of those round trips was in the same second. The round trips run
// beside the other client's operations, not in phases of their own: in
// phases they tracked the box less well (read-hot spread 6-12 % against
// 2-3 %). The price is that a round trip waits for a core the program is
// using, so about a quarter of a change in the program's CPU use shows in
// the reference too and is scaled away; the numbers as measured are in
// the notes. refQuietNs is the round trips' median on the reference box
// when it is quiet, per workload because the other client's operations
// contend with them; it only fixes the unit, so that a scaled latency
// reads like a quiet run's.
const refEvery = time.Millisecond

var refQuietNs = map[string]float64{"read-hot": 33e3, "read-cold": 46e3}

// drive runs legs as one closed-loop operation per client — each client
// sends leg 0, then leg 1, … and that sequence is one operation — paired
// with reference round trips when ref is not nil. Successive calls continue
// through the key lists where the last one stopped, so no window replays
// another's keys into a warm LRU.
func (e *env) drive(legs []readLeg, ref *request, clients int, window, think time.Duration, smp *sampler) driven {
	skip := e.keyCursor
	type done struct{ lat, at int64 }
	opLat, refLat := make([][]done, clients), make([][]done, clients)
	lastRef := make([]time.Time, clients)
	legLat := make([][]lats, clients)
	for ci := range legLat {
		legLat[ci] = make([]lats, len(legs))
	}
	start := time.Now()
	d := driven{perLeg: make([]lats, len(legs)), slowAll: 1}
	d.wall = closedLoop(clients, window, func(c *client, ci, i int) {
		var total time.Duration
		for li := range legs {
			reqs := legs[li].reqs[ci%len(legs[li].reqs)]
			req := &reqs[(skip+i)%len(reqs)]
			traced := e.tr != nil && e.tr.on.Load()
			if traced {
				e.tr.seq.Add(1)
			}
			t0 := time.Now()
			status, body, lat := c.do(req)
			if traced {
				e.tr.record("client."+legs[li].name, "", e.tr.seq.Load(), t0, t0.Add(lat))
			}
			e.attempted.Add(1)
			if status != http.StatusOK {
				e.failf("%s: HTTP %d", req.url, status)
				continue
			}
			if smp != nil {
				smp.add(req, body)
			}
			legLat[ci][li] = append(legLat[ci][li], lat.Nanoseconds())
			total += lat
		}
		opLat[ci] = append(opLat[ci], done{total.Nanoseconds(), time.Since(start).Nanoseconds()})
		if ref != nil && time.Since(lastRef[ci]) >= refEvery {
			status, _, lat := c.do(ref)
			e.attempted.Add(1)
			if status != http.StatusOK {
				e.failf("reference round trip: HTTP %d", status)
			}
			lastRef[ci] = time.Now()
			refLat[ci] = append(refLat[ci], done{lat.Nanoseconds(), lastRef[ci].Sub(start).Nanoseconds()})
		}
		if think > 0 {
			time.Sleep(think)
		}
	})
	d.seconds = make([]lats, int(window/time.Second))
	refSeconds := make([]lats, len(d.seconds))
	bySecond := func(all *lats, seconds []lats, o done) {
		*all = append(*all, o.lat)
		if s := int(o.at / int64(time.Second)); s < len(seconds) {
			seconds[s] = append(seconds[s], o.lat)
		}
	}
	for ci := range opLat {
		e.keyCursor = max(e.keyCursor, skip+len(opLat[ci]))
		for _, o := range opLat[ci] {
			bySecond(&d.ops, d.seconds, o)
		}
		for _, o := range refLat[ci] {
			bySecond(&d.refs, refSeconds, o)
		}
		for li := range legs {
			d.perLeg[li] = append(d.perLeg[li], legLat[ci][li]...)
		}
	}
	d.ops, d.refs = d.ops.sorted(), d.refs.sorted()
	for li := range d.perLeg {
		d.perLeg[li] = d.perLeg[li].sorted()
	}
	if len(d.refs) > 0 {
		d.slowAll = d.refs.q(0.5) / refQuietNs[e.opt.Workload]
	}
	d.slow = make([]float64, len(d.seconds))
	for i := range d.seconds {
		d.seconds[i] = d.seconds[i].sorted()
		d.slow[i] = d.slowAll
		if len(refSeconds[i]) > 0 {
			d.slow[i] = refSeconds[i].sorted().q(0.5) / refQuietNs[e.opt.Workload]
		}
	}
	return d
}

const keysPerClient = 1 << 15

// hotLeg is the production read: GET /rewrite at the default depth, keys
// Zipf(1.0) over a seeded permutation of every query.
func (e *env) hotLeg(base string, queries []string, clients int) readLeg {
	leg := readLeg{name: "rewrite"}
	for ci := 0; ci < clients; ci++ {
		keys := HotKeys(e.opt.Seed, uint64(ci), queries, keysPerClient)
		reqs := make([]request, len(keys))
		for i, k := range keys {
			reqs[i] = get(base, "/rewrite", "q", k, 0)
		}
		leg.reqs = append(leg.reqs, reqs)
	}
	return leg
}

func readHot(e *env) error {
	b, st, err := e.setupStack()
	if err != nil {
		return err
	}
	defer st.Close()
	queries := b.Graph.Queries()
	b.Graph = nil
	legs := []readLeg{e.hotLeg(st.GatewayURL, queries, e.clients)}
	e.drive(legs, nil, 1, e.window/20, 0, nil) // warm the path once
	if e.opt.Trace {
		return e.tracedReads(st, b.Bids, legs)
	}
	e.setupDone()
	smp := newSampler(e.opt.Scale.Samples)
	d := e.drive(legs, st.Ref(), e.clients, e.window, 0, smp)
	e.setReadMetrics(d)
	e.note("read-hot: %d clients closed loop, %d requests in %.1fs; whole window p50 %.1f us p99 %.1f us p999 %.1f us",
		e.clients, len(d.ops), d.wall.Seconds(), d.ops.us(0.5), d.ops.us(0.99), d.ops.us(0.999))
	e.checkSamples(st, st.Servers[0].Index().(*serve.Snapshot), b.Bids, smp)
	return nil
}

// ----------------------------------------------------------------- read-cold

const (
	similarTop = 20
	deepTop    = 32 // deeper than the precomputed K=16: the live pipeline answers
	batchSize  = 8
)

// coldLegs is one cold "page view": /similar (query and ad side
// alternating), a deep /rewrite, and a /batch of 8, all on keys uniform
// over every node — a working set far beyond the replicas' LRU.
func (e *env) coldLegs(base string, queries, ads []string, clients int) []readLeg {
	legs := []readLeg{{name: "similar"}, {name: "rewrite"}, {name: "batch"}}
	const n = keysPerClient / 4
	for ci := 0; ci < clients; ci++ {
		s := uint64(ci)
		qk, ak := UniformKeys(e.opt.Seed, 3*s, queries, n), UniformKeys(e.opt.Seed, 3*s+1, ads, n)
		bk := UniformKeys(e.opt.Seed, 3*s+2, queries, n*batchSize/4)
		sim, rw, bt := make([]request, n), make([]request, n), make([]request, n/4)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				sim[i] = get(base, "/similar", "q", qk[i], similarTop)
			} else {
				sim[i] = get(base, "/similar", "ad", ak[i], similarTop)
			}
			rw[i] = get(base, "/rewrite", "q", qk[(i+n/2)%n], deepTop)
		}
		for i := range bt {
			bt[i] = batch(base, bk[i*batchSize:(i+1)*batchSize])
		}
		legs[0].reqs, legs[1].reqs, legs[2].reqs = append(legs[0].reqs, sim), append(legs[1].reqs, rw), append(legs[2].reqs, bt)
	}
	return legs
}

func readCold(e *env) error {
	b, st, err := e.setupStack()
	if err != nil {
		return err
	}
	defer st.Close()
	queries, ads := b.Graph.Queries(), b.Graph.Ads()
	b.Graph = nil
	legs := e.coldLegs(st.GatewayURL, queries, ads, e.clients)
	e.drive(legs, nil, 1, e.window/20, 0, nil)
	if e.opt.Trace {
		return e.tracedReads(st, b.Bids, legs)
	}
	e.setupDone()
	smp := newSampler(e.opt.Scale.Samples)
	d := e.drive(legs, st.Ref(), e.clients, e.window, 0, smp)
	e.setReadMetrics(d)
	for li, leg := range legs {
		e.note("read-cold %-8s %d requests, whole window p50 %.1f us p99 %.1f us", leg.name, len(d.perLeg[li]), d.perLeg[li].us(0.5), d.perLeg[li].us(0.99))
	}
	e.checkSamples(st, st.Servers[0].Index().(*serve.Snapshot), b.Bids, smp)
	return nil
}

// --------------------------------------------------------------- traced reads

// discard is an http.ResponseWriter that drops the response.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(p []byte) (int, error) { return len(p), nil }

// tracedReads is the --trace 1 form of both read workloads. One request
// is in flight throughout, so spans nest by time: client ⊃ route.handler ⊃
// route.upstream ⊃ serve.handler. A quarter of the window runs with the
// span recorders switched off to price them; then the traced leg; then
// the same keys replayed against the replica's handler in process and
// against the snapshot's lookups directly.
func (e *env) tracedReads(st *Stack, bids map[string]bool, legs []readLeg) error {
	e.setupDone()
	quarter := e.window / 4
	before, err := e.fleetStats(st)
	if err != nil {
		return err
	}
	e.tr.on.Store(false)
	pd := e.drive(legs, st.Ref(), 1, quarter, 0, nil)
	e.tr.on.Store(true)
	td := e.drive(legs, st.Ref(), 1, quarter, 0, nil)
	plain, ops, traced := pd.perLeg, td.ops, td.perLeg
	// The layer times below are as measured; this says what state the box was in.
	refs := append(pd.refs, td.refs...).sorted()
	e.set("harness.ref_roundtrip_us", refs.us(0.5), len(refs))
	e.tr.on.Store(false)
	after, err := e.fleetStats(st)
	if err != nil {
		return err
	}
	lookups := 0
	for li, leg := range legs {
		switch leg.name {
		case "rewrite":
			lookups += len(plain[li]) + len(traced[li])
		case "batch":
			lookups += batchSize * (len(plain[li]) + len(traced[li]))
		}
	}
	e.setFleetRatios(before, after, lookups)

	var overhead, budget float64
	for li, leg := range legs {
		e.set("client."+leg.name+"_p50_us", traced[li].us(0.5), len(traced[li]))
		overhead = max(overhead, traced[li].q(0.5)/plain[li].q(0.5))
		self := e.tr.selfTimes([]string{"client." + leg.name, "route.handler", "route.upstream", "serve.handler"})
		sum := 0.0
		for _, s := range self {
			sum += s.q(0.5)
		}
		budget = max(budget, sum/plain[li].q(0.5))
		e.note("budget %s %-8s client hop %.1f + route %.1f + upstream hop %.1f + serve %.1f = %.1f us; untraced p50 %.1f us, traced %.1f us",
			e.opt.Workload, leg.name, self[0].us(0.5), self[1].us(0.5), self[2].us(0.5), self[3].us(0.5), sum/1e3,
			plain[li].us(0.5), traced[li].us(0.5))
		switch {
		case leg.name == "batch":
			e.set("route.batch_self_us", self[1].us(0.5), len(self[1]))
			e.set("route.batch_subrequests", e.tr.perRequest("client.batch", "route.upstream"), len(traced[li]))
		case li == 0: // the workload's first single-GET leg carries the hop budget
			e.set("net.client_hop_us", self[0].us(0.5), len(self[0]))
			e.set("route.self_us", self[1].us(0.5), len(self[1]))
			e.set("net.upstream_hop_us", self[2].us(0.5), len(self[2]))
			e.set("serve.handler_us", self[3].us(0.5), len(self[3]))
			e.set("route.upstream_us", (self[2].q(0.5)+self[3].q(0.5))/1e3, len(self[2]))
		}
	}
	e.set("trace.overhead_ratio", overhead, len(ops))
	e.set("trace.budget_sum_ratio", budget, len(ops))

	// In-process and direct legs replay client 0's keys.
	srv := st.Servers[0]
	snap := srv.Index().(*serve.Snapshot)
	share := quarter / time.Duration(2*len(legs))
	for _, leg := range legs {
		l, allocs := handlerLeg(srv.Handler(), leg.reqs[0][e.keyCursor%len(leg.reqs[0]):], share)
		e.set("serve.handler_"+leg.name+"_us", l.us(0.5), len(l))
		if leg.name != "batch" {
			e.set("serve.allocs_per_req", allocs, len(l))
		}
		if err := e.lookupLeg(snap, bids, leg, share); err != nil {
			return err
		}
	}
	e.set("harness.heap_mb", heapMB(), 1)
	return nil
}

// handlerLeg calls h directly with a discarding writer for the window and
// returns the latencies and the heap allocations per request.
func handlerLeg(h http.Handler, reqs []request, window time.Duration) (lats, float64) {
	var out lats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := discard{h: http.Header{}}
	deadline := time.Now().Add(window)
	for i := 0; time.Now().Before(deadline); i++ {
		req := reqs[i%len(reqs)]
		hr := httptest.NewRequest(req.method, req.url, bytes.NewReader(req.body))
		t0 := time.Now()
		h.ServeHTTP(w, hr)
		out = append(out, time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&m1)
	return out.sorted(), float64(m1.Mallocs-m0.Mallocs) / float64(max(len(out), 1))
}

// lookupLeg times the snapshot calls underneath one kind of request.
func (e *env) lookupLeg(snap *serve.Snapshot, bids map[string]bool, leg readLeg, window time.Duration) error {
	if leg.name == "batch" {
		return nil // a batch item is a default-depth /rewrite
	}
	var pre, top, sim, pipe lats
	deadline := time.Now().Add(window)
	reqs := leg.reqs[0]
	for i := 0; time.Now().Before(deadline); i++ {
		_, q, ad, depth, err := readArgs(reqs[i%len(reqs)].url)
		if err != nil {
			return err
		}
		if ad != "" {
			id, _ := snap.AdID(ad)
			t0 := time.Now()
			snap.TopSimilarAds(id, depth)
			sim = append(sim, time.Since(t0).Nanoseconds())
			continue
		}
		id, _ := snap.QueryID(q)
		switch {
		case leg.name == "similar":
			t0 := time.Now()
			snap.TopRewrites(id, depth)
			top = append(top, time.Since(t0).Nanoseconds())
		case depth <= serve.DefaultRewriteTopK:
			t0 := time.Now()
			snap.PrecomputedRewrites(id, depth)
			pre = append(pre, time.Since(t0).Nanoseconds())
		default:
			t0 := time.Now()
			if _, err := pipeline(snap, bids, depth).Rewrite(&rewrite.ResultSource{Index: snap}, id); err != nil {
				return err
			}
			pipe = append(pipe, time.Since(t0).Nanoseconds())
		}
	}
	for _, m := range []struct {
		name string
		l    lats
		div  float64
	}{{"serve.lookup_precomputed_ns", pre, 1}, {"serve.lookup_toprewrites_us", top, 1e3},
		{"serve.lookup_similar_us", sim, 1e3}, {"rewrite.pipeline_us", pipe, 1e3}} {
		if len(m.l) > 0 {
			e.set(m.name, m.l.sorted().q(0.5)/m.div, len(m.l))
		}
	}
	return nil
}

// -------------------------------------------------------------- ingest-stream

const (
	postsPerSecond = 50
	recordsPerPost = 20
	readerThink    = 2 * time.Millisecond
)

// foldTimes collects the ingest.Config.Checkpoint stage instants of the
// folds of a traced run.
type foldTimes struct {
	mu     sync.Mutex
	last   time.Time
	start  time.Time
	stages map[string]lats
	folds  lats
}

func (f *foldTimes) checkpoint(stage string) error {
	if stage == "fold:commit:mid-write" {
		return nil // inside the commit stage, not a boundary of it
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	switch stage {
	case "fold:start":
		f.start = now
	case "fold:post-cursor":
		f.folds = append(f.folds, now.Sub(f.start).Nanoseconds())
		fallthrough
	default:
		f.stages[stage] = append(f.stages[stage], now.Sub(f.last).Nanoseconds())
	}
	f.last = now
	return nil
}

func ingestStream(e *env) error {
	b, st, err := e.setupStack()
	if err != nil {
		return err
	}
	defer st.Close()
	queries := b.Graph.Queries()
	shards := st.Router.NumShards()

	// Freshness bookkeeping: record i was due at due[i/recordsPerPost] and
	// becomes servable when a generation whose fold cursor passed i has
	// been reloaded by both replicas.
	var (
		mu        sync.Mutex
		due       []time.Time
		accepted  uint64 // records acknowledged so far
		servable  uint64 // records below this are servable
		fresh     lats
		foldP50   []float64 // per fold: median and p90 freshness of the records it made servable
		foldP90   []float64
		reloads   lats
		dirty     []float64
		perFold   []float64
		lastReady time.Time
		pinWant   atomic.Value // fingerprint the gateway should cut over to
		reloadAt  atomic.Int64
	)
	ft := &foldTimes{stages: map[string]lats{}}
	cfg := ingest.Config{
		SnapshotPath:  b.SnapPath,
		BaseGraph:     b.Graph,
		Cadence:       2 * time.Second,
		ChurnRecords:  1000,
		MaxLagRecords: 20000,
		Bids:          b.Bids,
	}
	if e.opt.Trace {
		cfg.Checkpoint = ft.checkpoint
		st.onIngestCall = func(start time.Time, d time.Duration) {
			e.tr.record("ingest.ingest_call", "ingest.post", e.tr.seq.Load(), start, start.Add(d))
		}
	}
	err = st.StartIngest(cfg, func(gen *serve.Generation, cursor uint64, reload time.Duration) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		upto := min(cursor, accepted)
		if upto > servable {
			perFold = append(perFold, float64(upto-servable))
		}
		first := len(fresh)
		for ; servable < upto; servable++ {
			fresh = append(fresh, now.Sub(due[servable/recordsPerPost]).Nanoseconds())
		}
		if batch := fresh[first:]; len(batch) > 0 { // due times ascend, so freshness descends
			foldP50 = append(foldP50, float64(batch[len(batch)/2]))
			foldP90 = append(foldP90, float64(batch[len(batch)/10]))
		}
		reloads = append(reloads, reload.Nanoseconds())
		dirty = append(dirty, float64(gen.DirtyShards)/float64(shards))
		lastReady = now
		pinWant.Store(fmt.Sprintf("%016x", gen.Fingerprint))
		reloadAt.Store(now.UnixNano())
	})
	if err != nil {
		return err
	}
	b.Graph = nil
	posts := int(e.window.Seconds() * postsPerSecond)
	stream := e.ds.ClickStream(posts, recordsPerPost)
	reqs := make([]request, posts)
	for i := range reqs {
		reqs[i] = ingestPost(st.IngestURL, stream[i])
	}
	reader := []readLeg{e.hotLeg(st.GatewayURL, queries, 1)}
	e.drive(reader, nil, 1, e.window/20, 0, nil)
	e.setupDone()

	// The reader: one closed-loop client with think time, beside the stream.
	var rdLat lats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rdLat = e.drive(reader, nil, 1, e.window, readerThink, nil).ops
	}()
	// The cutover watcher (traced run): reload done → gateway pinned to it.
	var cutover lats
	stopWatch := make(chan struct{})
	if e.opt.Trace {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := ""
			for {
				select {
				case <-stopWatch:
					return
				case <-time.After(2 * time.Millisecond):
				}
				want, _ := pinWant.Load().(string)
				if want != "" && want != seen && st.Gateway.Pinned() == want {
					seen = want
					cutover = append(cutover, time.Now().UnixNano()-reloadAt.Load())
				}
			}
		}()
	}

	// The click stream: open loop, one POST every 20 ms regardless of how
	// the system is doing, each timed from when it was due.
	var ack, late lats
	var sent []ingest.Record
	var lagMax uint64
	c := newClient()
	start := time.Now()
	for k := 0; k < posts; k++ {
		dueAt := start.Add(time.Duration(k) * time.Second / postsPerSecond)
		mu.Lock()
		due = append(due, dueAt)
		mu.Unlock()
		late = append(late, pace(dueAt).Nanoseconds())
		if e.tr != nil {
			e.tr.seq.Add(1)
		}
		t0 := time.Now()
		status, _, lat := c.do(&reqs[k])
		e.attempted.Add(1)
		if e.tr != nil {
			e.tr.record("ingest.post", "", e.tr.seq.Load(), t0, t0.Add(lat))
		}
		if status != http.StatusOK {
			// Nothing of a refused batch may count as sent: drop its due
			// slot so record indices keep matching WAL sequence numbers.
			e.failf("POST /ingest: HTTP %d", status)
			mu.Lock()
			due = due[:len(due)-1]
			mu.Unlock()
			continue
		}
		ack = append(ack, time.Since(dueAt).Nanoseconds())
		sent = append(sent, stream[k]...)
		mu.Lock()
		accepted += recordsPerPost
		mu.Unlock()
		lagMax = max(lagMax, st.Controller.Stats().WALLagRecords)
	}
	c.close()
	streamWall := time.Since(start)

	// Drain: every acknowledged record must become servable.
	for deadline := time.Now().Add(60 * time.Second); ; {
		mu.Lock()
		done := servable >= accepted
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			e.failf("%d acknowledged records never became servable", accepted-servable)
			mu.Unlock()
			break
		}
		if _, err := st.Controller.FoldOnce(context.Background()); err != nil {
			e.failf("drain fold: %v", err)
			break
		}
	}
	mu.Lock()
	settled, total, folds := fresh.sorted(), lastReady.Sub(start), len(reloads)
	p50, p90 := median(foldP50), median(foldP90)
	mu.Unlock()
	close(stopWatch)
	wg.Wait()

	ack, late = ack.sorted(), late.sorted()
	if len(settled) == 0 || total <= 0 {
		return fmt.Errorf("no record became servable")
	}
	// As on the read workloads, the headline numbers are medians over
	// sub-windows — here the folds: each fold's median and p90 record
	// freshness is one sample.
	e.set("latency_p50_ms", p50/1e6, len(settled))
	e.set("latency_tail_ms", p90/1e6, len(settled))
	e.set("throughput_per_s", float64(len(settled))/total.Seconds(), len(settled))
	e.note("ingest-stream: %d records in %d POSTs over %.1fs; %d folds; fresh p50 %.0f ms p90 %.0f ms; ack p50 %.0f us p99 %.0f us; reader p50 %.0f us p99 %.0f us (%d reads); generator late p99 %.0f us",
		len(settled), len(ack), streamWall.Seconds(), folds, settled.ms(0.5), settled.ms(0.9),
		ack.us(0.5), ack.us(0.99), rdLat.us(0.5), rdLat.us(0.99), len(rdLat), late.us(0.99))
	if late.q(0.99) > ack.q(0.5)/10 {
		e.note("WARNING: generator lateness p99 %.0f us exceeds a tenth of the ack median %.0f us; the ack percentiles include it",
			late.us(0.99), ack.us(0.5))
	}

	e.set("fresh.p50_ms", settled.ms(0.5), len(settled))
	e.set("fresh.p90_ms", settled.ms(0.9), len(settled))
	e.set("ingest.ack_p50_us", ack.us(0.5), len(ack))
	e.set("ingest.ack_p99_us", ack.us(0.99), len(ack))
	e.set("read.bystander_p50_us", rdLat.us(0.5), len(rdLat))
	e.set("read.bystander_p99_us", rdLat.us(0.99), len(rdLat))
	e.set("loadgen.late_p99_us", late.us(0.99), len(late))
	e.set("ingest.lag_max_records", float64(lagMax), len(ack))
	e.set("ingest.folds", float64(folds), folds)
	e.set("ingest.records_per_fold", mean(perFold), len(perFold))
	e.set("serve.reload_ms", reloads.sorted().ms(0.5), len(reloads))
	e.set("serve.dirty_shard_ratio", mean(dirty), len(dirty))
	cs := st.Controller.Stats()
	e.set("ingest.backpressure_ratio", float64(cs.BackpressureRejects)/float64(posts), posts)
	e.set("ingest.wal_bytes_per_record", float64(dirBytes(filepath.Join(e.dir, "wal"), "wal-"))/float64(max(len(sent), 1)), len(sent))
	if e.opt.Trace {
		e.tracedIngest(ft, settled, reloads.sorted(), cutover.sorted())
		e.set("harness.heap_mb", heapMB(), 1)
		// One more batch folded by a direct call, after every timed number is
		// in, because only FoldOnce's own result says how many bytes a fold
		// copied and how many it re-encoded.
		extra := e.ds.ClickStream(posts+1, recordsPerPost)[posts]
		if _, err := st.Controller.Ingest(extra); err != nil {
			return err
		}
		sent = append(sent, extra...)
		probe, err := st.Controller.FoldOnce(context.Background())
		if err != nil {
			return err
		}
		e.set("serve.bytes_copied_per_fold", float64(probe.Stats.BytesCopied), 1)
		e.set("serve.bytes_reencoded_per_fold", float64(probe.Stats.BytesReencoded), 1)
	}
	return e.checkFinalGeneration(st, sent)
}

// tracedIngest reports the write path's budget from the fold checkpoints
// and the post/ingest_call spans.
func (e *env) tracedIngest(ft *foldTimes, fresh, reloads, cutover lats) {
	self := e.tr.selfTimes([]string{"ingest.post", "ingest.ingest_call"})
	e.set("ingest.post_self_us", self[0].us(0.5), len(self[0]))
	e.set("ingest.ingest_call_us", self[1].us(0.5), len(self[1]))
	ft.mu.Lock()
	defer ft.mu.Unlock()
	folds := ft.folds.sorted()
	e.set("ingest.fold_ms", folds.ms(0.5), len(folds))
	e.set("ingest.fold_max_ms", folds.ms(1), len(folds))
	sum := 0.0
	for _, s := range []struct{ stage, metric string }{
		{"fold:built", "ingest.fold_replay_build_ms"},
		{"fold:pre-commit", "ingest.fold_diff_refresh_ms"},
		{"fold:pre-publish", "serve.refresh_commit_ms"},
		{"fold:post-publish", "serve.publish_ms"},
		{"fold:post-cursor", "ingest.fold_cursor_ms"},
	} {
		l := ft.stages[s.stage].sorted()
		e.set(s.metric, l.ms(0.5), len(l))
		sum += l.ms(0.5)
		e.note("budget ingest-stream: %-28s %8.1f ms", s.metric, l.ms(0.5))
	}
	e.note("budget ingest-stream: %-28s %8.1f ms", "serve.reload_ms", reloads.ms(0.5))
	e.set("route.cutover_lag_ms", cutover.ms(0.5), len(cutover))
	// A record waits for the fold in progress to finish, then rides the next
	// one: freshness = wait + fold + reload.
	wait := fresh.ms(0.5) - folds.ms(0.5) - reloads.ms(0.5)
	e.set("ingest.fold_wait_ms", wait, len(fresh))
	e.note("budget ingest-stream: wait for fold %.1f + fold %.1f (stages sum %.1f) + reload %.1f = fresh p50 %.1f ms",
		wait, folds.ms(0.5), sum, reloads.ms(0.5), fresh.ms(0.5))
	e.set("trace.budget_sum_ratio", sum/folds.ms(0.5), len(folds))
	e.set("trace.overhead_ratio", 1, 0) // the checkpoint hook is two clock reads per stage
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// dirBytes sums the sizes of dir's files whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && len(ent.Name()) >= len(prefix) && ent.Name()[:len(prefix)] == prefix {
			n += info.Size()
		}
	}
	return n
}
