package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/hedge"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
)

// Options is what a caller of the coordinator sets.
type Options struct {
	// LocalWorkers is the engine budget for the local fallback run
	// (<= 0: GOMAXPROCS).
	LocalWorkers int
	// Transport overrides the HTTP transport (the chaos suite's
	// fault-injection seam); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logf receives progress lines; nil uses the standard logger.
	Logf func(format string, args ...any)
}

// The failure handling is fixed. A dispatch round-trip that has not
// answered within leaseTimeout counts as failed and the lease is
// re-dispatched; a shard gets maxAttempts rounds (two workers in a round
// that is hedged) before it goes to the local fallback; maxWorkerFails
// consecutive failures mark a worker dead for the rest of the refresh;
// 2 × workers shards are in flight at once. The wait between rounds and
// the straggler threshold are hedge's defaults: 100ms doubling to 5s,
// equal-jittered and floored at the worker's Retry-After; the p95 of
// completed leases, at least 250ms, once 3 have completed.
const (
	leaseTimeout   = 30 * time.Second
	maxAttempts    = 4
	maxWorkerFails = 3
)

// FleetStats counts what the failure machinery did during one refresh
// (one RefreshShards call).
type FleetStats struct {
	// RemoteShards/LocalFallbackShards partition the dirty shards by
	// where their segments were computed.
	RemoteShards, LocalFallbackShards int
	// Retries counts re-dispatched leases (a hedge is not a retry);
	// Hedges counts second-worker dispatches within a round: for a
	// straggler, or at once for a primary that failed while hedging was
	// armed;
	// DuplicateWins counts completions that lost the idempotent accept
	// race (their bytes were discarded).
	Retries, Hedges, DuplicateWins int
	// WorkerDeaths counts workers marked dead after consecutive
	// failures.
	WorkerDeaths int
}

// FleetResult is one distributed refresh's compute output: the shard run
// serve.AssembleRefresh takes, plus what the fleet did to produce it.
type FleetResult struct {
	serve.ShardRun
	Stats FleetStats
}

// workerState tracks one worker's health during one refresh.
type workerState struct {
	url   string
	fails int
	dead  bool
}

// Coordinator dispatches dirty-shard leases to a worker fleet. It holds
// what outlives a refresh — the options, the HTTP client and the
// completed-lease latency window hedging reads; everything one refresh
// accumulates lives in its RefreshShards call (fleetRun).
type Coordinator struct {
	opt     Options
	client  *http.Client
	urls    []string
	backoff hedge.Backoff
	lat     *hedge.Tracker
}

// NewCoordinator returns a coordinator over the given worker base URLs
// (e.g. "http://host:9090").
func NewCoordinator(workerURLs []string, opt Options) *Coordinator {
	return &Coordinator{
		opt:    opt,
		client: &http.Client{Transport: opt.Transport},
		urls:   workerURLs,
		lat:    &hedge.Tracker{},
	}
}

// fleetRun is one RefreshShards call's state. Worker health, the
// round-robin cursor and the counters start fresh with every refresh: a
// worker that was down for the last one is tried again, and nothing a
// finished refresh accepted stays reachable.
type fleetRun struct {
	*Coordinator

	mu      sync.Mutex
	workers []workerState
	rr      int
	// out.Segments doubles as the completion registry, indexed by shard:
	// duplicate completions (hedges, re-dispatched timeouts that raced
	// their retry) collapse onto one entry, first writer wins.
	out FleetResult
}

func (c *Coordinator) newRun(shards int) *fleetRun {
	r := &fleetRun{Coordinator: c, workers: make([]workerState, len(c.urls))}
	for i, u := range c.urls {
		r.workers[i].url = u
	}
	r.out.Segments = make([]*serve.ShardSegment, shards)
	r.out.Converged = true
	return r
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// pickWorker round-robins over live workers, skipping exclude (the
// hedge's primary); false when none qualify.
func (r *fleetRun) pickWorker(exclude *workerState) (*workerState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for range r.workers {
		w := &r.workers[r.rr%len(r.workers)]
		r.rr++
		if !w.dead && w != exclude {
			return w, true
		}
	}
	return nil, false
}

// markResult updates a worker's health after a dispatch.
func (r *fleetRun) markResult(w *workerState, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		w.fails = 0
		return
	}
	w.fails++
	if !w.dead && w.fails >= maxWorkerFails {
		w.dead = true
		r.out.Stats.WorkerDeaths++
		r.logf("dist: worker %s marked dead after %d consecutive failures", w.url, w.fails)
	}
}

// accept files a completed lease idempotently: the first completion of
// a shard wins, later ones are counted and dropped. A response whose
// echo or CRCs disagree with the lease is rejected outright — it is not
// a completion of this work.
func (r *fleetRun) accept(l *Lease, resp *SegmentResponse) (first bool, err error) {
	if resp.Generation != l.Generation || resp.Shard != l.Shard || resp.Fingerprint != l.Fingerprint {
		return false, fmt.Errorf("dist: completion echo (gen %016x shard %d fp %016x) does not match lease (gen %016x shard %d fp %016x)",
			resp.Generation, resp.Shard, resp.Fingerprint, l.Generation, l.Shard, l.Fingerprint)
	}
	seg := &resp.ShardSegment
	if err := seg.Validate(); err != nil {
		return false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.out.Segments[l.Shard] != nil {
		r.out.Stats.DuplicateWins++
		return false, nil
	}
	r.out.Segments[l.Shard] = seg
	return true, nil
}

// dispatchOnce sends one lease to one worker and decodes the response.
func (c *Coordinator) dispatchOnce(ctx context.Context, w *workerState, leaseBytes []byte) (*SegmentResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, leaseTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/refresh-shard", bytes.NewReader(leaseBytes))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	httpResp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		// Carries the worker's Retry-After hint (a shedding 503 sends one)
		// up to the retry loop, which takes the max of it and the local
		// backoff schedule.
		return nil, fmt.Errorf("dist: worker %s %w", w.url, hedge.ResponseError(httpResp))
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	return DecodeSegmentResponse(body)
}

// dispatchShard leases one shard to the fleet (hedge.Do: rounds, backoff,
// a second worker raced against a straggler). It returns the accepted
// response, or an error when every avenue failed — the caller then falls
// back to local recompute. A completion that loses the accept race (a
// hedge racing its primary) is counted by accept and is byte-identical by
// the determinism contract, so either copy serves.
func (r *fleetRun) dispatchShard(ctx context.Context, l *Lease) (*SegmentResponse, error) {
	leaseBytes, err := l.Encode()
	if err != nil {
		return nil, err
	}
	res, err := hedge.Do(ctx, hedge.Call[*workerState, *SegmentResponse]{
		Attempts: maxAttempts,
		Backoff:  r.backoff,
		Tracker:  r.lat,
		Pick:     r.pickWorker,
		// dispatchOnce's exchange is made under lctx, so it returns as
		// soon as the launch is cancelled, as hedge.Do asks of Send.
		Send: func(lctx context.Context, w *workerState) (*SegmentResponse, error) {
			resp, err := r.dispatchOnce(lctx, w, leaseBytes)
			if err == nil {
				// A decoded-but-wrong response is a worker fault too.
				_, err = r.accept(l, resp)
			}
			// A launch cancelled from outside (its hedge won, the refresh
			// was called off) is not a worker failure; a lease that timed
			// out is, and its deadline is dispatchOnce's own.
			if err == nil || lctx.Err() == nil {
				r.markResult(w, err == nil)
			}
			return resp, err
		},
		Retried: func(round int, last error) {
			r.mu.Lock()
			r.out.Stats.Retries++
			r.mu.Unlock()
			r.logf("dist: shard %d attempt %d failed: %v", l.Shard, round-1, last)
		},
		Hedged: func(primary, secondary *workerState) {
			r.mu.Lock()
			r.out.Stats.Hedges++
			r.mu.Unlock()
			r.logf("dist: shard %d straggling or failed on %s, hedging to %s", l.Shard, primary.url, secondary.url)
		},
	})
	if err != nil {
		err = fmt.Errorf("dist: shard %d: %w", l.Shard, err)
		r.logf("%v", err)
		return nil, err
	}
	res.Release()
	return res.Value, nil
}

// buildLease assembles one dirty shard's dispatch payload: the induced
// subgraph in subview-local order, and — when warm is set — the exact
// warm-start pairs the local path's seeder would pull, precomputed
// against the previous generation so the worker needs no access to it.
func buildLease(g *clickgraph.Graph, prev *serve.Snapshot, plan *partition.Plan, si int, generation uint64, cfg core.Config, warm bool) (*Lease, error) {
	sh := &plan.Shards[si]
	view, err := clickgraph.NewSubview(g, sh.Queries, sh.Ads)
	if err != nil {
		return nil, fmt.Errorf("dist: shard %d subview: %w", si, err)
	}
	vg := view.Graph
	l := &Lease{
		Generation:  generation,
		Shard:       uint32(si),
		Fingerprint: sh.Fingerprint,
		Config:      cfg,
		QueryIDs:    view.QueryIDs,
		AdIDs:       view.AdIDs,
	}
	l.QueryNames = make([]string, vg.NumQueries())
	for i := range l.QueryNames {
		l.QueryNames[i] = vg.Query(i)
	}
	l.AdNames = make([]string, vg.NumAds())
	for i := range l.AdNames {
		l.AdNames[i] = vg.Ad(i)
	}
	vg.Edges(func(q, a int, w clickgraph.EdgeWeights) bool {
		l.Edges = append(l.Edges, WireEdge{
			Q: uint32(q), A: uint32(a),
			Impressions: w.Impressions, Clicks: w.Clicks, Rate: w.ExpectedClickRate,
		})
		return true
	})
	if warm {
		// core's own seeder, so the worker's seeded frontier is the one a
		// local warm run of this shard would build.
		seedQ, seedA := sparse.NewPairFrontier(vg.NumQueries()), sparse.NewPairFrontier(vg.NumAds())
		core.FillWarmSeeds(prev, vg, seedQ, seedA)
		l.WarmQuery, l.WarmAd = wirePairs(seedQ), wirePairs(seedA)
	}
	return l, nil
}

// wirePairs lists f's pairs in row-major order.
func wirePairs(f *sparse.PairFrontier) []WirePair {
	var out []WirePair
	f.Range(func(i, j int, v float64) bool {
		out = append(out, WirePair{I: uint32(i), J: uint32(j), Score: v})
		return true
	})
	return out
}

// RefreshShards computes the segment of every shard of plan that dirty
// marks — remotely where the fleet allows, in this process where it does
// not — for the generation plan describes (the projected refresh plan
// over g). The engine configuration is the previous snapshot's recorded
// config; dirty shards are warm-started exactly when it converges by
// tolerance (serve.PoolRunner's rule).
func (c *Coordinator) RefreshShards(ctx context.Context, g *clickgraph.Graph, prev *serve.Snapshot, plan *partition.Plan, dirty []bool) (*FleetResult, error) {
	cfg := prev.Config()
	warm := cfg.Tolerance > 0
	generation := plan.Fingerprint()
	r := c.newRun(len(plan.Shards))
	out := &r.out

	var dirtyIdx []int
	for si, d := range dirty {
		if d {
			dirtyIdx = append(dirtyIdx, si)
		}
	}
	if len(dirtyIdx) == 0 {
		return out, nil
	}

	// Dispatch phase: every dirty shard through the fleet, bounded
	// concurrency, failures collected for the fallback phase.
	type shardDone struct {
		si   int
		resp *SegmentResponse
		err  error
	}
	sem := make(chan struct{}, max(2*len(c.urls), 1))
	done := make(chan shardDone, len(dirtyIdx))
	var wg sync.WaitGroup
	for _, si := range dirtyIdx {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if len(c.urls) == 0 {
				done <- shardDone{si: si, err: fmt.Errorf("dist: no workers configured")}
				return
			}
			lease, err := buildLease(g, prev, plan, si, generation, cfg, warm)
			if err != nil {
				done <- shardDone{si: si, err: err}
				return
			}
			resp, err := r.dispatchShard(ctx, lease)
			done <- shardDone{si: si, resp: resp, err: err}
		}(si)
	}
	wg.Wait()
	close(done)

	// A dispatch that succeeded has filed its segment (accept runs before
	// dispatchShard returns), and no dispatch outlives wg.Wait.
	var failed []int
	for d := range done {
		if d.err != nil {
			failed = append(failed, d.si)
			continue
		}
		out.Stats.RemoteShards++
		out.Iterations = max(out.Iterations, d.resp.Iterations)
		out.Converged = out.Converged && d.resp.Converged
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Fallback phase: shards the fleet could not complete degrade to
	// the single-machine refresh path — the in-process runner, under the
	// caller's context like the dispatch phase.
	if len(failed) > 0 {
		sort.Ints(failed)
		c.logf("dist: fallback-to-local: recomputing %d shard(s) %v locally (fleet unavailable or exhausted)", len(failed), failed)
		mask := make([]bool, len(plan.Shards))
		for _, si := range failed {
			mask[si] = true
		}
		local, err := serve.PoolRunner(c.opt.LocalWorkers)(ctx, g, prev, plan, mask)
		if err != nil {
			return nil, fmt.Errorf("dist: local fallback: %w", err)
		}
		for _, si := range failed {
			out.Segments[si] = local.Segments[si]
		}
		out.Stats.LocalFallbackShards = len(failed)
		out.Iterations = max(out.Iterations, local.Iterations)
		out.Converged = out.Converged && local.Converged
	}
	return out, nil
}

// Run is RefreshShards as a serve.ShardRunner — the argument that makes
// serve.Refresh a fleet refresh. The fleet counters, which the runner
// shape has no room for, go to Logf.
func (c *Coordinator) Run(ctx context.Context, g *clickgraph.Graph, prev *serve.Snapshot, plan *partition.Plan, dirty []bool) (*serve.ShardRun, error) {
	out, err := c.RefreshShards(ctx, g, prev, plan, dirty)
	if err != nil {
		return nil, err
	}
	s := out.Stats
	c.logf("dist: fleet refresh: %d shard(s) remote, %d local fallback; %d retries, %d hedges, %d duplicate completions, %d worker(s) marked dead",
		s.RemoteShards, s.LocalFallbackShards, s.Retries, s.Hedges, s.DuplicateWins, s.WorkerDeaths)
	return &out.ShardRun, nil
}
