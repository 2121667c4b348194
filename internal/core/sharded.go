package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// This file is the shard orchestration layer of §9.2's scaling story: the
// click graph is decomposed into a partition.Plan (whole components packed
// exactly, oversized components carved with ACL sweep cuts) and one
// engine runs per shard over a bounded worker pool. Each shard engine
// sizes its dense accumulators, frontiers, and adjacencies to the shard —
// not the universe — which is what makes sides too large for one
// monolithic dense SPA tractable.

// ShardOptions parameterizes RunSharded's scheduling.
type ShardOptions struct {
	// Workers is the total worker budget (<= 0 means GOMAXPROCS): it
	// bounds how many shard engines run concurrently, and each engine
	// additionally gets a node-proportional share of it as its own
	// row-parallel workers so a dominant shard does not run serially
	// while the rest of the pool idles. Each pool worker owns one
	// reusable engine arena, so peak scratch memory is on the order of
	// Workers × the largest shard's side, never the whole graph's.
	Workers int
	// RetainShardScores is ignored (a run's scores live once, in the
	// stitched frontiers); it stays only because pathbench sets it.
	RetainShardScores bool
	// RunShards, when non-nil, must have one entry per plan shard and
	// restricts the run to the true entries — the dirty shards of a
	// partition.DiffPlans classification. Skipped shards burn no work at
	// all (no subgraph extraction, no engine): their rows of the stitched
	// Result stay empty and their ShardStats entry is marked Skipped; a
	// refresh byte-copies the previous generation's segments for them. A
	// Result of a partial run is NOT a complete score index; it exists to
	// feed a refresh.
	RunShards []bool
	// Context, when non-nil, cancels the run between shards: each pool
	// worker checks it before starting the next shard engine and the
	// dispatcher stops feeding the queue, so cancellation costs at most
	// the shards already in flight. RunSharded then returns the context's
	// error. The ingest controller plumbs its shutdown context through
	// here (via serve.Refresh) so SIGTERM stops an in-flight fold at the
	// next shard boundary instead of finishing the refresh.
	Context context.Context
}

// ShardStat records one shard engine run for the stitched Result; the
// shard itself (ids, cut edges, fingerprint) is Result.Plan's entry at the
// same index.
type ShardStat struct {
	// Edges is the shard subgraph's edge count (0 when skipped).
	Edges int
	// Iterations/Converged are the shard engine's own run outcome;
	// Iterations is the query-side depth it reached (Result.Iterations).
	Iterations int
	Converged  bool
	// SPABytes is the dense sparse-accumulator footprint this shard's
	// engine needed: per engine worker the shard was granted, the float64
	// gather array u with its int32 touched list, the byte of neighbor
	// marks the weighted pull counts evidence with, and the sparse
	// candidate path's int32 candidate list and one mark bit, per cell of
	// its larger side — 17 bytes + 1 bit a cell (spaBytes). The monolithic
	// equivalent is the same over max(NumQueries, NumAds). It is the row
	// path's scratch only: the block path's memory is BlockBytes.
	SPABytes int64
	// BlockBytes is the block path's memory in this shard's engine: the
	// m × m score blocks both sides held, their pair factors and gather
	// and pull operands, and per engine worker the strip buffers — U, Uᵀ
	// and the panel of output cells — for the largest component it
	// computed (engineArena.blockBytes). Zero where the engine held no
	// block.
	BlockBytes int64
	// Skipped reports that ShardOptions.RunShards excluded this shard: no
	// engine ran and the run-outcome fields above are zero.
	Skipped bool
}

// RunSharded executes the plan: one sparse engine per shard, scheduled
// big-shards-first across a bounded worker pool, stitched into a single
// Result in the parent graph's id space (scores, the TopRewrites partner
// index via the stitched frontiers, and merged IterStats) that records the
// plan it ran (Result.Plan). Each engine copies its final scores out of
// its arena once, straight into the stitched frontiers' rows of its
// shard: they are the only copy of the run's scores.
//
// When the plan is exact — every shard a union of whole connected
// components — the stitched scores are bit-identical to Run(g, cfg) at a
// fixed iteration count: pairs in different components score 0 in both,
// and a shard's local computation replays the monolithic one contribution
// for contribution (the differential tests pin this, serial and parallel,
// across variants). Two documented deviations:
//
//   - With Config.Tolerance > 0, each shard stops at its *own*
//     convergence instead of the global maximum, so converged shards stop
//     paying expansion/diff work entirely (part of the sharded speedup);
//     scores then differ from the monolithic run by at most the
//     tolerance-scale drift. Result.Converged reports whether every shard
//     converged.
//   - With an ACL-cut (non-exact) plan, cut edges' evidence is invisible
//     to both shards they straddle: cross-shard pairs score 0 and
//     boundary pairs are approximated, the same trade the paper accepts
//     when decomposing its giant component (§9.2).
//
// Every shard engine starts from the identity, so a shard's scores depend
// on its subgraph and cfg alone, under any Config: a run restricted to
// some shards (ShardOptions.RunShards) scores them exactly as a run of the
// whole plan does.
//
// Result.IterStats sums, per pass-pair index, the per-shard stats (shards
// run concurrently, so summed durations measure total work, not wall
// time); Result.ShardStats records each shard's run in plan order.
func RunSharded(g *clickgraph.Graph, cfg Config, plan *partition.Plan, opt ShardOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("core: RunSharded needs a partition.Plan")
	}
	if err := plan.Validate(g); err != nil {
		return nil, err
	}
	if opt.RunShards != nil && len(opt.RunShards) != len(plan.Shards) {
		return nil, fmt.Errorf("core: RunShards has %d entries for a %d-shard plan",
			len(opt.RunShards), len(plan.Shards))
	}
	budget := opt.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	// The pool never needs more slots than shards; the engine-worker
	// shares below still draw on the full budget, so a single-shard plan
	// runs its one engine with every worker.
	workers := budget
	if workers > len(plan.Shards) {
		workers = len(plan.Shards)
	}

	// Big shards first: the largest shard bounds the pool's makespan, so
	// it must not be picked up last. Skipped (clean) shards never enter
	// the queue — a refresh's cost is the dirty region's, not the plan's.
	run := func(i int) bool { return opt.RunShards == nil || opt.RunShards[i] }
	order := make([]int, 0, len(plan.Shards))
	totalNodes := 0
	for i := range plan.Shards {
		if !run(i) {
			continue
		}
		order = append(order, i)
		totalNodes += plan.Shards[i].Nodes()
	}
	if workers > len(order) {
		workers = len(order)
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := plan.Shards[order[a]].Nodes(), plan.Shards[order[b]].Nodes()
		if na != nb {
			return na > nb
		}
		return order[a] < order[b]
	})
	// A dominant shard must not run serially while the rest of the pool
	// idles (one uncarvable component plus a handful of tiny ones is the
	// worst case), so each shard's engine gets a share of the worker
	// budget proportional to its node count. Shares sum to ≈ workers;
	// transient oversubscription while small shards drain is bounded and
	// cheap (goroutines, with parallelism capped by GOMAXPROCS anyway).
	engineWorkers := func(nodes int) int {
		if totalNodes == 0 {
			return 1
		}
		w := (budget*nodes + totalNodes/2) / totalNodes
		if w < 1 {
			return 1
		}
		if w > budget {
			return budget
		}
		return w
	}

	// Each shard engine emits its scores into the stitched frontiers:
	// shards own disjoint global rows and their id maps ascend, so remapped
	// rows arrive sorted and no two workers share a row.
	qScores := sparse.NewPairFrontier(g.NumQueries())
	aScores := sparse.NewPairFrontier(g.NumAds())
	outs := make([]shardOut, len(plan.Shards))
	// Each ad lies in one shard (plan.Validate), so one table gives every
	// ad its local id in its shard's view, for every carve.
	views := make([][]int, len(plan.Shards))
	for i := range plan.Shards {
		views[i] = plan.Shards[i].Ads
	}
	adLocal := clickgraph.AdTable(g, views...)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := &engineArena{} // reused across this worker's shards
			for idx := range jobs {
				if ctx := opt.Context; ctx != nil && ctx.Err() != nil {
					fail(ctx.Err())
					continue
				}
				sh := &plan.Shards[idx]
				view, err := clickgraph.NewSubview(g, sh.Queries, sh.Ads, adLocal)
				if err != nil {
					fail(fmt.Errorf("core: shard %d: %w", idx, err))
					continue
				}
				ew := engineWorkers(sh.Nodes())
				out := &scoreSink{q: qScores, a: aScores, qIDs: view.QueryIDs, aIDs: view.AdIDs}
				res, err := runEngine(view.Graph, cfg, ew, ar, out)
				if err != nil {
					fail(fmt.Errorf("core: shard %d: %w", idx, err))
					continue
				}
				outs[idx] = shardOut{res: res, stat: ShardStat{
					Edges:      view.Graph.NumEdges(),
					Iterations: res.Iterations,
					Converged:  res.Converged,
					SPABytes:   int64(ew) * spaBytes(max(view.Graph.NumQueries(), view.Graph.NumAds())),
					BlockBytes: out.blockBytes,
				}}
			}
		}()
	}
	for _, idx := range order {
		if ctx := opt.Context; ctx != nil && ctx.Err() != nil {
			fail(ctx.Err())
			break
		}
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range plan.Shards {
		if !run(i) {
			outs[i].stat = ShardStat{Skipped: true}
		}
	}
	res := stitch(g, cfg, qScores, aScores, outs)
	res.Plan = plan
	return res, nil
}

// shardOut is one shard engine's run metadata awaiting the stitch.
type shardOut struct {
	res  *Result
	stat ShardStat
}

// stitch merges the shards' run metadata. The scores are already in place
// (each pool worker deposited its own); entries with a nil res were
// skipped (clean) shards and contribute their stat alone.
func stitch(g *clickgraph.Graph, cfg Config, qScores, aScores *sparse.PairFrontier, outs []shardOut) *Result {
	maxIters := 0
	for i := range outs {
		if res := outs[i].res; res != nil && res.Iterations > maxIters {
			maxIters = res.Iterations
		}
	}
	iterStats := make([]IterationStat, maxIters)
	shardStats := make([]ShardStat, len(outs))
	converged := true
	for i := range outs {
		shardStats[i] = outs[i].stat
		res := outs[i].res
		if res == nil {
			continue
		}
		for it, s := range res.IterStats {
			iterStats[it].Duration += s.Duration
			iterStats[it].QueryRows += s.QueryRows
			iterStats[it].AdRows += s.AdRows
		}
		converged = converged && res.Converged
	}
	return &Result{
		Graph:       g,
		Config:      cfg,
		QueryScores: qScores,
		AdScores:    aScores,
		Iterations:  maxIters,
		Converged:   converged,
		IterStats:   iterStats,
		ShardStats:  shardStats,
	}
}
