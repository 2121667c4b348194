package core

import (
	"fmt"
	"runtime"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/partition"
	"simrankpp/internal/sparse"
)

// This file builds deterministic synthetic pass workloads and exposes the
// engine micro-benchmark bodies (map baseline vs frontier-scatter vs the
// default row-major passes) as plain run-n-times closures, so that both
// the in-package benchmarks (pass_bench_test.go) and cmd/corebench — which
// wraps them in testing.Benchmark to emit BENCH_core.json — share one
// definition without linking the testing package into production binaries.

// PassBenchConfig sizes the synthetic click graph the pass benchmarks run
// on and the worker count for the parallel variants.
type PassBenchConfig struct {
	Seed    uint64
	Queries int
	Ads     int
	Edges   int
	Workers int
}

// DefaultPassBenchConfig returns a mid-size workload: large enough that
// accumulation strategy dominates, small enough for a CI smoke run.
func DefaultPassBenchConfig() PassBenchConfig {
	return PassBenchConfig{Seed: 1, Queries: 500, Ads: 350, Edges: 5000, Workers: runtime.GOMAXPROCS(0)}
}

// PassBenchCase is one benchmarkable pass variant: Body runs the pass n
// times against a prebuilt workload.
type PassBenchCase struct {
	Name string
	Body func(n int)
}

// passBenchVariants is the fixed benchmark matrix: the map baseline, the
// frontier-scatter formulation, and the default row-major pass serial and
// parallel.
var passBenchVariants = []string{"map", "scatter", "frontier", "parallel"}

// passBenchState holds one side's pass inputs plus the warmed-up previous
// iteration's scores in every representation the pass variants consume.
type passBenchState struct {
	in     *passInputs
	cfg    Config
	nq, na int
	prevAF *sparse.PairFrontier // opposite (ad) side, frontier form
	prevAM *sparse.PairTable    // opposite (ad) side, map form
	symA   *sparse.SymAdj       // opposite (ad) side, symmetric adjacency
}

// addBenchCluster adds one deterministic pseudo-random bipartite cluster
// to the builder. Node names are prefixed, so clusters with distinct
// prefixes are vertex-disjoint — each its own connected component (up to
// edge sampling leaving some nodes isolated).
func addBenchCluster(b *clickgraph.Builder, prefix string, seed uint64, nq, na, edges int) {
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	for i := 0; i < nq; i++ {
		b.AddQuery(fmt.Sprintf("%sq%d", prefix, i))
	}
	for e := 0; e < edges; e++ {
		q := next(nq)
		a := next(na)
		clicks := int64(next(20) + 1)
		err := b.AddEdge(fmt.Sprintf("%sq%d", prefix, q), fmt.Sprintf("%sad%d", prefix, a), clickgraph.EdgeWeights{
			Impressions: clicks * 3, Clicks: clicks,
			ExpectedClickRate: float64(next(100)) / 100,
		})
		if err != nil {
			panic(err)
		}
	}
}

// addBenchClusterStable is addBenchCluster with every node — queries AND
// ads — interned before any edge is sampled. Node ids then depend only on
// the cluster layout, never on the edge seed, which is the property the
// evolving (refresh) workload needs: re-sampling one cluster's edges must
// not shift any other cluster's global ids, or every shard would read as
// moved. (addBenchCluster itself is left alone so the recorded pass/shard
// workloads keep their historical shape.)
func addBenchClusterStable(b *clickgraph.Builder, prefix string, seed uint64, nq, na, edges int) {
	for i := 0; i < na; i++ {
		b.AddAd(fmt.Sprintf("%sad%d", prefix, i))
	}
	addBenchCluster(b, prefix, seed, nq, na, edges)
}

// RefreshWorkloadGraph builds step s of the evolving multi-cluster
// workload: the same cluster layout as MultiClusterGraph (stable node
// interning), where step s ≥ 1 re-samples the edges of cluster
// (s-1) mod Clusters with a step-dependent seed — one cluster's worth of
// churn, ≈ ClusterEdges / total edges of the graph (≈ 5% on the default
// workload). Steps are cumulative: a cluster churned at step s keeps its
// step-s edges until a later step hits it again, so chaining refreshes
// from step to step models successive daily click logs. The giant
// component never churns. Step 0 is the base graph.
func RefreshWorkloadGraph(bc ShardBenchConfig, step int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for c := 0; c < bc.Clusters; c++ {
		seed := bc.Seed + uint64(c)*1000003
		// The latest step ≤ step that churned cluster c, if any.
		if step >= c+1 {
			last := c + 1 + bc.Clusters*((step-1-c)/bc.Clusters)
			seed += uint64(last) * 7777779
		}
		addBenchClusterStable(b, fmt.Sprintf("c%d-", c), seed, bc.ClusterQueries, bc.ClusterAds, bc.ClusterEdges)
	}
	addBenchClusterStable(b, "g-", bc.Seed+999999937, bc.GiantQueries, bc.GiantAds, bc.GiantEdges)
	return b.Build()
}

// ShardBenchRunConfig exposes the workload's engine configuration
// (PERF.md's production mode plus the convergence tolerance) so the
// refresh benchmark runs its full rebuilds and its refreshes under
// exactly the recorded settings.
func ShardBenchRunConfig(bc ShardBenchConfig) Config { return shardBenchRunConfig(bc) }

// benchGraph builds a deterministic pseudo-random bipartite click graph.
func benchGraph(seed uint64, nq, na, edges int) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	addBenchCluster(b, "", seed, nq, na, edges)
	return b.Build()
}

// newPassBenchState warms the engine for three iterations so the measured
// pass sees a realistic mid-run score distribution.
func newPassBenchState(bc PassBenchConfig, variant Variant) *passBenchState {
	g := benchGraph(bc.Seed, bc.Queries, bc.Ads, bc.Edges)
	cfg := DefaultConfig().WithVariant(variant)
	cfg.Channel = ChannelClicks
	cfg.Iterations = 3
	cfg.PruneEpsilon = 1e-5
	warm, err := Run(g, cfg)
	if err != nil {
		panic(err)
	}
	prevAF := warm.AdScores
	return &passBenchState{
		in:     newPassInputs(g, cfg),
		cfg:    cfg,
		nq:     g.NumQueries(),
		na:     g.NumAds(),
		prevAF: prevAF,
		prevAM: prevAF.ToPairTable(),
		symA:   prevAF.ExpandSymmetric(nil),
	}
}

// benchSimplePass returns the simple-pass benchmark bodies keyed by
// variant name, all computing the same query-side update.
func benchSimplePass(st *passBenchState, workers int) map[string]func(n int) {
	side := st.nq + st.na
	return map[string]func(n int){
		"map": func(n int) {
			for i := 0; i < n; i++ {
				simplePassMap(st.prevAM, st.in.qNbr, st.in.aNbr, st.cfg.C1)
			}
		},
		"scatter": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			for i := 0; i < n; i++ {
				simplePassScatter(st.prevAF, st.in.qNbr, st.in.aNbr, st.cfg.C1, dst, 1, nil)
			}
		},
		"frontier": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			spas := newSPAs(1, side)
			for i := 0; i < n; i++ {
				simplePass(st.symA, st.in.qNbr, st.in.aNbr, st.cfg.C1, dst, nil, nil, 1, spas)
			}
		},
		"parallel": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			spas := newSPAs(workers, side)
			for i := 0; i < n; i++ {
				simplePass(st.symA, st.in.qNbr, st.in.aNbr, st.cfg.C1, dst, nil, nil, workers, spas)
			}
		},
	}
}

// benchWeightedPass mirrors benchSimplePass for the weighted pass.
func benchWeightedPass(st *passBenchState, workers int) map[string]func(n int) {
	side := st.nq + st.na
	return map[string]func(n int){
		"map": func(n int) {
			for i := 0; i < n; i++ {
				weightedPassMap(st.prevAM, st.in.qNbr, st.in.aNbr, st.in.qW, st.in.evQ, st.cfg.C1)
			}
		},
		"scatter": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			for i := 0; i < n; i++ {
				weightedPassScatter(st.prevAF, st.in.qNbr, st.in.aNbr, st.in.revWQ, st.in.evQ, st.cfg.C1, dst, 1, nil)
			}
		},
		"frontier": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			spas := newSPAs(1, side)
			for i := 0; i < n; i++ {
				weightedPass(st.symA, st.in.qNbr, st.in.aNbr, st.in.qW, st.in.revWQ, st.in.evQ, st.cfg.C1, dst, nil, nil, 1, spas)
			}
		},
		"parallel": func(n int) {
			dst := sparse.NewPairFrontier(st.nq)
			spas := newSPAs(workers, side)
			for i := 0; i < n; i++ {
				weightedPass(st.symA, st.in.qNbr, st.in.aNbr, st.in.qW, st.in.revWQ, st.in.evQ, st.cfg.C1, dst, nil, nil, workers, spas)
			}
		},
	}
}

// PassBenchCases builds the full benchmark matrix (pass × variant) in a
// fixed order. Each case's Body runs against shared prebuilt state, so
// measurements exclude graph construction and warm-up.
func PassBenchCases(bc PassBenchConfig) []PassBenchCase {
	if bc.Workers <= 0 {
		bc.Workers = runtime.GOMAXPROCS(0)
	}
	var out []PassBenchCase
	add := func(prefix string, bodies map[string]func(n int)) {
		for _, variant := range passBenchVariants {
			out = append(out, PassBenchCase{Name: prefix + "/" + variant, Body: bodies[variant]})
		}
	}
	add("SimplePass", benchSimplePass(newPassBenchState(bc, Simple), bc.Workers))
	add("WeightedPass", benchWeightedPass(newPassBenchState(bc, Weighted), bc.Workers))
	return out
}

// evidenceCountsViaAdd is the pre-fusion evidence build (one
// PairFrontier.Add per co-occurrence event, multiplier deferred to
// lookup), retained as the baseline EvidenceBuildBenchCases measures the
// sorted per-row scatter against.
func evidenceCountsViaAdd(n int, oppNbr [][]int) *sparse.PairFrontier {
	counts := sparse.NewPairFrontier(n)
	for _, nbrs := range oppNbr {
		for x := 0; x < len(nbrs); x++ {
			for y := x + 1; y < len(nbrs); y++ {
				counts.Add(nbrs[x], nbrs[y], 1)
			}
		}
	}
	counts.Compact()
	return counts
}

// EvidenceBuildBenchCases benchmarks building the query-side evidence
// table on the bench graph: "add" is the old per-pair accumulation of raw
// counts, "scatter" the current sorted per-row scatter (which additionally
// precomputes every multiplier and expands the symmetric CSR the fused
// harvest reads).
func EvidenceBuildBenchCases(bc PassBenchConfig) []PassBenchCase {
	g := benchGraph(bc.Seed, bc.Queries, bc.Ads, bc.Edges)
	nq := g.NumQueries()
	aNbr := make([][]int, g.NumAds())
	for a := range aNbr {
		aNbr[a], _ = g.QueriesOf(a)
	}
	return []PassBenchCase{
		{Name: "EvidenceBuild/add", Body: func(n int) {
			for i := 0; i < n; i++ {
				evidenceCountsViaAdd(nq, aNbr)
			}
		}},
		{Name: "EvidenceBuild/scatter", Body: func(n int) {
			for i := 0; i < n; i++ {
				newEvidenceTable(nq, aNbr, EvidenceGeometric, false)
			}
		}},
	}
}

// IterationTrajectory runs the full weighted engine on the bench graph for
// the given number of iterations (no early stop) and returns the
// per-iteration stats: wall time plus how many rows the change-tracked
// delta skip copied forward. skipTol maps to Config.DeltaSkipTolerance;
// negative disables delta skipping, giving the full-recompute reference
// trajectory.
//
// The channel picks the convergence regime on the synthetic bench graph:
// ChannelRate (the paper's default) keeps every score alive, so rows only
// freeze within a positive skipTol; ChannelClicks drains the run — its
// spread factor e^{-Var} pushes every score below the prune threshold —
// so after two iterations exact skipping copies the whole graph forward.
func IterationTrajectory(bc PassBenchConfig, iterations int, skipTol float64, channel WeightChannel) []IterationStat {
	if bc.Workers <= 0 {
		bc.Workers = runtime.GOMAXPROCS(0)
	}
	g := benchGraph(bc.Seed, bc.Queries, bc.Ads, bc.Edges)
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Channel = channel
	cfg.Iterations = iterations
	cfg.PruneEpsilon = 1e-5
	if skipTol < 0 {
		cfg.DisableDeltaSkip = true
	} else {
		cfg.DeltaSkipTolerance = skipTol
	}
	res, err := RunParallel(g, cfg, bc.Workers)
	if err != nil {
		panic(err)
	}
	return res.IterStats
}

// ShardBenchConfig sizes the multi-cluster shard workload: Clusters
// medium components plus one giant component, the shape of a real click
// log (many niche markets, one head market). The giant exceeds the shard
// budget, so the plan packs the medium clusters into exact shards and
// carves the giant with ACL cuts.
type ShardBenchConfig struct {
	Seed           uint64  `json:"seed"`
	Clusters       int     `json:"clusters"`
	ClusterQueries int     `json:"cluster_queries"`
	ClusterAds     int     `json:"cluster_ads"`
	ClusterEdges   int     `json:"cluster_edges"`
	GiantQueries   int     `json:"giant_queries"`
	GiantAds       int     `json:"giant_ads"`
	GiantEdges     int     `json:"giant_edges"`
	MaxShardNodes  int     `json:"max_shard_nodes"`
	Workers        int     `json:"workers"`
	Iterations     int     `json:"iterations"`
	Tolerance      float64 `json:"tolerance"`
}

// DefaultShardBenchConfig returns the recorded workload: 16 medium
// clusters plus a giant component about five times a cluster's size,
// under a budget that packs the clusters and carves the giant. The run
// config mirrors PERF.md's production mode (weighted, rate channel,
// pruning, tolerance-scaled delta skip) with a convergence tolerance, so
// the sharded run can stop finished shards early — the serial half of the
// win; the worker pool is the parallel half.
func DefaultShardBenchConfig() ShardBenchConfig {
	return ShardBenchConfig{
		Seed: 7, Clusters: 16,
		ClusterQueries: 130, ClusterAds: 90, ClusterEdges: 1000,
		GiantQueries: 650, GiantAds: 450, GiantEdges: 5500,
		MaxShardNodes: 400, Workers: runtime.GOMAXPROCS(0),
		Iterations: 15, Tolerance: 1e-4,
	}
}

// SmokeShardBenchConfig returns a seconds-scale variant for CI.
func SmokeShardBenchConfig() ShardBenchConfig {
	bc := DefaultShardBenchConfig()
	bc.Clusters = 4
	bc.ClusterQueries, bc.ClusterAds, bc.ClusterEdges = 60, 40, 400
	bc.GiantQueries, bc.GiantAds, bc.GiantEdges = 240, 160, 1800
	bc.MaxShardNodes = 200
	bc.Iterations = 8
	return bc
}

// MultiClusterGraph builds the workload's click graph.
func MultiClusterGraph(bc ShardBenchConfig) *clickgraph.Graph {
	b := clickgraph.NewBuilder()
	for c := 0; c < bc.Clusters; c++ {
		addBenchCluster(b, fmt.Sprintf("c%d-", c), bc.Seed+uint64(c)*1000003, bc.ClusterQueries, bc.ClusterAds, bc.ClusterEdges)
	}
	addBenchCluster(b, "g-", bc.Seed+999999937, bc.GiantQueries, bc.GiantAds, bc.GiantEdges)
	return b.Build()
}

// shardBenchRunConfig is the engine configuration both sides of the
// comparison run: PERF.md's production mode plus the workload's
// convergence tolerance.
func shardBenchRunConfig(bc ShardBenchConfig) Config {
	cfg := DefaultConfig().WithVariant(Weighted)
	cfg.Iterations = bc.Iterations
	cfg.Tolerance = bc.Tolerance
	cfg.PruneEpsilon = 1e-5
	cfg.DeltaSkipTolerance = 1e-5
	return cfg
}

// ShardBenchResult is one monolithic-vs-sharded measurement on the
// multi-cluster workload.
type ShardBenchResult struct {
	// Graph and plan shape.
	Queries       int  `json:"queries"`
	Ads           int  `json:"ads"`
	Edges         int  `json:"edges"`
	Shards        int  `json:"shards"`
	ExactPlan     bool `json:"exact_plan"`
	TotalCutEdges int  `json:"total_cut_edges"`
	// Wall-clock, best of the harness's repetitions. PlanNs is the
	// one-time partition.BuildPlan cost (ACL pushes + sweep cuts), kept
	// separate because a deployment plans once and runs per refresh; the
	// run comparison is ShardedNs vs MonolithicNs, the end-to-end one
	// (PlanNs + ShardedNs) vs MonolithicNs.
	PlanNs       int64 `json:"plan_ns"`
	MonolithicNs int64 `json:"monolithic_ns"`
	ShardedNs    int64 `json:"sharded_ns"`
	// Iterations actually run (tolerance can stop either side early; for
	// the sharded run this is the slowest shard's count).
	MonolithicIters int `json:"monolithic_iters"`
	ShardedIters    int `json:"sharded_iters"`
	// Peak dense-accumulator footprint: the monolithic engine's SPA is
	// sized to the whole graph's larger side, each shard's only to its
	// own. MaxShardSPABytes is the largest any single shard needed.
	MonolithicSPABytes int64 `json:"monolithic_spa_bytes"`
	MaxShardSPABytes   int64 `json:"max_shard_spa_bytes"`
	// Per-iteration wall-time trajectories (ns): the monolithic engine's
	// and, for the sharded run, the per-index sum over shards (total
	// work; finished shards stop contributing, which is the point).
	MonolithicIterNs []int64 `json:"monolithic_iter_ns"`
	ShardedIterNs    []int64 `json:"sharded_iter_ns"`
}

// RunShardBench builds the workload, plans it, and measures one
// monolithic serial run against one sharded run (reps repetitions each,
// best wall time kept). It returns the measurement, the plan, and the
// best sharded Result with its per-shard scores retained — the snapshot
// serving benchmark serializes that same result, so the serving numbers
// describe exactly the workload the shard numbers do, without a second
// engine run.
func RunShardBench(bc ShardBenchConfig, reps int) (ShardBenchResult, *partition.Plan, *Result, error) {
	if reps < 1 {
		reps = 1
	}
	if bc.Workers <= 0 {
		bc.Workers = runtime.GOMAXPROCS(0)
	}
	g := MultiClusterGraph(bc)
	cfg := shardBenchRunConfig(bc)
	pcfg := partition.DefaultPlanConfig()
	pcfg.MaxShardNodes = bc.MaxShardNodes
	pcfg.MinCutNodes = bc.MaxShardNodes / 4
	tPlan := time.Now()
	plan, err := partition.BuildPlan(g, pcfg)
	if err != nil {
		return ShardBenchResult{}, nil, nil, err
	}

	out := ShardBenchResult{
		Queries: g.NumQueries(), Ads: g.NumAds(), Edges: g.NumEdges(),
		Shards: len(plan.Shards), ExactPlan: plan.Exact, TotalCutEdges: plan.TotalCutEdges,
		PlanNs: time.Since(tPlan).Nanoseconds(),
	}
	side := g.NumQueries()
	if na := g.NumAds(); na > side {
		side = na
	}
	out.MonolithicSPABytes = int64(side) * 16

	for r := 0; r < reps; r++ {
		t0 := time.Now()
		mono, err := Run(g, cfg)
		if err != nil {
			return ShardBenchResult{}, nil, nil, err
		}
		ns := time.Since(t0).Nanoseconds()
		if r == 0 || ns < out.MonolithicNs {
			out.MonolithicNs = ns
			out.MonolithicIters = mono.Iterations
			out.MonolithicIterNs = iterNs(mono.IterStats)
		}
	}
	var best *Result
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		// Shard scores are retained (pointer-sized bookkeeping, no table
		// copies) so the serving benchmark can serialize this run.
		sharded, err := RunSharded(g, cfg, plan, ShardOptions{Workers: bc.Workers, RetainShardScores: true})
		if err != nil {
			return ShardBenchResult{}, nil, nil, err
		}
		ns := time.Since(t0).Nanoseconds()
		if r == 0 || ns < out.ShardedNs {
			best = sharded
			out.ShardedNs = ns
			out.ShardedIters = sharded.Iterations
			out.ShardedIterNs = iterNs(sharded.IterStats)
			out.MaxShardSPABytes = 0
			for _, s := range sharded.ShardStats {
				if s.SPABytes > out.MaxShardSPABytes {
					out.MaxShardSPABytes = s.SPABytes
				}
			}
		}
	}
	return out, plan, best, nil
}

func iterNs(stats []IterationStat) []int64 {
	out := make([]int64, len(stats))
	for i, s := range stats {
		out[i] = s.Duration.Nanoseconds()
	}
	return out
}

// IterTrajectoryModes is the fixed trajectory matrix corebench records and
// BenchmarkWeightedIterations runs: full recompute as the reference, exact
// and tolerance-scaled delta skipping on the live (rate-channel) workload,
// and exact skipping on the drained (clicks-channel) workload where rows
// genuinely freeze.
var IterTrajectoryModes = []struct {
	Name    string
	Channel WeightChannel
	SkipTol float64 // negative: delta skip disabled
}{
	{"full", ChannelRate, -1},
	{"delta-exact", ChannelRate, 0},
	{"delta-tol1e-5", ChannelRate, 1e-5},
	{"drained-delta-exact", ChannelClicks, 0},
}
