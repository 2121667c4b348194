package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/ingest"
	"simrankpp/internal/partition"
	"simrankpp/internal/serve"
)

// engineConfig is the production engine mode (PERF.md): weighted SimRank
// on the expected-click-rate channel, pruning, a convergence tolerance
// and tolerance-scaled delta skip.
func engineConfig() core.Config {
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.Iterations = 15
	cfg.Tolerance = 1e-4
	cfg.PruneEpsilon = 1e-5
	cfg.DeltaSkipTolerance = 1e-5
	return cfg
}

func planConfig(sc Scale) partition.PlanConfig {
	pc := partition.DefaultPlanConfig()
	pc.MaxShardNodes, pc.MinCutNodes = sc.MaxShardNodes, sc.MinCutNodes
	return pc
}

// serverConfig is what an operator runs: every default, plus the bid set
// the snapshot's precomputed section was built under.
func serverConfig(bids map[string]bool) serve.Config {
	cfg := serve.DefaultServerConfig()
	cfg.BidTerms = bids
	return cfg
}

// BuildStages is one click log → servable snapshot run, split at the
// public call of each layer.
type BuildStages struct {
	Graph, Plan, Run, Write, Open, Preload, FirstAnswer, Total time.Duration
}

// Built is the outcome of one build.
type Built struct {
	Graph     *clickgraph.Graph
	Plan      *partition.Plan
	Result    *core.Result // dropped by callers before any timed read window
	Bids      map[string]bool
	SnapPath  string
	SnapBytes int64
	Stages    BuildStages
}

// BuildSnapshot runs the batch half of the paper's deployment: fold the
// click log into a graph, plan shards, score them, persist the snapshot
// with its precomputed rewrite section, open and preload it, and answer
// one /rewrite from it. The answer is checked against the scores just
// computed, so a build that is fast but wrong fails here.
func BuildSnapshot(log []ingest.Record, sc Scale, path string, workers int) (*Built, error) {
	b := &Built{SnapPath: path}
	start := time.Now()
	lap := func(d *time.Duration, t0 time.Time) time.Time {
		now := time.Now()
		*d = now.Sub(t0)
		return now
	}
	var err error
	t := start
	if b.Graph, err = BuildGraph(log); err != nil {
		return nil, err
	}
	t = lap(&b.Stages.Graph, t)
	if b.Plan, err = partition.BuildPlan(b.Graph, planConfig(sc)); err != nil {
		return nil, err
	}
	t = lap(&b.Stages.Plan, t)
	b.Result, err = core.RunSharded(b.Graph, engineConfig(), b.Plan,
		core.ShardOptions{Workers: workers, RetainShardScores: true})
	if err != nil {
		return nil, err
	}
	t = lap(&b.Stages.Run, t)
	b.Bids = Bids(b.Graph)
	err = serve.WriteSnapshotFileTopK(path, b.Result, serve.TopKOptions{K: serve.DefaultRewriteTopK, BidTerms: b.Bids})
	if err != nil {
		return nil, err
	}
	t = lap(&b.Stages.Write, t)
	snap, err := serve.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	t = lap(&b.Stages.Open, t)
	if err := snap.PreloadAll(); err != nil {
		return nil, err
	}
	t = lap(&b.Stages.Preload, t)
	if err := firstAnswer(snap, b); err != nil {
		return nil, err
	}
	lap(&b.Stages.FirstAnswer, t)
	b.Stages.Total = time.Since(start)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	b.SnapBytes = st.Size()
	return b, nil
}

// firstAnswer serves /rewrite for the graph's first query from a fresh
// server over snap and checks it against the in-memory result.
func firstAnswer(snap *serve.Snapshot, b *Built) error {
	q := b.Graph.Query(0)
	srv := serve.NewServer(snap, serverConfig(b.Bids))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rewrite?q="+url.QueryEscape(q), nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("first /rewrite answered HTTP %d: %s", rec.Code, rec.Body.String())
	}
	got, err := parseAnswers(rec.Body.Bytes())
	if err != nil {
		return err
	}
	for _, a := range got {
		id, ok := b.Graph.QueryID(a.Text)
		if !ok || math.Abs(b.Result.QuerySim(0, id)-a.Score) > 1e-12 {
			return fmt.Errorf("first /rewrite answer %q=%v disagrees with the computed score", a.Text, a.Score)
		}
	}
	return nil
}

// checkExactShards re-scores n exact shards with the monolithic engine on
// their induced subgraph at a fixed iteration count and compares every
// pair to a sharded run of the same graph: the "sharding is exact on whole
// components" contract, to 1e-12. It returns how many shards it compared
// and how many disagreed.
func checkExactShards(b *Built, n int, workers int) (checked, failed int, err error) {
	cfg := engineConfig()
	cfg.Tolerance = 0 // fixed depth on both sides: per-shard early stop is a documented deviation
	mask := make([]bool, len(b.Plan.Shards))
	var picked []int
	step := len(b.Plan.Shards)/n + 1
	for i := 0; i < len(b.Plan.Shards) && len(picked) < n; i += step {
		for j := i; j < len(b.Plan.Shards); j++ {
			if b.Plan.Shards[j].Exact && !mask[j] {
				mask[j] = true
				picked = append(picked, j)
				break
			}
		}
	}
	res, err := core.RunSharded(b.Graph, cfg, b.Plan, core.ShardOptions{Workers: workers, RunShards: mask})
	if err != nil {
		return 0, 0, err
	}
	for _, si := range picked {
		sh := b.Plan.Shards[si]
		sub := b.Graph.InducedSubgraph(sh.Queries, sh.Ads)
		mono, err := core.Run(sub, cfg)
		if err != nil {
			return checked, failed, err
		}
		checked++
		bad := false
		for i := 0; i < sub.NumQueries() && !bad; i++ {
			gi, _ := b.Graph.QueryID(sub.Query(i))
			for j := i + 1; j < sub.NumQueries(); j++ {
				gj, _ := b.Graph.QueryID(sub.Query(j))
				if math.Abs(mono.QuerySim(i, j)-res.QuerySim(gi, gj)) > 1e-12 {
					bad = true
					break
				}
			}
		}
		if bad {
			failed++
		}
	}
	return checked, failed, nil
}

// heapMB reports the live Go heap after a collection.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
