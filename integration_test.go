package simrankpp_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/eval"
	"simrankpp/internal/judge"
	"simrankpp/internal/partition"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
	"simrankpp/internal/sparse"
	"simrankpp/internal/sponsored"
	"simrankpp/internal/workload"
)

// TestEndToEndPipeline drives the whole system the way the binaries do:
// generate a log, serialize and reload the graph, extract subgraphs,
// compute similarities (monolithic, sharded, and from a persisted snapshot),
// run the rewriting pipeline, and grade with the oracle — asserting
// cross-module consistency at every hop.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Universe + simulated log.
	ucfg := workload.DefaultUniverseConfig()
	ucfg.Categories = 5
	ucfg.SubtopicsPerCategory = 4
	ucfg.IntentsPerSubtopic = 4
	u, err := workload.BuildUniverse(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := sponsored.DefaultConfig()
	scfg.Sessions = 80000
	log, err := sponsored.Simulate(u, scfg)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Graph round trip through the text format (cmd/clickgen ↔
	//    cmd/simrank handshake).
	var buf bytes.Buffer
	if err := clickgraph.Write(&buf, log.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := clickgraph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != log.Graph.NumEdges() || g.NumQueries() != log.Graph.NumQueries() {
		t.Fatalf("graph round trip lost data: %d/%d edges, %d/%d queries",
			g.NumEdges(), log.Graph.NumEdges(), g.NumQueries(), log.Graph.NumQueries())
	}

	// 3. Subgraph extraction covers disjoint node sets (cmd/partition).
	subs, err := partition.Extract(g, 3, partition.DefaultPPRConfig(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) == 0 {
		t.Fatal("no subgraphs extracted")
	}

	// 4. Similarity three ways: monolithic, sharded four workers wide, and
	//    both persisted as snapshots and reopened must agree.
	cfg := core.DefaultConfig().WithVariant(core.Weighted)
	cfg.PruneEpsilon = 1e-6
	serial, err := core.Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.RunSharded(g, cfg, partition.ComponentPlan(g), core.ShardOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot is written from shard scores: the monolithic one from
	// partition.WholePlan's single shard.
	whole, err := core.RunSharded(g, cfg, partition.WholePlan(g), core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	persist := func(name string, res *core.Result) *serve.Snapshot {
		path := filepath.Join(t.TempDir(), name)
		if err := serve.WriteSnapshotFileTopK(path, res, serve.TopKOptions{K: serve.DefaultRewriteTopK}); err != nil {
			t.Fatal(err)
		}
		snap, err := serve.OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		return snap
	}
	loaded, loadedPar := persist("whole.snap", whole), persist("sharded.snap", par)
	// Every node's full ranked list, on both sides, is the same from all
	// four: every stored pair sits in both partners' lists, so no score
	// goes unchecked. A component plan replays the monolithic arithmetic,
	// so the sharded run matches bit for bit.
	for _, side := range []struct {
		n   int
		top func(serve.ScoreIndex, int, int) []sparse.Scored
	}{{g.NumQueries(), serve.ScoreIndex.TopRewrites}, {g.NumAds(), serve.ScoreIndex.TopSimilarAds}} {
		for v := 0; v < side.n; v++ {
			want := side.top(serial, v, -1)
			for name, idx := range map[string]serve.ScoreIndex{"sharded": par, "persisted": loaded, "persisted sharded": loadedPar} {
				if got := side.top(idx, v, -1); !slices.Equal(got, want) {
					t.Fatalf("%s: node %d ranks %v, monolithic %v", name, v, got, want)
				}
			}
		}
	}
	if serial.QueryScores.Len() == 0 {
		t.Fatal("no query pairs scored")
	}

	// 5. Rewriting pipeline + editorial grading: rewrites must be
	//    bid-filtered, stem-distinct, depth-capped, and gradeable.
	pipe := rewrite.NewPipeline(g, log.BidTerms)
	src := &rewrite.ResultSource{Index: loaded}
	oracle := judge.New(u)
	sample := []int{}
	for q := 0; q < g.NumQueries() && len(sample) < 25; q += 7 {
		sample = append(sample, q)
	}
	var judged []eval.QueryJudgments
	for _, q := range sample {
		cands, err := pipe.Rewrite(src, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) > 5 {
			t.Fatalf("depth cap violated: %d rewrites", len(cands))
		}
		qj := eval.QueryJudgments{Query: g.Query(q)}
		for _, c := range cands {
			if !log.BidTerms[c.Text] {
				t.Fatalf("unbid rewrite %q survived filtering", c.Text)
			}
			grade := oracle.Grade(qj.Query, c.Text)
			if grade < judge.GradePrecise || grade > judge.GradeMismatch {
				t.Fatalf("grade %d out of range", grade)
			}
			qj.Rewrites = append(qj.Rewrites, eval.Judged{Text: c.Text, Grade: grade})
		}
		judged = append(judged, qj)
	}

	// 6. Metrics must be computable and sane on the graded output.
	cov := eval.Coverage(judged)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage %v out of range", cov)
	}
	pax := eval.PrecisionAtX(judged, 5, 2)
	for x, p := range pax {
		if p < 0 || p > 1 {
			t.Fatalf("P@%d = %v out of range", x+1, p)
		}
	}
}
