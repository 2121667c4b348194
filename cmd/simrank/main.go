// Command simrank computes query rewrites from a click graph file: the
// front-end of Figure 2 as a batch tool.
//
// Usage:
//
//	simrank -graph FILE [-method simple|evidence|weighted|pearson]
//	        [-query Q | -all] [-top K] [-c 0.8] [-iterations 7]
//	        [-bids FILE] [-strict-evidence]
//	        [-sharded] [-shard-max-nodes 4096] [-shard-workers 0]
//	        [-save SNAPSHOT]
//	simrank -graph FILE -refresh SNAPSHOT [-bids FILE] [-shard-workers 0]
//	simrank -rollback SNAPSHOT
//	simrank -load SNAPSHOT [-query Q | -all] [-top K] [-bids FILE]
//
// Each of these modes refuses a flag it does not use (exit 1, naming the
// flag) instead of ignoring it; so does the chosen -method: pearson runs
// no SimRank engine (no -c, -iterations, -prune, -strict-evidence, -save
// or -sharded flags), and simple weighs no evidence (no -strict-evidence).
//
// With -query it prints rewrites for one query; with -all it prints the
// top rewrites for every query. When -bids is given, rewrites are passed
// through the full §9.3 pipeline (stem dedup + bid filtering + depth 5).
//
// With -sharded, the graph is decomposed per §9.2 (whole components
// packed under the node budget, oversized components ACL-cut) and one
// engine runs per shard on a bounded worker pool; the plan summary goes
// to stderr before the run. Component-exact plans reproduce the
// monolithic scores bit for bit; carved plans drop cross-shard evidence.
// The decomposition is saved only inside the snapshot (its route map and
// shard directory), which is what -refresh plans from; cmd/partition -plan
// prints a plan without running an engine.
//
// With -save, the computed scores are also written as a binary snapshot
// of per-shard segments (one shard without -sharded) that cmd/simrankd
// serves online,
// with the §9.3 rewrite list of every query precomputed under -bids to
// depth 100 (serve.DefaultRewriteTopK, the candidate pool): what simrankd
// answers /rewrite from. With -load, rewrites are answered straight from
// such a snapshot — no graph file and no engine run, the batch/online
// split of Figure 2.
//
// With -refresh, the new graph is diffed against the snapshot (shard
// fingerprints in its directory; no BuildPlan runs), only the changed
// shards are recomputed — from scratch, under the engine settings
// recorded in the snapshot header, so the result is what a full build
// over the same shards would write, outside the header — and the next
// snapshot is written by byte-copying every clean shard's segments from
// the previous file. It replaces the snapshot in place (atomic rename),
// which a running simrankd picks up on SIGHUP; when no shard changed,
// nothing is written. The dirty shards run in this process, one engine
// per shard on a pool of -shard-workers; the bytes written do not depend
// on the width.
//
// Every refresh is journaled as a numbered generation beside the
// snapshot (SNAPSHOT.gens/: snapshot bytes + CRC'd manifest recording
// the generation id, source-graph fingerprint and whole-file hash), the
// last three of them retained. A refresh that fails — or a process
// killed at any instant — leaves the previous generation intact and the
// serving file untouched; a serving file that no longer opens is
// restored from the last good generation before the refresh starts, and
// a crash's debris is swept by the next refresh. -rollback re-points a
// serving snapshot at the last good generation before the current one
// (the operator's escape hatch after a bad refresh); a SIGHUP to
// simrankd then serves it. See OPERATIONS.md for the full procedures.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/partition"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "click graph file (required)")
		method    = flag.String("method", "weighted", "simple|evidence|weighted|pearson")
		query     = flag.String("query", "", "single query to rewrite")
		all       = flag.Bool("all", false, "rewrite every query in the graph")
		top       = flag.Int("top", 5, "rewrites to print per query")
		c         = flag.Float64("c", 0.8, "SimRank decay factor (C1 = C2)")
		iters     = flag.Int("iterations", 7, "SimRank depth k: query scores are the k-th iterate, ad scores the (k+1)-th, computed in k+1 passes")
		prune     = flag.Float64("prune", 1e-5, "sparse-engine pruning threshold (0 = exact)")
		bidsPath  = flag.String("bids", "", "bid-term list file enabling the full filtering pipeline")
		strict    = flag.Bool("strict-evidence", false, "apply Equation 7.3 literally (zero evidence for no common ads)")
		sharded   = flag.Bool("sharded", false, "decompose the graph and run one engine per shard")
		shardMax  = flag.Int("shard-max-nodes", 4096, "sharded: shard node budget (components above it are ACL-cut)")
		shardWork = flag.Int("shard-workers", 0, "-sharded build or -refresh: concurrent shard engines (0 = GOMAXPROCS)")
		savePath  = flag.String("save", "", "write the computed scores as a serving snapshot")
		loadPath  = flag.String("load", "", "answer from a snapshot instead of running an engine (-graph not needed)")
		refresh   = flag.String("refresh", "", "incrementally refresh this snapshot against -graph (recompute dirty shards only)")
		rollback  = flag.String("rollback", "", "re-point this serving snapshot at the last good journaled generation")
	)
	flag.Parse()
	// Each mode reads the flags it lists; any other flag on the command
	// line is refused rather than ignored.
	const build = "graph method query all top c iterations prune bids strict-evidence save"
	mode, uses := "by a build without -sharded", build
	switch {
	case *rollback != "":
		mode, uses = "with -rollback", "rollback"
	case *refresh != "":
		// Clean shards' scores were computed under the engine settings the
		// previous snapshot records, so dirty shards must be too.
		mode, uses = "with -refresh, which reuses the engine settings the snapshot records (start a fresh -save to change them)",
			"refresh graph bids shard-workers"
	case *loadPath != "":
		mode, uses = "with -load, which answers from the snapshot as saved", "load query all top bids"
	case *method == "pearson":
		mode, uses = "with -method pearson, which runs no SimRank engine", "graph method query all top bids"
	case *sharded:
		mode, uses = "by a -sharded build", build+" sharded shard-max-nodes shard-workers"
	}
	if *method == "simple" && strings.Contains(uses, " strict-evidence") {
		mode, uses = "with -method simple, which weighs no evidence", strings.Replace(uses, " strict-evidence", "", 1)
	}
	var stray []string
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(uses), f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		fatal(fmt.Errorf("%s not used %s", strings.Join(stray, ", "), mode))
	}
	if *top < 1 {
		fatal(fmt.Errorf("-top %d: print at least one rewrite per query", *top))
	}
	if *shardWork < 0 {
		fatal(fmt.Errorf("-shard-workers %d: give a positive width, or 0 for GOMAXPROCS", *shardWork))
	}

	if *rollback != "" {
		if err := runRollback(*rollback); err != nil {
			fatal(err)
		}
		return
	}
	if *refresh != "" {
		if *graphPath == "" {
			fatal(fmt.Errorf("-refresh needs -graph (the new click log)"))
		}
		// The previous snapshot records the bid-term set its precomputed
		// rewrite lists were filtered under; the refresh must rebuild dirty
		// shards' lists with the same set, so -bids here must restate it.
		var refreshBids map[string]bool
		if *bidsPath != "" {
			var err error
			refreshBids, err = rewrite.ReadBidTermsFile(*bidsPath)
			if err != nil {
				fatal(err)
			}
		}
		if err := runRefresh(*graphPath, *refresh, *shardWork, refreshBids); err != nil {
			fatal(err)
		}
		return
	}
	if *loadPath == "" && *graphPath == "" {
		fatal(fmt.Errorf("-graph is required (or -load a snapshot)"))
	}
	if !*all && *query == "" && *savePath == "" {
		fatal(fmt.Errorf("give -query or -all (or just -save)"))
	}

	var bidTerms map[string]bool
	var err error
	if *bidsPath != "" {
		bidTerms, err = rewrite.ReadBidTermsFile(*bidsPath)
		if err != nil {
			fatal(err)
		}
	}

	// The serving surface: a snapshot or a fresh engine run, behind the
	// same ScoreIndex interface the pipeline consumes.
	var src rewrite.Source
	var names interface {
		rewrite.QueryNames
		QueryID(string) (int, bool)
	}
	if *loadPath != "" {
		snap, err := serve.OpenSnapshot(*loadPath)
		if err != nil {
			fatal(err)
		}
		defer snap.Close()
		src = &rewrite.ResultSource{Index: snap}
		names = snap
	} else {
		g, err := clickgraph.ReadFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		src, err = buildSource(g, *method, *c, *iters, *prune, *strict, *sharded, *shardMax, *shardWork, *savePath, bidTerms)
		if err != nil {
			fatal(err)
		}
		names = g
	}

	if *query == "" && !*all {
		return // -save only: snapshot written by buildSource
	}
	pipe := rewrite.NewPipeline(names, bidTerms)
	pipe.MaxRewrites = *top

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	printFor := func(qid int) error {
		cands, err := pipe.Rewrite(src, qid)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", names.Query(qid))
		for i, cand := range cands {
			fmt.Fprintf(out, "  %d. %-40s %.6f\n", i+1, cand.Text, cand.Score)
		}
		return nil
	}
	if *all {
		for qid := 0; qid < names.NumQueries(); qid++ {
			if err := printFor(qid); err != nil {
				fatal(err)
			}
		}
		return
	}
	qid, ok := names.QueryID(*query)
	if !ok {
		fatal(fmt.Errorf("query %q not in index", *query))
	}
	if err := printFor(qid); err != nil {
		fatal(err)
	}
}

// runRefresh is the -refresh path: one serve.Refresh of the snapshot at
// path against the new graph, its dirty shards recomputed on a pool of
// the given width. serve.Refresh owns the transaction (restore, adopt,
// diff, run, commit, publish); this takes the journal lock, reports, and
// prunes old generations.
func runRefresh(graphPath, path string, workers int, bids map[string]bool) error {
	gs := serve.NewGenerationStore(path)
	// One journal writer at a time: a concurrent -refresh or a running
	// ingest controller holds the advisory lock, and interleaving
	// generation writes with it would corrupt the journal's ordering.
	release, swept, err := gs.Lock()
	if err != nil {
		return err
	}
	defer release()
	if swept > 0 {
		fmt.Fprintf(os.Stderr, "simrank: swept %d stale journal file(s) from an interrupted refresh\n", swept)
	}
	g, err := clickgraph.ReadFile(graphPath)
	if err != nil {
		return err
	}
	res, err := serve.Refresh(context.Background(), gs, g, workers, bids, nil)
	if res.Restored != nil {
		fmt.Fprintf(os.Stderr, "simrank: %s did not open; restored generation %d\n", path, res.Restored.ID)
	}
	if diff := res.Diff; diff != nil {
		// The projected plan inherits the previous decomposition and only
		// grows (new nodes adopt a neighbor's shard, nothing is ever split),
		// so surface the largest shard: when it drifts well past the budget
		// the plan was built with, it is time to re-plan with a fresh -save.
		largest := 0
		for i := range diff.Plan.Shards {
			largest = max(largest, diff.Plan.Shards[i].Nodes())
		}
		fmt.Fprintf(os.Stderr, "simrank: refresh diff: %d clean, %d dirty of %d shards (largest %d nodes); %d new, %d moved nodes\n",
			diff.CleanShards, diff.DirtyShards, len(diff.Plan.Shards), largest,
			diff.NewQueries+diff.NewAds, diff.MovedQueries+diff.MovedAds)
	}
	if err != nil {
		return err
	}
	if st := res.Stats; res.Published == nil {
		fmt.Fprintf(os.Stderr, "simrank: no shard changed; %s left as it was\n", path)
	} else {
		fmt.Fprintf(os.Stderr, "simrank: wrote snapshot %s (re-encoded %d KiB over %d dirty shards, byte-copied %d KiB over %d clean)\n",
			path, st.BytesReencoded/1024, st.DirtyShards, st.BytesCopied/1024, st.CleanShards)
	}
	if pruned, err := gs.Prune(); err != nil {
		return err
	} else if pruned > 0 {
		fmt.Fprintf(os.Stderr, "simrank: pruned %d old generation(s)\n", pruned)
	}
	return nil
}

// runRollback is the -rollback path: re-point the serving snapshot at
// the last good journaled generation before the current one.
func runRollback(path string) error {
	gs := serve.NewGenerationStore(path)
	release, swept, err := gs.Lock()
	if err != nil {
		return err
	}
	defer release()
	if swept > 0 {
		fmt.Fprintf(os.Stderr, "simrank: swept %d stale journal file(s)\n", swept)
	}
	gen, err := gs.Rollback()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simrank: rolled %s back to generation %d (created %s, fingerprint %016x); SIGHUP simrankd to serve it\n",
		path, gen.ID, gen.CreatedAt.Format("2006-01-02T15:04:05Z"), gen.Fingerprint)
	return nil
}

func buildSource(g *clickgraph.Graph, method string, c float64, iters int, prune float64, strict, sharded bool, shardMax, shardWorkers int, savePath string, bids map[string]bool) (rewrite.Source, error) {
	if method == "pearson" {
		return &rewrite.PearsonSource{Graph: g, Channel: core.ChannelRate}, nil
	}
	cfg := core.DefaultConfig()
	cfg.C1, cfg.C2 = c, c
	cfg.Iterations = iters
	cfg.PruneEpsilon = prune
	cfg.StrictEvidence = strict
	switch method {
	case "simple":
		cfg.Variant = core.Simple
	case "evidence":
		cfg.Variant = core.Evidence
	case "weighted":
		cfg.Variant = core.Weighted
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
	// Without -sharded the graph is one shard: the monolithic run, as a
	// plan the snapshot writer takes like any other.
	plan := partition.WholePlan(g)
	if sharded {
		pcfg := partition.DefaultPlanConfig()
		pcfg.MaxShardNodes = shardMax
		var err error
		if plan, err = partition.BuildPlan(g, pcfg); err != nil {
			return nil, err
		}
		if err := plan.WriteSummary(os.Stderr); err != nil {
			return nil, err
		}
	}
	res, err := core.RunSharded(g, cfg, plan, core.ShardOptions{Workers: shardWorkers})
	if err != nil {
		return nil, err
	}
	if savePath != "" {
		// The snapshot's precomputed rewrite lists are filtered under the
		// same -bids set that this process prints with; a simrankd serves
		// the file only under that bid list.
		if err := serve.WriteSnapshotFileTopK(savePath, res, serve.TopKOptions{K: serve.DefaultRewriteTopK, BidTerms: bids}); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "simrank: wrote snapshot %s (%d shards)\n", savePath, len(plan.Shards))
	}
	return &rewrite.ResultSource{Index: res}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrank:", err)
	os.Exit(1)
}
