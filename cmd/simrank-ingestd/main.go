// Command simrank-ingestd is the streaming half of the deployment: a
// simrankd-style serving front-end fused with the crash-safe ingestion
// pipeline (internal/ingest). Click observations POSTed to /ingest are
// appended to a CRC-trailered write-ahead log and fsynced before the
// request returns; a background controller folds the WAL into the click
// graph on a cadence (or earlier, past a churn threshold), refreshes
// only the dirty shards of the serving snapshot, publishes the new
// generation through the journal, and hot-swaps it into the serving
// index — no restart, no dropped requests.
//
// # Usage
//
//	simrank-ingestd -snapshot FILE [-graph FILE] [-wal DIR]
//	                [-addr :8081] [-cadence 30s] [-churn N]
//	                [-max-lag N] [-generations 4] [-workers N]
//	                [-bids FILE] [-top 5] [-max-top 100] [-cache 4096]
//
// -graph is required on FIRST start (no fold state yet): it must be the
// click graph the snapshot was built from. Later starts recover the
// graph from the WAL directory's fold state and -graph is ignored.
//
// # Endpoints
//
// All simrankd read endpoints (/rewrite, /similar, /batch, /stats,
// /healthz, /readyz), plus:
//
//	POST /ingest    text click records, one per line:
//	                query \t ad \t impressions \t clicks \t rate
//	                Records are durable (fsynced to the WAL) before the
//	                200 returns. 503 + Retry-After when the WAL is more
//	                than -max-lag records ahead of folding.
//
// # Crash safety and degradation
//
// Kill the process at any instant: acknowledged records are in the WAL,
// and restart replays them onto the fold cursor exactly-once with
// respect to the published generation. A failing refresh keeps the last
// good generation serving while /readyz reports "degraded" and /stats
// gains wal_lag_records / staleness_seconds / refresh_failures gauges;
// folds retry on capped equal-jitter backoff until the fault clears.
// SIGTERM cancels any in-flight fold at a shard boundary (the serving
// snapshot and WAL cursor are left intact), then drains HTTP for up to
// 5 s, then closes the WAL — an /ingest accepted before the signal is
// still acknowledged durable (internal/daemon). See OPERATIONS.md,
// "Continuous ingestion" and "Shutdown".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"simrankpp/internal/daemon"
	"simrankpp/internal/ingest"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
)

func main() {
	var (
		snapPath  = flag.String("snapshot", "", "serving snapshot (simrank -save output; required)")
		graphPath = flag.String("graph", "", "base click-graph file (required on first start, before a fold state exists)")
		walDir    = flag.String("wal", "", "WAL directory (default: <snapshot>.wal)")
		addr      = flag.String("addr", ":8081", "listen address")
		cadence   = flag.Duration("cadence", 30*time.Second, "fold interval")
		churn     = flag.Uint64("churn", 0, "fold early once this many records are pending (0: cadence only)")
		maxLag    = flag.Uint64("max-lag", 0, "reject /ingest with 503 beyond this WAL lag in records (0: unbounded)")
		keepGens  = flag.Int("generations", 4, "journaled generations to retain")
		workers   = flag.Int("workers", 0, "refresh shard workers (0: GOMAXPROCS)")
		bidsPath  = flag.String("bids", "", "bid-term list file (must match the snapshot's precomputed rewrite section)")
		top       = flag.Int("top", 5, "default rewrites per query")
		maxTop    = flag.Int("max-top", 100, "cap on the per-request top parameter")
		cache     = flag.Int("cache", 4096, "hot-query LRU entries (0 disables)")
	)
	flag.Parse()
	if *snapPath == "" {
		fatal(fmt.Errorf("-snapshot is required"))
	}
	if *walDir == "" {
		*walDir = *snapPath + ".wal"
	}

	cfg := serve.DefaultServerConfig()
	cfg.DefaultTop = *top
	cfg.MaxTop = *maxTop
	cfg.CacheSize = *cache
	if *bidsPath != "" {
		terms, err := rewrite.ReadBidTermsFile(*bidsPath)
		if err != nil {
			fatal(err)
		}
		cfg.BidTerms = terms
	}

	snap, genID, err := serve.OpenServing(*snapPath, false, log.Printf)
	if err != nil {
		fatal(err)
	}
	srv := serve.NewServer(snap, cfg)
	srv.SetGenerationID(genID)

	ctl, err := ingest.NewController(ingest.Config{
		WALDir:          *walDir,
		SnapshotPath:    *snapPath,
		GraphPath:       *graphPath,
		Workers:         *workers,
		Cadence:         *cadence,
		ChurnRecords:    *churn,
		MaxLagRecords:   *maxLag,
		KeepGenerations: *keepGens,
		Bids:            cfg.BidTerms,
		Logf:            log.Printf,
		// Publish has just re-pointed the serving path at gen: reload it.
		OnPublish: func(gen *serve.Generation) {
			if err := srv.ReloadServing(*snapPath, false, log.Printf); err != nil {
				log.Printf("simrank-ingestd: generation %d published but reload failed: %v", gen.ID, err)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	srv.SetIngestStatus(ctl.Status)

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/ingest", ctl.Handler())

	log.Printf("simrank-ingestd: serving on %s (wal %s, cadence %s)", *addr, *walDir, *cadence)
	// Shutdown order (internal/daemon): the fold loop stops first (a fold
	// aborts at its next shard boundary; serving bytes and WAL cursor stay
	// intact), then HTTP drains, and only then does the WAL close — every
	// /ingest the listener accepted is acknowledged durable.
	daemon.Main(daemon.Spec{
		Name:       "simrank-ingestd",
		Addr:       *addr,
		Handler:    mux,
		Background: func(ctx context.Context) { _ = ctl.Run(ctx) }, // only ever ctx's own error
		Close:      ctl.Close,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrank-ingestd:", err)
	os.Exit(1)
}
