// Command simrankd is the serving half of the paper's Figure 2 deployment
// split: a long-running HTTP/JSON front-end that answers query-rewrite
// requests from a precomputed SimRank++ snapshot, never touching an
// engine. Scores are computed offline (cmd/simrank -save, optionally
// -sharded) and the daemon routes each query to its shard's score segment,
// loading segments lazily. Nothing is cached: an answer is rendered from
// the snapshot's bytes on every request.
//
// Segments are binary-searched in place, never decoded; on Linux the
// snapshot is memory-mapped, so the scores stay in the page cache (other
// platforms read each segment's bytes into memory). /rewrite answers from
// the snapshot's precomputed top-k rewrite section: the §9.3 lists simrank
// -save filtered once per query, cut at the requested depth. The daemon
// serves only a snapshot whose section was built under its -bids set: it
// exits 1 at start over one that has no section or was built under
// another set (naming -bids), and a reload that opens one keeps the old
// snapshot serving. The section's depth K (100, what simrank -save
// writes) caps every request's top, on /rewrite, /similar and /batch
// alike, and -top may not exceed it.
//
// With -wal DIR the daemon also ingests (internal/ingest): click records
// POSTed to /ingest are fsynced to a write-ahead log in DIR before the 200,
// and a background loop folds them into the click graph, refreshes only
// the dirty shards, publishes the next generation and reloads it. A fold
// is the same journal transaction as simrank -refresh: a serving file
// that no longer opens is first restored from the journal, a fold that
// changes no shard publishes nothing, and the newest three generations
// stay journaled. -graph,
// the snapshot's click graph, is read only while DIR holds no fold state;
// the ingest flags are refused without -wal.
//
// # Usage
//
//	simrankd -snapshot FILE [-addr :8080] [-top 5]
//	         [-bids FILE] [-preload] [-inflight 256] [-timeout 5s]
//	         [-wal DIR [-graph FILE] [-cadence 30s] [-churn N]
//	          [-max-lag N] [-shard-workers N]]
//
// # Endpoints
//
//	GET /rewrite?q=QUERY[&top=K]   filtered rewrites (stem dedup, bid
//	                               filtering when -bids is given, depth K)
//	                               from the snapshot's top-k section
//	GET /similar?q=QUERY[&top=K]   raw ranked similar queries
//	GET /similar?ad=AD[&top=K]     raw ranked similar ads
//	POST /batch                    many rewrite lookups in one request
//	                               ({"queries":[...],"top":K})
//	GET /stats                     serving counters + snapshot metadata
//	GET /healthz                   liveness probe (process up)
//	GET /readyz                    readiness: ok/degraded/unready with
//	                               quarantined-shard detail
//	POST /ingest                   with -wal: click records, one per line
//	                               (query \t ad \t impr \t clicks \t rate)
//
// # Example
//
//	simrank -graph clicks.graph -method weighted -sharded -save scores.snap
//	simrankd -snapshot scores.snap -addr :8080 &
//	curl 'localhost:8080/rewrite?q=camera&top=3'
//
// # Reload
//
// On SIGHUP the daemon re-opens -snapshot (typically after the batch side
// atomically replaced the file — a full `simrank -save` or an incremental
// `simrank -refresh`) and swaps it in without dropping in-flight
// requests. A failed reload keeps the old snapshot serving; when a
// generation journal exists beside the snapshot (simrank -refresh writes
// one), the daemon additionally falls back to the last good journaled
// generation, so a corrupt new file rolls the fleet back instead of
// freezing it on a stale index. /stats reports the loaded generation
// (generated_at, fingerprint, and the dirty-shard count of the refresh
// that produced it), so an operator can verify a SIGHUP actually swapped
// generations. With -wal every published fold reloads the same way.
//
// # Shutdown
//
// SIGINT/SIGTERM closes the listener and gives admitted requests 5 s to
// finish (internal/daemon); any still running then are counted in the
// error and the exit is nonzero. With -wal the fold loop stops first and
// the WAL closes last, so an /ingest accepted before the signal is still
// acknowledged durable. OPERATIONS.md, "Shutdown".
//
// # Fault tolerance
//
// A score segment that fails its CRC on lazy load is quarantined with
// capped exponential backoff while every other shard keeps answering;
// /readyz turns "degraded" (HTTP 200, with the quarantined shards
// listed) and recovers once the fault clears; a quarantined top-k blob
// answers its shard's /rewrite with 500, so a gateway fails those reads
// over. Scoring requests beyond -inflight are shed with 503 + Retry-After
// rather than queued, each admitted request carries the -timeout deadline
// down to the segment load, and a handler panic costs one 500, not the
// daemon; a failing fold
// keeps the last good generation serving, "degraded". Operational
// procedures — generation layout, rollback, ingestion, tuning — are in
// OPERATIONS.md at the repository root.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"simrankpp/internal/daemon"
	"simrankpp/internal/ingest"
	"simrankpp/internal/rewrite"
	"simrankpp/internal/serve"
)

func main() {
	var (
		snapPath  = flag.String("snapshot", "", "snapshot file written by simrank -save (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		top       = flag.Int("top", 5, "default rewrites per query (at most the snapshot's top-k depth)")
		bidsPath  = flag.String("bids", "", "bid-term list file the snapshot's rewrite lists were filtered under")
		preload   = flag.Bool("preload", false, "verify and load every score segment at startup")
		inflight  = flag.Int("inflight", 256, "max concurrent scoring requests before shedding 503 (0 disables)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-request deadline on scoring endpoints (0 disables)")
		walDir    = flag.String("wal", "", "ingest: WAL directory; enables POST /ingest and the fold loop")
		graphPath = flag.String("graph", "", "ingest: base click-graph file (required on first start, before a fold state exists)")
		cadence   = flag.Duration("cadence", 30*time.Second, "ingest: fold interval")
		churn     = flag.Uint64("churn", 0, "ingest: fold early once this many records are pending (0: cadence only)")
		maxLag    = flag.Uint64("max-lag", 0, "ingest: reject /ingest with 503 beyond this WAL lag in records (0: unbounded)")
		shardWork = flag.Int("shard-workers", 0, "ingest: concurrent shard engines per fold (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *snapPath == "" {
		fatal(fmt.Errorf("-snapshot is required"))
	}
	if *top < 1 {
		fatal(fmt.Errorf("-top %d: a bare request must get at least one rewrite", *top))
	}
	if *walDir == "" {
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "graph", "cadence", "churn", "max-lag", "shard-workers":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			fatal(fmt.Errorf("%s configure ingestion: add -wal DIR or drop them", strings.Join(stray, ", ")))
		}
	}
	switch {
	case *inflight < 0:
		fatal(fmt.Errorf("-inflight %d: give a positive limit, or 0 to disable shedding", *inflight))
	case *timeout < 0:
		fatal(fmt.Errorf("-timeout %s: give a positive deadline, or 0 to disable it", *timeout))
	case *cadence <= 0:
		fatal(fmt.Errorf("-cadence %s: give a positive fold interval", *cadence))
	case *shardWork < 0:
		fatal(fmt.Errorf("-shard-workers %d: give a positive width, or 0 for GOMAXPROCS", *shardWork))
	}

	cfg := serve.DefaultServerConfig()
	cfg.DefaultTop = *top
	cfg.MaxInFlight = *inflight
	cfg.RequestTimeout = *timeout
	if *bidsPath != "" {
		terms, err := rewrite.ReadBidTermsFile(*bidsPath)
		if err != nil {
			fatal(err)
		}
		cfg.BidTerms = terms
	}

	snap, genID, err := serve.OpenServing(*snapPath, *preload, cfg.BidTerms, log.Printf)
	if err != nil {
		fatal(err)
	}
	meta := snap.Meta()
	if *top > meta.RewriteTopK {
		fatal(fmt.Errorf("-top %d is deeper than the snapshot's top-k depth %d, every request's cap", *top, meta.RewriteTopK))
	}
	gen := "full build"
	if meta.LastRefreshDirty >= 0 {
		gen = fmt.Sprintf("refresh, %d dirty shards", meta.LastRefreshDirty)
	}
	log.Printf("simrankd: %s: %d queries, %d ads, %d shards, %d+%d pairs (%s, %d iterations; generation %s, %s, fingerprint %s)",
		*snapPath, meta.NumQueries, meta.NumAds, meta.Shards,
		meta.QueryPairs, meta.AdPairs, meta.Variant, meta.Iterations,
		meta.GeneratedAt.Format(time.RFC3339), gen, meta.Fingerprint)

	srv := serve.NewServer(snap, cfg)
	srv.SetGenerationID(genID)
	// A SIGHUP and a published fold both re-open the serving path;
	// ReloadServing runs them one at a time.
	reload := func() error { return srv.ReloadServing(*snapPath, *preload, log.Printf) }
	spec := daemon.Spec{
		Name:    "simrankd",
		Addr:    *addr,
		Handler: srv.Handler(),
		Reload:  func() { _ = reload() }, // logged there; the old index keeps serving
	}
	if *walDir != "" {
		ctl, err := ingest.NewController(ingest.Config{
			WALDir:        *walDir,
			SnapshotPath:  *snapPath,
			GraphPath:     *graphPath,
			Workers:       *shardWork,
			Cadence:       *cadence,
			ChurnRecords:  *churn,
			MaxLagRecords: *maxLag,
			Bids:          cfg.BidTerms,
			Logf:          log.Printf,
			// Publish has just re-pointed the serving path at gen: reload it.
			OnPublish: func(gen *serve.Generation) {
				if err := reload(); err != nil {
					log.Printf("simrankd: generation %d published but reload failed: %v", gen.ID, err)
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		srv.SetIngestStatus(ctl.Status)
		mux := http.NewServeMux()
		mux.Handle("/", spec.Handler)
		mux.Handle("/ingest", ctl.Handler())
		// internal/daemon stops the fold loop, then drains, then closes the WAL.
		spec.Handler = mux
		spec.Background = func(ctx context.Context) { _ = ctl.Run(ctx) } // only ever ctx's own error
		spec.Close = ctl.Close
		log.Printf("simrankd: ingesting into %s (cadence %s)", *walDir, *cadence)
	}
	log.Printf("simrankd: serving on %s", *addr)
	daemon.Main(spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrankd:", err)
	os.Exit(1)
}
