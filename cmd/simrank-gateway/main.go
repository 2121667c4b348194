// Command simrank-gateway fronts a replicated simrankd fleet: one
// address for /rewrite, /similar and /stats, fanned across N replicas
// with health-aware, generation-consistent routing. It closes the loop on
// the paper's production deployment: a refresh (simrank -refresh or a
// simrankd -wal fold) writes generations, a replicated fleet serves them,
// and this gateway keeps the fleet looking like one consistent daemon
// while replicas fail, straggle and roll between generations.
//
// # Usage
//
//	simrank-gateway -backends URL[#SHARDS][,URL...] [-addr :8090]
//	                [-snapshot FILE] [-quorum 0.51] [-timeout 5s]
//
// Each backend is a simrankd base URL, optionally suffixed with
// "#0,3,7" naming the shards a partitioned replica holds (hot shards
// may be listed on several replicas). -snapshot points at the served
// snapshot file; the gateway reads only its route map (header +
// directory, no scores) to route shard-affine. Without it, any replica
// may answer any query.
//
// # Endpoints
//
//	GET /rewrite?...   proxied to the fleet (backend contract unchanged)
//	GET /similar?...   proxied to the fleet
//	POST /batch        relayed as one sub-batch per distinct replica candidate list, merged in order
//	GET /stats         gateway counters, rollout state, per-backend health
//	GET /readyz        ok / degraded / unready (503) for the fleet as a whole
//	GET /healthz       gateway process liveness
//
// # Behavior
//
// The gateway probes each replica's /readyz on a jittered interval and
// routes reads only to replicas serving the pinned snapshot generation:
// rollouts cut over once a -quorum fraction of replicas report the new
// generation, so clients never see mixed-generation answers while a
// SIGHUP sweep walks the fleet. Failed reads retry on another replica
// with capped equal-jitter backoff (honoring backend Retry-After
// hints), reads straggling past the fleet's recent latency percentile
// are hedged to a second replica, and replicas failing consecutively
// are circuit-broken for a cool-down. None of that is tunable: the
// values are constants of internal/route, listed in OPERATIONS.md.
// With no replica able to answer,
// the gateway returns 503 + Retry-After. On SIGINT/SIGTERM it stops
// probing, then relays the reads it has accepted to their end (5 s at
// most, nonzero exit past that; internal/daemon) before exiting. The
// operational runbook is the "Replicated serving" section of
// OPERATIONS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"simrankpp/internal/daemon"
	"simrankpp/internal/route"
	"simrankpp/internal/serve"
)

func main() {
	var (
		backends = flag.String("backends", "", "comma-separated simrankd base URLs, each optionally '#shard,shard' suffixed (required)")
		addr     = flag.String("addr", ":8090", "listen address")
		snapPath = flag.String("snapshot", "", "served snapshot file; enables shard-affine routing via its route map")
		quorum   = flag.Float64("quorum", 0.51, "fraction of replicas that must report a new generation before cutover")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-read deadline, hedges and retries included")
	)
	flag.Parse()
	if *backends == "" {
		fatal(fmt.Errorf("-backends is required"))
	}
	if !(*quorum > 0 && *quorum <= 1) {
		fatal(fmt.Errorf("-quorum %g: give a fraction of the replicas in (0, 1]", *quorum))
	}
	if *timeout <= 0 {
		fatal(fmt.Errorf("-timeout %s: give a positive per-read deadline", *timeout))
	}
	specs, err := route.ParseBackendList(*backends)
	if err != nil {
		fatal(err)
	}

	opt := route.Options{
		Backends:       specs,
		Quorum:         *quorum,
		RequestTimeout: *timeout,
		Logf:           log.Printf,
	}
	if *snapPath != "" {
		snap, err := serve.OpenSnapshot(*snapPath)
		if err != nil {
			fatal(fmt.Errorf("-snapshot: %w", err))
		}
		defer snap.Close()
		opt.Router = snap
		log.Printf("simrank-gateway: shard-affine over %d shards (%s)", snap.NumShards(), *snapPath)
	}
	gw, err := route.New(opt)
	if err != nil {
		fatal(err)
	}

	// One sweep before the listener opens, so the first read already
	// finds a pinned generation; daemon.Main keeps probing beside it.
	gw.ProbeAll(context.Background())
	if pin := gw.Pinned(); pin != "" {
		log.Printf("simrank-gateway: %d backends, pinned generation %s", len(specs), pin)
	} else {
		log.Printf("simrank-gateway: %d backends, no serveable replica yet (degraded until one probes healthy)", len(specs))
	}
	log.Printf("simrank-gateway: serving on %s", *addr)
	daemon.Main(daemon.Spec{
		Name:       "simrank-gateway",
		Addr:       *addr,
		Handler:    gw.Handler(),
		Background: gw.Run,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simrank-gateway:", err)
	os.Exit(1)
}
