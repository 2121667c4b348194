// Command simrank-worker is the fleet side of a distributed refresh: a
// stateless HTTP server that executes refresh-shard leases from a
// simrank -refresh -workers coordinator. Each lease carries one dirty
// shard's subgraph, warm-start scores, and engine configuration; the
// worker runs one engine over it and answers the CRC'd encoded segment
// bytes. Workers hold no snapshot, no journal, and no graph of their
// own — killing one mid-lease costs only that lease's re-dispatch, and
// SIGTERM lets running leases answer (5 s at most; internal/daemon)
// before the worker exits 0.
//
// Usage:
//
//	simrank-worker [-addr :9090] [-shard-workers 0]
//	               [-max-lease-mb 1024]
//
// Endpoints: POST /refresh-shard (the lease protocol) and GET /healthz
// (liveness). See OPERATIONS.md, "Fleet refresh".
package main

import (
	"flag"
	"fmt"
	"os"

	"simrankpp/internal/daemon"
	"simrankpp/internal/dist"
)

func main() {
	var (
		addr       = flag.String("addr", ":9090", "listen address")
		engWorkers = flag.Int("shard-workers", 0, "engine row-parallelism per lease (0 = GOMAXPROCS)")
		maxLeaseMB = flag.Int64("max-lease-mb", 1024, "largest accepted lease body, in MiB")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "simrank-worker: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	w := &dist.Worker{Workers: *engWorkers, MaxLeaseBytes: *maxLeaseMB << 20}
	fmt.Fprintf(os.Stderr, "simrank-worker: serving /refresh-shard on %s\n", *addr)
	daemon.Main(daemon.Spec{Name: "simrank-worker", Addr: *addr, Handler: w.Handler()})
}
