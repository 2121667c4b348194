package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"simrankpp/internal/ingest"
	"simrankpp/internal/route"
	"simrankpp/internal/serve"
)

const replicas = 2

// Stack is the deployment under test, inside the harness process but
// talking over real loopback sockets: two simrankd-shaped replicas, one
// gateway routing shard-affinely over them and, on the write workload,
// one ingest controller behind an /ingest handler.
type Stack struct {
	Servers    []*serve.Server
	ReplicaURL []string
	Gateway    *route.Gateway
	GatewayURL string
	Router     *serve.Snapshot
	Controller *ingest.Controller
	IngestURL  string
	// RefURL answers every request with a constant: the reference round
	// trip that timed read windows are paired with (workloads.go).
	RefURL string

	// onIngestCall, when set (traced run), sees every Controller.Ingest
	// call the /ingest handler makes.
	onIngestCall func(start time.Time, d time.Duration)

	httpSrvs []*http.Server
	stops    []func()
}

// stackOptions are the seams the traced run uses; all nil untraced.
type stackOptions struct {
	wrapReplica func(http.Handler) http.Handler
	wrapGateway func(http.Handler) http.Handler
	transport   func(http.RoundTripper) http.RoundTripper
}

// listen serves h on an ephemeral loopback port.
func (s *Stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.httpSrvs = append(s.httpSrvs, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// openReplicaIndex is simrankd's open path with -preload: the benchmark's
// uniform workloads touch every segment, and paying 600 lazy CRC checks
// inside a timed window would measure start-up, not serving.
func openReplicaIndex(path string) (serve.ScoreIndex, error) {
	snap, err := serve.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err := snap.PreloadAll(); err != nil {
		snap.Close()
		return nil, err
	}
	return snap, nil
}

func closeIndex(idx serve.ScoreIndex) {
	if c, ok := idx.(*serve.Snapshot); ok {
		c.Close()
	}
}

// BootStack stands up replicas and gateway over the snapshot at path.
func BootStack(path string, bids map[string]bool, opt stackOptions) (*Stack, error) {
	s := &Stack{}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	var specs []route.BackendSpec
	for i := 0; i < replicas; i++ {
		idx, err := openReplicaIndex(path)
		if err != nil {
			return nil, err
		}
		srv := serve.NewServer(idx, serverConfig(bids))
		s.Servers = append(s.Servers, srv)
		s.stops = append(s.stops, func() { closeIndex(srv.Index()) })
		h := srv.Handler()
		if opt.wrapReplica != nil {
			h = opt.wrapReplica(h)
		}
		u, err := s.listen(h)
		if err != nil {
			return nil, err
		}
		s.ReplicaURL = append(s.ReplicaURL, u)
		specs = append(specs, route.BackendSpec{URL: u})
	}
	var err error
	if s.Router, err = serve.OpenSnapshot(path); err != nil {
		return nil, err
	}
	s.stops = append(s.stops, func() { s.Router.Close() })
	// The gateway gets a transport of its own (http.DefaultTransport's
	// settings) so closing it at teardown cannot touch anyone else's.
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	s.stops = append(s.stops, rt.(*http.Transport).CloseIdleConnections)
	if opt.transport != nil {
		rt = opt.transport(rt)
	}
	s.Gateway, err = route.New(route.Options{Backends: specs, Router: s.Router, Transport: rt})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Gateway.ProbeAll(ctx)
	var probing sync.WaitGroup
	probing.Add(1)
	go func() { defer probing.Done(); s.Gateway.Run(ctx) }()
	s.stops = append(s.stops, func() { cancel(); probing.Wait() })
	if s.Gateway.Pinned() == "" {
		return nil, errors.New("gateway pinned no generation after the first probe sweep")
	}
	h := s.Gateway.Handler()
	if opt.wrapGateway != nil {
		h = opt.wrapGateway(h)
	}
	if s.GatewayURL, err = s.listen(h); err != nil {
		return nil, err
	}
	s.RefURL, err = s.listen(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{\"ok\":true}\n")) // a failed write shows as the client's failed round trip
	}))
	if err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// Ref is the reference round trip as a prepared request.
func (s *Stack) Ref() *request {
	return &request{method: http.MethodGet, url: s.RefURL + "/ref"}
}

// StartIngest adds the write path: an ingest controller over the serving
// snapshot whose every published generation is hot-swapped into both
// replicas, the way simrank-ingestd reloads its one server. onReloaded
// runs after both swaps with the generation and the fold cursor it covers.
func (s *Stack) StartIngest(cfg ingest.Config, onReloaded func(gen *serve.Generation, cursor uint64, reload time.Duration)) error {
	cfg.WALDir = filepath.Join(filepath.Dir(cfg.SnapshotPath), "wal")
	cfg.OnPublish = func(gen *serve.Generation) {
		cursor := s.Controller.Stats().FoldCursor
		t0 := time.Now()
		for _, srv := range s.Servers {
			// A failed reload keeps the old index serving; the freshness
			// check then fails, which is where it is counted.
			_ = srv.Reload(func() (serve.ScoreIndex, error) {
				idx, err := serve.OpenSnapshot(gen.SnapPath)
				if err == nil {
					srv.SetGenerationID(gen.ID)
				}
				return idx, err
			}, nil, closeIndex, nil)
		}
		if onReloaded != nil {
			onReloaded(gen, cursor, time.Since(t0))
		}
	}
	ctl, err := ingest.NewController(cfg)
	if err != nil {
		return err
	}
	s.Controller = ctl
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); ctl.Run(ctx) }()
	s.stops = append(s.stops, func() { cancel(); <-done; ctl.Close() })

	// This handler mirrors the /ingest handler of cmd/simrank-ingestd
	// (main.go, "mux.HandleFunc("/ingest", ...)"), which lives in package
	// main and cannot be imported. When a shared daemon skeleton exports
	// it, use that one here instead.
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		recs, err := ingest.ReadRecords(http.MaxBytesReader(w, r.Body, 32<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t0 := time.Now()
		n, err := ctl.Ingest(recs)
		if s.onIngestCall != nil {
			s.onIngestCall(t0, time.Since(t0))
		}
		if err != nil {
			if errors.Is(err, ingest.ErrBackpressure) {
				w.Header().Set("Retry-After", strconv.Itoa(int(cfg.Cadence.Seconds())+1))
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"accepted\":%d}\n", n)
	})
	s.IngestURL, err = s.listen(mux)
	return err
}

// Close stops every goroutine and listener the stack started and waits
// for them.
func (s *Stack) Close() {
	for _, hs := range s.httpSrvs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
	}
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.httpSrvs, s.stops = nil, nil
}
