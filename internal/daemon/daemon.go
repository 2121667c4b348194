// Package daemon is the one process lifecycle of the two long-running
// commands (simrankd, with or without -wal; simrank-gateway).
// A command parses its flags, builds its handler and hands over a Spec;
// the rest happens here, in the one order that loses nothing:
//
//	listen → serve → SIGINT/SIGTERM (or the listener fails) →
//	cancel the background loop and wait for it →
//	http.Server.Shutdown under the drain deadline → run the closer
//
// The background loop stops first, so nothing new is started for a
// process that is leaving; the drain answers every request the listener
// accepted; the closer runs last, so what handlers write to (the ingest
// WAL) outlives the last of them. A drain that outlasts its deadline is
// an error counting the requests abandoned, and a nonzero exit.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// drainDeadline is how long a stopping daemon waits for the requests it
// has accepted. Not a flag: every daemon has always used 5 s.
var drainDeadline = 5 * time.Second

// Spec is what a command hands over once its flags are parsed.
type Spec struct {
	Name    string       // prefixes the error Main prints
	Addr    string       // TCP listen address
	Handler http.Handler // answers every request
	// Background, when set, runs beside the listener until its context
	// is cancelled; it is cancelled and awaited before the drain starts.
	Background func(ctx context.Context)
	// Reload, when set, runs once per SIGHUP, one at a time.
	Reload func()
	// Close, when set, runs after the last handler has returned.
	Close func() error
}

// Main runs spec until SIGINT or SIGTERM and returns after a clean stop;
// on any error it prints "name: error" and exits 1.
func Main(spec Spec) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if spec.Reload != nil {
		defer onSIGHUP(spec.Reload)()
	}
	ln, err := net.Listen("tcp", spec.Addr)
	if err == nil {
		err = Serve(ctx, ln, spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name, err)
		os.Exit(1)
	}
}

// onSIGHUP calls fn once per SIGHUP delivered to the process (those
// raised while fn runs coalesce into one further call) until the returned
// stop function is called; stop waits for a running fn.
func onSIGHUP(fn func()) (stop func()) {
	hup, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		defer close(done)
		for range hup {
			fn()
		}
	}()
	return func() {
		signal.Stop(hup)
		close(hup)
		<-done
	}
}

// Serve answers requests on ln until ctx is cancelled or the listener
// fails, stops in the package's order, and returns the first error: the
// listener's, an expired drain's, or the closer's. Tests drive it on
// loopback without raising signals; spec.Reload is Main's business.
func Serve(ctx context.Context, ln net.Listener, spec Spec) error {
	// Counted here, not asked of the handler, so the expired-drain error
	// means the same on every daemon and covers every endpoint.
	var inflight atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		spec.Handler.ServeHTTP(w, r)
	})}
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()

	bgCtx, stopBackground := context.WithCancel(ctx)
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		if spec.Background != nil {
			spec.Background(bgCtx)
		}
	}()

	var err error
	select {
	case <-ctx.Done():
	case err = <-failed:
	}
	stopBackground()
	<-bgDone

	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainDeadline)
	defer cancel()
	if derr := srv.Shutdown(drainCtx); derr != nil {
		srv.Close()
		if err == nil {
			err = fmt.Errorf("drain deadline (%s) expired with %d requests still in flight: %w",
				drainDeadline, inflight.Load(), derr)
		}
	}
	if spec.Close != nil {
		if cerr := spec.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}
	return err
}
