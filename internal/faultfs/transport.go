// HTTP counterpart of the disk injector: a fault-injecting
// http.RoundTripper for the read gateway's chaos tests. The gateway takes
// any RoundTripper (route.Options.Transport), so — exactly like the
// ReaderAt seam — no production code changes to become testable: tests
// wrap http.DefaultTransport (or a test server's transport), schedule
// faults per replica host, and flip them on and off while reads are in
// flight.
//
// Supported faults, independently togglable at runtime and scoped to a
// host ("host:port") or to every host (""):
//
//   - dropped requests (connection-refused-style error — a dead or
//     unreachable replica)
//   - per-request latency (a straggling replica — the hedging trigger)
//   - truncated response bodies (a connection cut mid-transfer)

package faultfs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// ErrDropped is the transport error a dropped request fails with.
var ErrDropped = fmt.Errorf("faultfs: injected connection failure")

// hostFaults is one host's scheduled faults (or the any-host default).
type hostFaults struct {
	dropLeft int           // requests to drop; -1 = all, 0 = none
	latency  time.Duration // per-request sleep
	truncate int           // >0: cut response bodies to this many bytes
}

// HTTPInjector holds a programmable per-host fault schedule shared by
// every transport wrapped with it. All methods are safe for concurrent
// use with requests in flight.
type HTTPInjector struct {
	mu    sync.Mutex
	hosts map[string]*hostFaults
	calls int64
}

// NewHTTPInjector returns an injector with no faults scheduled.
func NewHTTPInjector() *HTTPInjector {
	return &HTTPInjector{hosts: make(map[string]*hostFaults)}
}

func (in *HTTPInjector) host(h string) *hostFaults {
	f := in.hosts[h]
	if f == nil {
		f = &hostFaults{}
		in.hosts[h] = f
	}
	return f
}

// Drop makes the next n requests to host fail with a connection error
// (host "" = every host). n < 0 drops every request until reset — a
// dead replica; n = 0 cancels the fault.
func (in *HTTPInjector) Drop(host string, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.host(host).dropLeft = n
}

// SetLatency delays every request to host by d before it is sent.
// d <= 0 cancels the fault.
func (in *HTTPInjector) SetLatency(host string, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.host(host).latency = d
}

// TruncateBody cuts every response body from host to n bytes, the
// connection failing with io.ErrUnexpectedEOF beyond them. n <= 0
// cancels the fault.
func (in *HTTPInjector) TruncateBody(host string, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.host(host).truncate = n
}

// Reset clears every scheduled fault (the call counter keeps running).
func (in *HTTPInjector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hosts = make(map[string]*hostFaults)
}

// Calls reports how many requests the injector has intercepted.
func (in *HTTPInjector) Calls() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// httpPlan snapshots the faults applying to one request: the host's own
// schedule merged over the any-host defaults. The drop countdown is
// consumed inside the injector lock; latency and truncation apply outside
// it.
type httpPlan struct {
	drop     bool
	latency  time.Duration
	truncate int
}

func (in *HTTPInjector) planRequest(host string) httpPlan {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	var p httpPlan
	for _, f := range [2]*hostFaults{in.hosts[""], in.hosts[host]} {
		if f == nil {
			continue
		}
		if f.dropLeft != 0 {
			p.drop = true
			if f.dropLeft > 0 {
				f.dropLeft--
			}
		}
		if f.latency > p.latency {
			p.latency = f.latency
		}
		if f.truncate > 0 {
			p.truncate = f.truncate
		}
	}
	return p
}

// transport applies inj's schedule around an inner RoundTripper.
type transport struct {
	inner http.RoundTripper
	inj   *HTTPInjector
}

// Transport returns a RoundTripper serving inner's responses through
// inj's faults. inner nil selects http.DefaultTransport.
func (in *HTTPInjector) Transport(inner http.RoundTripper) http.RoundTripper {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &transport{inner: inner, inj: in}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.inj.planRequest(req.URL.Host)
	if p.latency > 0 {
		select {
		case <-time.After(p.latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if p.drop {
		return nil, ErrDropped
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	if p.truncate > 0 {
		resp.Body = &faultBody{inner: resp.Body, truncate: int64(p.truncate)}
		resp.ContentLength = -1 // body no longer matches the header
	}
	return resp, err
}

// faultBody cuts a response body short: past truncate bytes the reader
// gets io.ErrUnexpectedEOF — what a connection cut mid-transfer yields.
type faultBody struct {
	inner    io.ReadCloser
	truncate int64
	pos      int64
}

func (b *faultBody) Read(p []byte) (int, error) {
	rem := b.truncate - b.pos
	if rem <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := b.inner.Read(p)
	b.pos += int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *faultBody) Close() error { return b.inner.Close() }
