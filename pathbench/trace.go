package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one layer boundary crossing. Spans of one request share Seq;
// Parent names the span that caused it. Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The traced legs keep
// one request in flight, so the request a server-side span belongs to is
// whatever sequence number the client set last.
type tracer struct {
	t0    time.Time
	on    atomic.Bool // off: the wrappers pass straight through
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newTracer sizes the span store for a traced leg up front, so that its
// growth is not billed to the requests being traced.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)} }

func (t *tracer) record(name, parent string, seq uint64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, parent, seq, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// scoring reports whether path is one of the proxied read endpoints;
// probes and /stats calls are not part of any request's trace.
func scoring(path string) bool {
	return path == "/rewrite" || path == "/similar" || path == "/batch"
}

// handler wraps h in a span.
func (t *tracer) handler(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !scoring(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		seq, start := t.seq.Load(), time.Now()
		h.ServeHTTP(w, r)
		t.record(name, parent, seq, start, time.Now())
	})
}

// transport wraps the gateway's upstream transport — route.Options.Transport
// is the existing public seam — in a span that ends when the gateway has
// finished with the response body.
func (t *tracer) transport(name, parent string, base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if !t.on.Load() || !scoring(r.URL.Path) {
			return base.RoundTrip(r)
		}
		seq, start := t.seq.Load(), time.Now()
		resp, err := base.RoundTrip(r)
		if err != nil {
			t.record(name, parent, seq, start, time.Now())
			return resp, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.record(name, parent, seq, start, time.Now()) }}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64 = 0, lo
	for _, s := range spans {
		a, b := max(s.Start, end), min(s.End, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// selfTimes splits the traced requests into per-layer self times: a
// layer's span minus the part of it its child spans cover. chain lists the
// span names from the client span inwards; the result has one ascending
// sample set per chain entry.
func (t *tracer) selfTimes(chain []string) []lats {
	t.mu.Lock()
	bySeq := make(map[uint64][]span)
	for _, s := range t.spans {
		bySeq[s.Seq] = append(bySeq[s.Seq], s)
	}
	t.mu.Unlock()
	out := make([]lats, len(chain))
	for _, spans := range bySeq {
		var rootSpan *span
		for i := range spans {
			if spans[i].Name == chain[0] {
				rootSpan = &spans[i]
			}
		}
		if rootSpan == nil {
			continue
		}
		cover := make([]int64, len(chain)+1) // cover[i]: wall time layer i's spans cover
		for i, name := range chain {
			var layer []span
			for _, s := range spans {
				if s.Name == name {
					layer = append(layer, s)
				}
			}
			cover[i] = covered(layer, rootSpan.Start, rootSpan.End)
		}
		for i := range chain {
			out[i] = append(out[i], max(cover[i]-cover[i+1], 0))
		}
	}
	for i := range out {
		out[i] = out[i].sorted()
	}
	return out
}

// perRequest is the mean number of spans called name per request that
// has a span called root.
func (t *tracer) perRequest(root, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := map[uint64]bool{}
	for _, s := range t.spans {
		if s.Name == root {
			roots[s.Seq] = true
		}
	}
	n := 0
	for _, s := range t.spans {
		if s.Name == name && roots[s.Seq] {
			n++
		}
	}
	return float64(n) / float64(max(len(roots), 1))
}
