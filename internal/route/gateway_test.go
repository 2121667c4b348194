package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simrankpp/internal/hedge"
)

func TestParseBackendSpec(t *testing.T) {
	cases := []struct {
		in     string
		want   BackendSpec
		wantOK bool
	}{
		{"http://a:8080", BackendSpec{URL: "http://a:8080"}, true},
		{"http://a:8080/", BackendSpec{URL: "http://a:8080"}, true},
		{"http://a:8080#3", BackendSpec{URL: "http://a:8080", Shards: []int{3}}, true},
		{"http://a:8080#2,0,5", BackendSpec{URL: "http://a:8080", Shards: []int{0, 2, 5}}, true},
		{"http://a:8080#", BackendSpec{}, false},
		{"http://a:8080#x", BackendSpec{}, false},
		{"http://a:8080#-1", BackendSpec{}, false},
		{"not a url", BackendSpec{}, false},
		{"/relative/only", BackendSpec{}, false},
	}
	for _, c := range cases {
		got, err := ParseBackendSpec(c.in)
		if (err == nil) != c.wantOK {
			t.Errorf("ParseBackendSpec(%q) err = %v, want ok=%v", c.in, err, c.wantOK)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseBackendSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseBackendList(t *testing.T) {
	// Shard lists use commas too, so list parsing folds non-URL elements
	// into the preceding spec.
	got, err := ParseBackendList("http://a:1#0,2, http://b:2 ,http://c:3#1")
	if err != nil {
		t.Fatal(err)
	}
	want := []BackendSpec{
		{URL: "http://a:1", Shards: []int{0, 2}},
		{URL: "http://b:2"},
		{URL: "http://c:3", Shards: []int{1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseBackendList = %+v, want %+v", got, want)
	}
	if _, err := ParseBackendList(" , "); err == nil {
		t.Error("empty list parsed without error")
	}
}

// TestGatewayProxiesByteIdentical pins the proxy contract: whatever a
// backend would have answered directly — success or client error — the
// gateway relays byte for byte, stamped with the pinned generation.
func TestGatewayProxiesByteIdentical(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	gw := newGateway(t, Options{Router: snap}, r0, r1)
	h := gw.Handler()

	if pin := gw.Pinned(); pin != snap.Meta().Fingerprint {
		t.Fatalf("pinned %q, want snapshot fingerprint %q", pin, snap.Meta().Fingerprint)
	}
	urls := []string{
		"/rewrite?q=c0-q0&top=3",
		"/rewrite?q=c2-q7",
		"/similar?q=c1-q4&top=2",
		"/similar?ad=c3-a2&top=4",
		"/rewrite?q=no-such-query",
		"/rewrite", // missing q — backend's client error, relayed
	}
	for _, u := range urls {
		wantCode, wantBody := directGet(t, r0.ts.URL+u)
		code, hdr, body := get(t, h, u)
		if code != wantCode || !bytes.Equal(body, wantBody) {
			t.Errorf("GET %s via gateway = %d %q, direct = %d %q", u, code, body, wantCode, wantBody)
		}
		if g := hdr.Get("Simrank-Generation"); g != snap.Meta().Fingerprint {
			t.Errorf("GET %s Simrank-Generation = %q, want %q", u, g, snap.Meta().Fingerprint)
		}
	}
	if got := gw.proxied.Load(); got != int64(len(urls)) {
		t.Errorf("proxied = %d, want %d", got, len(urls))
	}
}

func directGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestShardAffinity pins partitioned routing: with backends declaring
// disjoint shard sets, every read lands on a replica that holds the
// query's shard.
func TestShardAffinity(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	_, shard, ok := snap.PrevQuery("c0-q0")
	if !ok {
		t.Fatal("fixture query missing from route map")
	}

	// Two counting replicas over the same snapshot: one holding only the
	// probe query's shard, the other holding everything else.
	var hits [2]atomic.Int64
	var others []int
	for s := 0; s < snap.NumShards(); s++ {
		if s != shard {
			others = append(others, s)
		}
	}
	var specs []BackendSpec
	for i := 0; i < 2; i++ {
		i := i
		rep := startWrappedReplica(t, snap, 1, func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/rewrite" || r.URL.Path == "/similar" {
					hits[i].Add(1)
				}
				inner.ServeHTTP(w, r)
			})
		})
		spec := BackendSpec{URL: rep.ts.URL, Shards: others}
		if i == 0 {
			spec.Shards = []int{shard}
		}
		specs = append(specs, spec)
	}
	gw, err := New(Options{Backends: specs, Router: snap})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(t.Context())
	h := gw.Handler()

	for i := 0; i < 5; i++ {
		if code, _, body := get(t, h, "/rewrite?q=c0-q0&top=2"); code != http.StatusOK {
			t.Fatalf("GET /rewrite = %d: %s", code, body)
		}
	}
	if got := hits[0].Load(); got != 5 {
		t.Errorf("shard-holding replica served %d reads, want 5", got)
	}
	if got := hits[1].Load(); got != 0 {
		t.Errorf("non-holding replica served %d reads, want 0", got)
	}

	// A query from another cluster routes to the other replica.
	hits[0].Store(0)
	if code, _, body := get(t, h, "/rewrite?q=c2-q3&top=2"); code != http.StatusOK {
		t.Fatalf("GET /rewrite = %d: %s", code, body)
	}
	if hits[0].Load() != 0 || hits[1].Load() == 0 {
		t.Errorf("other-shard read hit replica0=%d replica1=%d, want 0 and >0", hits[0].Load(), hits[1].Load())
	}
}

// fakeBackend is a scriptable replica for failure-path tests: /readyz
// reports a fixed generation, reads (/rewrite, /batch) run the given
// handler.
func fakeBackend(t *testing.T, gen string, read http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":     "ok",
			"generation": map[string]any{"id": 1, "fingerprint": gen},
		})
	})
	mux.HandleFunc("/rewrite", read)
	mux.HandleFunc("/batch", read)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestRetryAfterFloorsBackoff pins satellite #2 on the gateway side: a
// backend's Retry-After on 503 floors the retry backoff even when the
// configured schedule is far shorter.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "recovered")
	})
	// One failure does not open the breaker: that takes breakerFails.
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	gw.ProbeAll(t.Context())

	start := time.Now()
	code, _, body := get(t, gw.Handler(), "/rewrite?q=x")
	elapsed := time.Since(start)
	if code != http.StatusOK || string(body) != "recovered" {
		t.Fatalf("GET = %d %q, want 200 \"recovered\"", code, body)
	}
	if elapsed < time.Second {
		t.Errorf("read completed in %v; Retry-After: 1 should have floored the backoff at 1s", elapsed)
	}
	if gw.retries.Load() == 0 {
		t.Error("no retries counted")
	}
}

// TestBreakerOpensAndRecovers pins the circuit breaker: consecutive
// failures remove a replica from candidacy for the cool-down, after
// which it is admitted again (half-open) and a success closes the
// circuit.
func TestBreakerOpensAndRecovers(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	rep := startReplica(t, snap, 1)
	gw := newGateway(t, Options{}, rep)
	gw.breakerCooldown = 50 * time.Millisecond
	b := gw.backends[0]
	pin := gw.Pinned()

	for i := 0; i < breakerFails; i++ {
		if _, ok := b.tierFor(pin, "query", -1, time.Now()); !ok {
			t.Fatalf("replica not a candidate before failure %d", i)
		}
		gw.markRead(b, false)
	}
	if _, ok := b.tierFor(pin, "query", -1, time.Now()); ok {
		t.Fatal("circuit did not open after 3 consecutive failures")
	}
	b.mu.Lock()
	opens := b.breakerOpens
	b.mu.Unlock()
	if opens != 1 {
		t.Fatalf("breakerOpens = %d, want 1", opens)
	}

	time.Sleep(60 * time.Millisecond)
	if _, ok := b.tierFor(pin, "query", -1, time.Now()); !ok {
		t.Fatal("circuit still open after cooldown (no half-open trial)")
	}
	gw.markRead(b, true)
	gw.markRead(b, false)
	gw.markRead(b, false)
	if _, ok := b.tierFor(pin, "query", -1, time.Now()); !ok {
		t.Fatal("two failures after a success re-opened the circuit early")
	}
}

// TestUnpinnedGatewayDegrades pins the cold-start contract: before any
// probe has pinned a generation, reads degrade to 503 + Retry-After
// rather than guessing a backend.
func TestUnpinnedGatewayDegrades(t *testing.T) {
	gw, err := New(Options{Backends: []BackendSpec{{URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, _ := get(t, gw.Handler(), "/rewrite?q=x")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unpinned read = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if gw.noReplica.Load() != 1 {
		t.Errorf("noReplica = %d, want 1", gw.noReplica.Load())
	}
	// A /batch refused the same way is one more 503 with no candidate.
	if code, _, _ := postBatch(t, gw.Handler(), `{"queries":["x","y"]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("unpinned batch = %d, want 503", code)
	}
	if gw.noReplica.Load() != 2 {
		t.Errorf("noReplica = %d after one read and one batch, want 2", gw.noReplica.Load())
	}
}

// TestGatewayStatusEndpoints sanity-checks the gateway's own /readyz
// and /stats documents.
func TestGatewayStatusEndpoints(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	gw := newGateway(t, Options{}, r0)
	h := gw.Handler()

	code, _, body := get(t, h, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz = %d: %s", code, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "ok" || ready.Rollout.Pinned != snap.Meta().Fingerprint {
		t.Errorf("/readyz = %+v, want ok pinned to snapshot generation", ready)
	}
	if len(ready.Backends) != 1 || ready.Backends[0].Health != "ok" {
		t.Errorf("/readyz backends = %+v", ready.Backends)
	}

	if code, _, body := get(t, h, "/rewrite?q=c0-q0"); code != http.StatusOK {
		t.Fatalf("/rewrite = %d: %s", code, body)
	}
	code, _, body = get(t, h, "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d: %s", code, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 || stats.Proxied != 1 {
		t.Errorf("/stats requests=%d proxied=%d, want 1/1", stats.Requests, stats.Proxied)
	}
}

// TestGatewayReusesBackendConnections pins the gateway's own transport:
// with no Options.Transport, concurrent closed-loop clients keep the
// connections they opened instead of reconnecting whenever more than
// http.DefaultTransport's two are handed back idle at once (16 clients ×
// 200 reads opened 1193 connections to the one backend), Run closes the
// idle ones when its context ends, and a supplied transport is left alone.
func TestGatewayReusesBackendConnections(t *testing.T) {
	var opened atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","generation":{"id":1,"fingerprint":"g1"}}`)
	})
	mux.HandleFunc("/rewrite", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "{}") })
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	h := gw.Handler()

	const clients, reads = 16, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if code, _, body := get(t, h, "/rewrite?q=x"); code != http.StatusOK {
					t.Errorf("read = %d: %s", code, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Twice the clients: a client's last connection can still be on its
	// way back to the idle pool when its next read asks for one, and the
	// connection dialed for that miss stays pooled.
	const probes = 1
	n := opened.Load()
	t.Logf("%d clients x %d reads opened %d backend connections", clients, reads, n)
	if n > 2*clients+probes {
		t.Errorf("%d backend connections opened, want at most %d", n, 2*clients+probes)
	}

	// Run's exit closes what is idle: the next request has to dial. (Its
	// own probe may die with the context and mark the backend
	// unreachable, so the request is a fresh probe.)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { gw.Run(ctx); close(done) }()
	cancel()
	<-done
	before := opened.Load()
	gw.ProbeAll(context.Background())
	if opened.Load() == before {
		t.Error("a probe after Run returned reused a connection Run should have closed")
	}

	// A supplied transport — the chaos suite's injection seam, pathbench's
	// tracer — is used as given: not wrapped, not replaced, not closed.
	rt := &http.Transport{}
	theirs, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}, Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	if theirs.client.Transport != http.RoundTripper(rt) || theirs.pool != nil {
		t.Errorf("gateway client transport = %T (own pool: %v), want the supplied one as given", theirs.client.Transport, theirs.pool != nil)
	}
}

// TestClientCancelDoesNotOpenBreaker: a read abandoned because the
// inbound request's context ended — the client hung up or ran out of
// patience — says nothing about the replica and must not feed its
// breaker. Three impatient clients against one healthy, slow replica
// used to open its circuit and turn the next patient read into a 503
// for the whole cooldown.
func TestClientCancelDoesNotOpenBreaker(t *testing.T) {
	ts := fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(150 * time.Millisecond):
		case <-r.Context().Done():
		}
		fmt.Fprint(w, "slow but fine")
	})
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(t.Context())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(t.Context(), 10*time.Millisecond)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/rewrite?q=x", nil).WithContext(ctx))
		cancel()
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("abandoned read %d = %d, want the 503 nobody is waiting for", i, rec.Code)
		}
	}
	b := gw.backends[0]
	b.mu.Lock()
	opens, fails := b.breakerOpens, b.readFails
	b.mu.Unlock()
	if opens != 0 || fails != 0 {
		t.Errorf("after three abandoned reads: breakerOpens %d readFails %d, want 0 and 0", opens, fails)
	}
	if code, _, body := get(t, h, "/rewrite?q=x"); code != http.StatusOK || string(body) != "slow but fine" {
		t.Fatalf("patient read after them = %d %q, want 200", code, body)
	}
}
