package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
)

func fig3Server(t *testing.T, cfg Config) (*Server, *core.Result) {
	t.Helper()
	res, err := core.Run(clickgraph.Fig3(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(res, cfg), res
}

func get(t *testing.T, h http.Handler, url string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func TestServerRewriteEndpoint(t *testing.T) {
	srv, res := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()

	code, body := get(t, h, "/rewrite?q=camera&top=2")
	if code != http.StatusOK {
		t.Fatalf("GET /rewrite = %d: %s", code, body)
	}
	var resp rewriteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	if resp.Query != "camera" || resp.Method != "simrank" {
		t.Errorf("response header = %+v", resp)
	}
	if len(resp.Rewrites) == 0 || len(resp.Rewrites) > 2 {
		t.Fatalf("got %d rewrites, want 1..2", len(resp.Rewrites))
	}
	// The top rewrite must agree with the live index (camera's best
	// partner on Fig3 is "digital camera").
	if resp.Rewrites[0].Text != "digital camera" {
		t.Errorf("top rewrite = %q, want %q", resp.Rewrites[0].Text, "digital camera")
	}
	cam, _ := res.QueryID("camera")
	want := res.TopRewrites(cam, 1)[0]
	if resp.Rewrites[0].Score != want.Score {
		t.Errorf("top score = %v, want %v", resp.Rewrites[0].Score, want.Score)
	}

	// Error paths.
	if code, _ := get(t, h, "/rewrite"); code != http.StatusBadRequest {
		t.Errorf("missing q -> %d, want 400", code)
	}
	if code, _ := get(t, h, "/rewrite?q=nope"); code != http.StatusNotFound {
		t.Errorf("unknown query -> %d, want 404", code)
	}
	if code, _ := get(t, h, "/rewrite?q=camera&top=x"); code != http.StatusBadRequest {
		t.Errorf("bad top -> %d, want 400", code)
	}
}

func TestServerSimilarEndpoint(t *testing.T) {
	srv, res := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()

	code, body := get(t, h, "/similar?q=pc&top=3")
	if code != http.StatusOK {
		t.Fatalf("GET /similar = %d: %s", code, body)
	}
	var resp rewriteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	pc, _ := res.QueryID("pc")
	want := res.TopRewrites(pc, 3)
	if len(resp.Rewrites) != len(want) {
		t.Fatalf("got %d similar queries, want %d", len(resp.Rewrites), len(want))
	}
	for i := range want {
		if resp.Rewrites[i].Text != res.Query(want[i].Node) || resp.Rewrites[i].Score != want[i].Score {
			t.Errorf("similar[%d] = %+v, want %q %v", i, resp.Rewrites[i], res.Query(want[i].Node), want[i].Score)
		}
	}

	code, body = get(t, h, "/similar?ad=hp.com&top=3")
	if code != http.StatusOK {
		t.Fatalf("GET /similar?ad = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rewrites) == 0 {
		t.Error("no similar ads for hp.com")
	}
	if code, _ := get(t, h, "/similar"); code != http.StatusBadRequest {
		t.Errorf("neither q nor ad -> %d, want 400", code)
	}
	if code, _ := get(t, h, "/similar?q=pc&ad=hp.com"); code != http.StatusBadRequest {
		t.Errorf("both q and ad -> %d, want 400", code)
	}
}

// TestServerStats pins /stats' counters: every request, per endpoint
// with its error classes, and cache_hits always 0 — a repeated read is
// answered afresh, to the same bytes.
func TestServerStats(t *testing.T) {
	srv, _ := fig3Server(t, Config{DefaultTop: 5, MaxTop: 10})
	h := srv.Handler()

	_, first := get(t, h, "/rewrite?q=camera")
	_, second := get(t, h, "/rewrite?q=camera")
	if !bytes.Equal(first, second) {
		t.Errorf("a repeated read differs: %q vs %q", first, second)
	}
	// A 404 and a 400 to exercise the per-endpoint error counters.
	if code, _ := get(t, h, "/rewrite?q=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown query = %d", code)
	}
	if code, _ := get(t, h, "/similar"); code != http.StatusBadRequest {
		t.Fatalf("bad similar = %d", code)
	}
	code, body := get(t, h, "/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	// /stats counts itself: 3 rewrites + 1 similar + this stats request.
	if stats.Requests != 5 || stats.CacheHits != 0 {
		t.Errorf("stats = %+v, want 5 requests / 0 cache hits", stats)
	}
	for _, gone := range []string{`"cache_entries"`, `"cache_size"`} {
		if bytes.Contains(body, []byte(gone)) {
			t.Errorf("/stats still carries %s: %s", gone, body)
		}
	}
	if ep := stats.Endpoints["rewrite"]; ep.Requests != 3 || ep.Errors4xx != 1 || ep.Errors5xx != 0 {
		t.Errorf("rewrite endpoint stats = %+v, want 3 requests / 1 4xx", ep)
	}
	if ep := stats.Endpoints["similar"]; ep.Requests != 1 || ep.Errors4xx != 1 {
		t.Errorf("similar endpoint stats = %+v, want 1 request / 1 4xx", ep)
	}
	if ep := stats.Endpoints["stats"]; ep.Requests != 1 {
		t.Errorf("stats endpoint did not count itself: %+v", ep)
	}
	if stats.Queries != 5 || stats.Method != "simrank" {
		t.Errorf("index stats = %+v", stats)
	}
	if stats.Snapshot != nil {
		t.Error("live result reported snapshot metadata")
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestServerReadyzHealthy(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	code, body := get(t, srv.Handler(), "/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || len(resp.Quarantined) != 0 {
		t.Errorf("readyz = %+v, want ok with no quarantined shards", resp)
	}
}

// TestGenerationIdentitySurfaced pins the fleet-agreement contract: a
// snapshot-backed server reports its generation identity (journal id,
// graph fingerprint hex, generated-at, dirty count) in both /readyz and
// /stats, identically — the key a read gateway compares across replicas
// to keep answers generation-consistent. A live (non-snapshot) index
// reports none.
func TestGenerationIdentitySurfaced(t *testing.T) {
	res, err := core.Run(testGraph(t), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, res, DefaultRewriteTopK)
	srv := NewServer(snap, DefaultServerConfig())
	srv.SetGenerationID(7)
	h := srv.Handler()

	code, body := get(t, h, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Generation == nil {
		t.Fatal("readyz carries no generation identity")
	}
	meta := snap.Meta()
	if ready.Generation.ID != 7 || ready.Generation.Fingerprint != meta.Fingerprint ||
		!ready.Generation.GeneratedAt.Equal(meta.GeneratedAt) || ready.Generation.DirtyShards != meta.LastRefreshDirty {
		t.Errorf("readyz generation = %+v, want id 7, fingerprint %s, generated %v, dirty %d",
			ready.Generation, meta.Fingerprint, meta.GeneratedAt, meta.LastRefreshDirty)
	}

	code, body = get(t, h, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Generation == nil || *stats.Generation != *ready.Generation {
		t.Errorf("stats generation = %+v, want the same identity readyz reports (%+v)",
			stats.Generation, ready.Generation)
	}

	// A live-result server has no snapshot generation to agree on.
	live, _ := fig3Server(t, DefaultServerConfig())
	_, body = get(t, live.Handler(), "/readyz")
	var liveReady ReadyResponse
	if err := json.Unmarshal(body, &liveReady); err != nil {
		t.Fatal(err)
	}
	if liveReady.Generation != nil {
		t.Errorf("live-index readyz reports a generation: %+v", liveReady.Generation)
	}
}

// TestReloadFailureKeepsServing pins the SIGHUP reload failure path: a
// load that fails (corrupt new snapshot) leaves the old index serving,
// increments reload_failures, and does not bump reloads.
func TestReloadFailureKeepsServing(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()
	_, before := get(t, h, "/rewrite?q=camera")

	badLoad := func() (ScoreIndex, error) {
		_, err := NewSnapshot(bytes.NewReader([]byte("SRPPSNAPgarbage")), 15)
		return nil, err
	}
	if err := srv.Reload(badLoad, nil, nil, t.Logf); err == nil {
		t.Fatal("Reload of a corrupt snapshot reported success")
	}
	if got := srv.reloadFailures.Load(); got != 1 {
		t.Errorf("reload failures = %d, want 1", got)
	}
	code, after := get(t, h, "/rewrite?q=camera")
	if code != http.StatusOK || !bytes.Equal(before, after) {
		t.Errorf("old index stopped serving after failed reload: %d %q", code, after)
	}
	var stats StatsResponse
	_, body := get(t, h, "/stats")
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ReloadFailures != 1 || stats.Reloads != 0 {
		t.Errorf("stats report %d reloads / %d failures, want 0 / 1", stats.Reloads, stats.ReloadFailures)
	}
}

// TestReloadFallsBackToGoodIndex pins the generation-fallback half: when
// the primary load fails but the fallback loader produces an index, the
// server swaps to the fallback and still counts the failed load.
func TestReloadFallsBackToGoodIndex(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	badLoad := func() (ScoreIndex, error) {
		_, err := NewSnapshot(bytes.NewReader([]byte("short")), 5)
		return nil, err
	}
	wres, err := core.Run(clickgraph.Fig3(), core.DefaultConfig().WithVariant(core.Weighted))
	if err != nil {
		t.Fatal(err)
	}
	fallback := func() (ScoreIndex, error) { return wres, nil }
	if err := srv.Reload(badLoad, fallback, nil, t.Logf); err != nil {
		t.Fatalf("Reload with working fallback failed: %v", err)
	}
	if srv.reloadFailures.Load() != 1 {
		t.Errorf("reload failures = %d, want 1", srv.reloadFailures.Load())
	}
	code, body := get(t, srv.Handler(), "/rewrite?q=camera")
	if code != http.StatusOK {
		t.Fatalf("rewrite after fallback = %d", code)
	}
	var resp rewriteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "weighted simrank" {
		t.Errorf("method after fallback = %q, want the fallback index's", resp.Method)
	}
}

// TestConcurrentSwapUnderLoad races index swaps against in-flight
// requests — the reload-under-load path. Run under -race (CI's chaos job
// does) it proves swap's drain and the handlers' read lock compose;
// functionally it checks every response is well-formed and the server
// survives.
func TestConcurrentSwapUnderLoad(t *testing.T) {
	res, err := core.Run(clickgraph.Fig3(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wres, err := core.Run(clickgraph.Fig3(), core.DefaultConfig().WithVariant(core.Weighted))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(res, Config{DefaultTop: 5, MaxTop: 10})
	h := srv.Handler()

	const loops = 50
	var wg sync.WaitGroup
	queries := []string{"camera", "digital camera", "pc", "tv", "flower"}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				q := queries[(w+i)%len(queries)]
				req := httptest.NewRequest("GET", "/rewrite?q="+url.QueryEscape(q), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("rewrite %q = %d during swaps", q, rec.Code)
					return
				}
				var resp rewriteResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("torn response for %q: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			if i%2 == 0 {
				srv.swap(wres, nil)
			} else {
				srv.swap(res, nil)
			}
		}
	}()
	wg.Wait()
}

// TestServerSnapshotSwap pins graceful reload: the server serves a
// snapshot, a swap replaces it, the next answer and /stats come from the
// new index, and stats expose the snapshot metadata and lazy segment
// count.
func TestServerSnapshotSwap(t *testing.T) {
	res, err := core.Run(clickgraph.Fig3(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK}); err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(snap, DefaultServerConfig())
	h := srv.Handler()

	code, body := get(t, h, "/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot == nil || stats.Snapshot.Shards != 1 {
		t.Fatalf("stats lack snapshot metadata: %+v", stats)
	}
	if stats.LoadedSegments != 0 {
		t.Errorf("segments loaded before any query: %d", stats.LoadedSegments)
	}

	code, before := get(t, h, "/rewrite?q=camera")
	if code != http.StatusOK {
		t.Fatal("rewrite from snapshot failed")
	}
	// Swap in a weighted run: the same request now answers the new
	// scores under the new method, and /stats counts the swap.
	wres, err := core.Run(clickgraph.Fig3(), core.DefaultConfig().WithVariant(core.Weighted))
	if err != nil {
		t.Fatal(err)
	}
	if old := srv.swap(wres, nil); old != ScoreIndex(snap) {
		t.Error("swap did not return the previous index")
	}
	code, body = get(t, h, "/rewrite?q=camera")
	if code != http.StatusOK {
		t.Fatalf("rewrite after swap = %d", code)
	}
	_, want := get(t, NewServer(wres, DefaultServerConfig()).Handler(), "/rewrite?q=camera")
	if !bytes.Equal(body, want) || bytes.Equal(body, before) {
		t.Errorf("rewrite after swap = %s, want the swapped-in index's %s (before: %s)", body, want, before)
	}
	var resp rewriteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Method != "weighted simrank" {
		t.Errorf("method after swap = %q, want weighted simrank", resp.Method)
	}
	stats = StatsResponse{}
	if _, body := get(t, h, "/stats"); json.Unmarshal(body, &stats) != nil {
		t.Fatal("bad /stats after swap")
	}
	if stats.Reloads != 1 || stats.Method != "weighted simrank" || stats.Snapshot != nil {
		t.Errorf("/stats after swap = %+v, want 1 reload of the weighted live result", stats)
	}
}

// raceBuild is set when the tests run under the race detector.
var raceBuild bool

// discardWriter is a ResponseWriter that keeps nothing but its header map.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestServerAllocationsPerRead is the replica's allocation gate, the twin
// of route's TestGatewayAllocationsPerRead: what one read costs the
// handler in heap allocations, socket excluded — a /rewrite and an
// 8-query /batch the section answers, and a /similar. The bounds are what
// this code reaches on go1.24 — 13, 47 and 13 — plus a little room for a
// toolchain's own drift. Marshaling each answer, keeping a response cache
// and scoring batch items on worker goroutines measured 18 (a cache miss),
// 77 and 15.
func TestServerAllocationsPerRead(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	res, err := core.Run(clickgraph.Fig3(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, res, DefaultRewriteTopK)
	h := serverOver(snap, nil).Handler()
	w := &discardWriter{h: http.Header{}}
	rewrite := httptest.NewRequest(http.MethodGet, "/rewrite?q=camera&top=3", nil)
	similar := httptest.NewRequest(http.MethodGet, "/similar?q=camera&top=3", nil)
	batchBody := []byte(`{"queries":["camera","pc","digital camera","tv","flower","camera","pc","tv"],"top":3}`)
	batchReader := bytes.NewReader(batchBody)
	batch := httptest.NewRequest(http.MethodPost, "/batch", nil)
	batch.Body = io.NopCloser(batchReader)

	perRewrite := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, rewrite) })
	perBatch := testing.AllocsPerRun(200, func() {
		batchReader.Reset(batchBody)
		h.ServeHTTP(w, batch)
	})
	if snap.shards[0].q.ready.Load() {
		t.Fatal("the section answers loaded the query-score segment: the pipeline answered")
	}
	perSimilar := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, similar) })
	t.Logf("allocations: GET /rewrite %.0f, POST /batch of 8 %.0f, GET /similar %.0f", perRewrite, perBatch, perSimilar)
	for _, c := range []struct {
		what     string
		got, max float64
	}{
		{"a section-answered GET /rewrite", perRewrite, 15},
		{"a section-answered POST /batch of 8", perBatch, 50},
		{"a GET /similar", perSimilar, 15},
	} {
		if c.got > c.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", c.what, c.got, c.max)
		}
	}
}
