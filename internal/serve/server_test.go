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

// fig3Server serves Figure 3's scores, saved as simrank -save saves them
// (a top-k section of DefaultRewriteTopK), and returns the result they
// were saved from.
func fig3Server(t *testing.T, cfg Config) (*Server, *core.Result) {
	t.Helper()
	res := fig3Result(t, core.DefaultConfig())
	return NewServer(mustSnapshot(t, res, DefaultRewriteTopK), cfg), res
}

func fig3Result(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	return wholeRun(t, clickgraph.Fig3(), cfg)
}

// fig3Weighted is Figure 3 under weighted SimRank, saved with a section:
// a second generation to swap in.
func fig3Weighted(t *testing.T) *Snapshot {
	t.Helper()
	return mustSnapshot(t, fig3Result(t, core.DefaultConfig().WithVariant(core.Weighted)), DefaultRewriteTopK)
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
	srv, _ := fig3Server(t, Config{DefaultTop: 5})
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
	if stats.Queries != 5 || stats.Method != "simrank" || stats.Snapshot == nil {
		t.Errorf("index stats = %+v", stats)
	}
}

// TestDepthCappedAtSectionK: the snapshot's K caps every depth — a top the
// request gives and DefaultTop when it gives none — on /rewrite, /similar
// and /batch alike. Here DefaultTop 5 sits above a K = 2 section, and the
// probed query has more than 2 partners and rewrites.
func TestDepthCappedAtSectionK(t *testing.T) {
	g := refreshGraph(t, [4]int{1, 2, 3, 4})
	res := wholeRun(t, g, core.DefaultConfig())
	snap := mustSnapshot(t, res, 2)
	q := -1
	for c := 0; c < g.NumQueries() && q < 0; c++ {
		if list, _ := snap.PrecomputedRewrites(c, 2); len(list) == 2 && len(res.TopRewrites(c, -1)) > 2 {
			q = c
		}
	}
	if q < 0 {
		t.Fatal("no query with a full K = 2 list and more than 2 partners")
	}
	h := serverOver(snap, func(c *Config) { c.DefaultTop = 5 }).Handler()
	name := url.QueryEscape(g.Query(q))
	for _, u := range []string{"/similar?q=" + name, "/similar?q=" + name + "&top=9", "/rewrite?q=" + name, "/rewrite?q=" + name + "&top=9"} {
		code, body := get(t, h, u)
		var resp rewriteResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Rewrites) != 2 {
			t.Errorf("GET %s = %d %s, want 2 answers", u, code, body)
		}
	}
	for _, top := range []int{0, 9} {
		body, _ := json.Marshal(BatchRequest{Queries: []string{g.Query(q)}, Top: top})
		code, raw := postBatch(t, h, string(body))
		var resp BatchResponse
		var item rewriteResponse
		if code != http.StatusOK || json.Unmarshal(raw, &resp) != nil || len(resp.Results) != 1 ||
			json.Unmarshal(resp.Results[0], &item) != nil || len(item.Rewrites) != 2 {
			t.Errorf("POST /batch at top %d = %d %s, want 2 answers", top, code, raw)
		}
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
// server reports its snapshot's generation identity (journal id, graph
// fingerprint hex, generated-at, dirty count) in both /readyz and /stats,
// identically — the key a read gateway compares across replicas to keep
// answers generation-consistent.
func TestGenerationIdentitySurfaced(t *testing.T) {
	res := wholeRun(t, testGraph(t), core.DefaultConfig())
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
	fallback := func() (ScoreIndex, error) { return fig3Weighted(t), nil }
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

// TestReloadRefusesUnservableIndex: a reload swaps in only a snapshot the
// server can answer /rewrite from. One without a top-k section, one whose
// lists were filtered under another bid-term set, and an index that is no
// snapshot are each a failed load — counted, closed when a snapshot, the
// old snapshot still serving — and a fallback is held to the same rule.
func TestReloadRefusesUnservableIndex(t *testing.T) {
	srv, res := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()
	_, before := get(t, h, "/rewrite?q=camera")
	bare := mustSnapshot(t, res, 0)
	var buf imageBuffer
	if err := WriteSnapshotTopK(&buf, res, TopKOptions{K: DefaultRewriteTopK, BidTerms: map[string]bool{"pc": true}}); err != nil {
		t.Fatal(err)
	}
	otherBids, err := NewSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for name, idx := range map[string]ScoreIndex{"no section": bare, "other bid set": otherBids, "a live result": res} {
		load := func() (ScoreIndex, error) { return idx, nil }
		if err := srv.Reload(load, load, nil, t.Logf); err == nil {
			t.Errorf("%s: reload succeeded", name)
		}
	}
	if got := srv.reloadFailures.Load(); got != 3 {
		t.Errorf("reload failures = %d, want 3", got)
	}
	if code, after := get(t, h, "/rewrite?q=camera"); code != http.StatusOK || !bytes.Equal(before, after) {
		t.Errorf("after refused reloads /rewrite = %d %s, want the old snapshot's %s", code, after, before)
	}
}

// TestConcurrentSwapUnderLoad races index swaps against in-flight
// requests — the reload-under-load path. Run under -race (CI's chaos job
// does) it proves swap's drain and the handlers' read lock compose;
// functionally it checks every response is well-formed and the server
// survives.
func TestConcurrentSwapUnderLoad(t *testing.T) {
	snap, wsnap := mustSnapshot(t, fig3Result(t, core.DefaultConfig()), DefaultRewriteTopK), fig3Weighted(t)
	srv := NewServer(snap, Config{DefaultTop: 5})
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
				srv.swap(wsnap, nil)
			} else {
				srv.swap(snap, nil)
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
	res := wholeRun(t, clickgraph.Fig3(), core.DefaultConfig())
	var buf imageBuffer
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
	wsnap := fig3Weighted(t)
	if old := srv.swap(wsnap, nil); old != snap {
		t.Error("swap did not return the previous index")
	}
	code, body = get(t, h, "/rewrite?q=camera")
	if code != http.StatusOK {
		t.Fatalf("rewrite after swap = %d", code)
	}
	_, want := get(t, NewServer(wsnap, DefaultServerConfig()).Handler(), "/rewrite?q=camera")
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
	if stats.Reloads != 1 || stats.Method != "weighted simrank" {
		t.Errorf("/stats after swap = %+v, want 1 reload of the weighted snapshot", stats)
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
// this code reaches on go1.24 — 13, 29 and 13 — plus a little room for a
// toolchain's own drift. Marshaling each answer, keeping a response cache
// and scoring batch items on worker goroutines measured 18 (a cache miss),
// 77 and 15; decoding the batch body with json.Unmarshal, one string per
// query, 44.
func TestServerAllocationsPerRead(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	res := wholeRun(t, clickgraph.Fig3(), core.DefaultConfig())
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
		{"a section-answered POST /batch of 8", perBatch, 32},
		{"a GET /similar", perSimilar, 15},
	} {
		if c.got > c.max {
			t.Errorf("%s allocates %.0f times, want at most %.0f", c.what, c.got, c.max)
		}
	}
}
