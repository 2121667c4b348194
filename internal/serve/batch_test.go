package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"simrankpp/internal/sparse"
)

// postBatch POSTs body to /batch and returns status and response bytes.
func postBatch(t *testing.T, h http.Handler, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestBatchMatchesSingleEndpoint pins /batch's contract: results arrive
// in request order, and every successful item is byte-for-byte the
// object the single /rewrite endpoint would have answered — including a
// mid-batch unknown query, which becomes an in-order error item without
// failing the batch.
func TestBatchMatchesSingleEndpoint(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()

	queries := []string{"camera", "no such query", "digital camera", "camera"}
	body, _ := json.Marshal(BatchRequest{Queries: queries, Top: 3})
	code, raw := postBatch(t, h, string(body))
	if code != http.StatusOK {
		t.Fatalf("/batch = %d: %s", code, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad batch response %s: %v", raw, err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		if q == "no such query" {
			var item BatchItemError
			if err := json.Unmarshal(resp.Results[i], &item); err != nil {
				t.Fatalf("result[%d] not an error item: %s", i, resp.Results[i])
			}
			if item.Status != http.StatusNotFound || item.Query != q {
				t.Fatalf("result[%d] = %+v, want 404 for %q", i, item, q)
			}
			continue
		}
		sc, sb := get(t, h, "/rewrite?q="+url.QueryEscape(q)+"&top=3")
		if sc != http.StatusOK {
			t.Fatalf("single /rewrite for %q = %d", q, sc)
		}
		want := bytes.TrimSuffix(sb, []byte("\n"))
		if !bytes.Equal(resp.Results[i], want) {
			t.Fatalf("result[%d] = %s, single endpoint = %s", i, resp.Results[i], want)
		}
	}
}

// TestBatchPastSectionDepth: /batch items share /rewrite's answer path, so
// a batch deeper than the section's k answers its short lists from the
// section and its full ones through the pipeline — and the body is
// byte-equal to a server over the same scores without a section.
func TestBatchPastSectionDepth(t *testing.T) {
	g := testGraph(t)
	section, pipeline := 0, 0 // items past k the section and the pipeline answer
	for _, bc := range bidCases(g, 0) {
		t.Run(bc.name, func(t *testing.T) {
			path, res := writeTopKFile(t, g, TopKOptions{K: 2, BidTerms: bc.bids})
			mm, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			queries := []string{"no such query"}
			for q := 0; q < g.NumQueries(); q++ {
				queries = append(queries, g.Query(q))
				if _, hit := mm.PrecomputedRewrites(q, 5); hit {
					section++
				} else {
					pipeline++
				}
			}
			body, _ := json.Marshal(BatchRequest{Queries: queries, Top: 5})
			fc, fb := postBatch(t, serverOver(mm, func(c *Config) { c.BidTerms = bc.bids }).Handler(), string(body))
			sc, sb := postBatch(t, pipelineServer(t, res, bc.bids), string(body))
			if fc != http.StatusOK || fc != sc || !bytes.Equal(fb, sb) {
				t.Fatalf("/batch at top 5 over a K = 2 section: %d %s\npipeline server: %d %s", fc, fb, sc, sb)
			}
		})
	}
	if section == 0 || pipeline == 0 {
		t.Fatalf("past k, the section answers %d items and the pipeline %d; the fixture needs both", section, pipeline)
	}
}

// TestBatchBodyIsJSONMarshal pins EncodeBatchResponse, which joins the
// already-encoded items by hand, to the bytes json.Marshal of the
// response struct plus a newline gives — on the replica's own items and,
// as the gateway holds them, on items that came back through
// json.Unmarshal — including the characters json.Marshal escapes.
func TestBatchBodyIsJSONMarshal(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	queries := []string{"camera", "<b>&\u2028 \"no\\such\" query\x7f", "pc", "camera"}
	body, _ := json.Marshal(BatchRequest{Queries: queries, Top: 3})
	code, raw := postBatch(t, srv.Handler(), string(body))
	if code != http.StatusOK {
		t.Fatalf("/batch = %d: %s", code, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != len(queries) {
		t.Fatalf("bad batch response %s: %v", raw, err)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(raw, want) {
		t.Errorf("replica body\n %s\njson.Marshal\n %s", raw, want)
	}
	if got := EncodeBatchResponse(resp.Results); !bytes.Equal(got, want) {
		t.Errorf("re-encoded items\n %s\njson.Marshal\n %s", got, want)
	}
}

// splitCases are results arrays whose elements hold everything that could
// fool a scan for the next top-level comma: the structural characters
// inside strings, escaped quotes and backslashes (also as a string's last
// character), HTML-escaped text as json.Marshal writes it, nested arrays
// and objects, scalars — and the two shortest arrays.
var splitCases = [][]json.RawMessage{
	{},
	{json.RawMessage(`{"query":"camera","method":"simrank","rewrites":[]}`)},
	{
		json.RawMessage(`{"query":"a,b]c}d[e{f","error":"query \"a,b]c}d[e{f\" not in index","status":404}`),
		json.RawMessage(`{"query":"back\\","rewrites":[{"text":"\\\"","score":0.5},{"text":"]},{","score":1e-7}]}`),
		json.RawMessage(`{"query":"\u003cb\u003e\u0026\u2028","method":"x","rewrites":[[1,[2,[3]]],{"a":{"b":[{}]}}]}`),
		json.RawMessage(`"just a string, with ] and }"`),
		json.RawMessage(`[]`),
		json.RawMessage(`-12.5e3`),
		json.RawMessage(`null`),
		json.RawMessage(`true`),
	},
}

// TestSplitBatchResponseInvertsEncode pins SplitBatchResponse, which finds
// the elements of a /batch body by scanning for them, as the inverse of
// EncodeBatchResponse, and to json.Unmarshal: whatever it accepts,
// Unmarshal into a BatchResponse accepts with the same elements.
func TestSplitBatchResponseInvertsEncode(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	queries := []string{"camera", "<b>&\u2028 \"no\\such\" query\x7f", "pc", "a,b]c}d\\"}
	reqBody, _ := json.Marshal(BatchRequest{Queries: queries, Top: 3})
	code, replica := postBatch(t, srv.Handler(), string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("/batch = %d: %s", code, replica)
	}
	var fromReplica BatchResponse
	if err := json.Unmarshal(replica, &fromReplica); err != nil {
		t.Fatal(err)
	}

	for ci, items := range append(splitCases, fromReplica.Results) {
		body := EncodeBatchResponse(items)
		got, ok := SplitBatchResponse(nil, body)
		if !ok || len(got) != len(items) {
			t.Fatalf("case %d: Split(%s) = %d elements, ok %v; want %d", ci, body, len(got), ok, len(items))
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				t.Errorf("case %d element %d = %s, want %s", ci, i, got[i], items[i])
			}
			// A sub-slice of body, not a copy: same backing bytes.
			if len(got[i]) > 0 && !sameBacking(body, got[i]) {
				t.Errorf("case %d element %d was copied out of the body", ci, i)
			}
		}
		checkSplitAgainstUnmarshal(t, body)

		// The same elements spaced out as JSON allows come back trimmed.
		var spaced []byte
		spaced = append(spaced, " \n{ \"results\"\t:\r[ "...)
		for i, item := range items {
			if i > 0 {
				spaced = append(spaced, " ,\n\t"...)
			}
			spaced = append(spaced, item...)
			spaced = append(spaced, "  "...)
		}
		spaced = append(spaced, "\n] } \n"...)
		got, ok = SplitBatchResponse(nil, spaced)
		if !ok || len(got) != len(items) {
			t.Fatalf("case %d spaced: Split(%s) = %d elements, ok %v; want %d", ci, spaced, len(got), ok, len(items))
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				t.Errorf("case %d spaced element %d = %q, want %q", ci, i, got[i], items[i])
			}
		}
		checkSplitAgainstUnmarshal(t, spaced)
	}

	// It appends: what dst held stays in front.
	got, ok := SplitBatchResponse([]json.RawMessage{json.RawMessage("0")}, []byte(`{"results":[1,2]}`))
	if !ok || len(got) != 3 || string(got[0]) != "0" || string(got[1]) != "1" || string(got[2]) != "2" {
		t.Errorf("Split onto [0] = %s, ok %v; want [0 1 2]", got, ok)
	}

	// Not the envelope, or not JSON: refused, including envelopes Unmarshal
	// would tolerate (no replica writes them).
	for _, body := range []string{
		``, `[]`, `null`, `{}`, `{"results":{}}`, `{"results":null}`, `{"results":"[]"}`,
		`{"results":[1,2]`, `{"results":[1,2]}}`, `{"results":[1,,2]}`, `{"results":[1 2]}`, `{"results":[tru]}`,
		`{"results":[1]} x`, `{"results":[1]}{"results":[2]}`, `{"results":["unterminated]}`,
		`{"Results":[1]}`, `{"r\u0065sults":[1]}`, `{"results":[1],"more":2}`, `{"more":2,"results":[1]}`,
	} {
		if got, ok := SplitBatchResponse(nil, []byte(body)); ok || got != nil {
			t.Errorf("Split(%s) = %s, ok %v; want a refusal", body, got, ok)
		}
		checkSplitAgainstUnmarshal(t, []byte(body))
	}
}

// sameBacking reports whether part lies inside whole's bytes.
func sameBacking(whole, part []byte) bool {
	for i := 0; i+len(part) <= len(whole); i++ {
		if &whole[i] == &part[0] {
			return true
		}
	}
	return false
}

// checkSplitAgainstUnmarshal holds SplitBatchResponse on one body to the
// two properties the gateway relies on: it never accepts what
// json.Unmarshal into a BatchResponse refuses, and what both accept they
// split into the same elements.
func checkSplitAgainstUnmarshal(t *testing.T, body []byte) {
	t.Helper()
	got, ok := SplitBatchResponse(nil, body)
	if !ok {
		if got != nil {
			t.Errorf("Split(%q) refused yet returned %d elements", body, len(got))
		}
		return
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("Split accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	if len(got) != len(resp.Results) {
		t.Fatalf("Split(%q) = %d elements, json.Unmarshal %d", body, len(got), len(resp.Results))
	}
	for i := range got {
		if !bytes.Equal(got[i], resp.Results[i]) {
			t.Errorf("Split(%q) element %d = %q, json.Unmarshal %q", body, i, got[i], resp.Results[i])
		}
	}
}

// TestBatchValidation pins the endpoint's rejection surface.
func TestBatchValidation(t *testing.T) {
	srv, _ := fig3Server(t, DefaultServerConfig())
	h := srv.Handler()

	// GET is not allowed and says so.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /batch = %d Allow=%q, want 405 Allow=POST", rec.Code, rec.Header().Get("Allow"))
	}

	big, _ := json.Marshal(BatchRequest{Queries: make([]string, MaxBatch+1)})
	for name, body := range map[string]string{
		"malformed":    `{"queries": [`,
		"empty":        `{"queries": []}`,
		"negative-top": `{"queries": ["camera"], "top": -1}`,
		"oversized":    string(big),
		// The body is one JSON value: a Decoder would answer the first
		// object and silently drop what follows it.
		"second-object":    `{"queries":["camera"]}{"queries":["pc"]}`,
		"trailing-garbage": `{"queries":["camera"]} garbage`,
	} {
		code, raw := postBatch(t, h, body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: /batch = %d (%s), want 400", name, code, raw)
		}
		if name != "empty" && name != "negative-top" && name != "oversized" && !bytes.HasPrefix(raw, []byte("bad batch body: ")) {
			t.Errorf("%s: /batch says %q, want a \"bad batch body\"", name, raw)
		}
	}
	// Whitespace after the object is not trailing data.
	if code, raw := postBatch(t, h, "{\"queries\":[\"camera\"]}\r\n \t\n"); code != http.StatusOK {
		t.Errorf("trailing newline: /batch = %d (%s), want 200", code, raw)
	}

	// top omitted (0) means the server default, not an error.
	body, _ := json.Marshal(BatchRequest{Queries: []string{"camera"}})
	code, raw := postBatch(t, h, string(body))
	if code != http.StatusOK {
		t.Fatalf("default-top batch = %d: %s", code, raw)
	}
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != 1 {
		t.Fatalf("default-top batch response %s (err %v)", raw, err)
	}
	sc, sb := get(t, h, "/rewrite?q=camera")
	if sc != http.StatusOK || !bytes.Equal(resp.Results[0], bytes.TrimSuffix(sb, []byte("\n"))) {
		t.Fatalf("default-top item %s != single endpoint %s", resp.Results[0], sb)
	}
}

// gatedIndex is a ScoreIndex whose TopRewrites — one call per batch item
// on the live pipeline — reports its arrival (query id and goroutine) and
// then waits to be released, so a test can count how many items a batch
// has in flight at once.
type gatedIndex struct {
	ScoreIndex
	arrived chan [2]int   // {query id, goroutine id}, one per call
	release chan struct{} // closed: every call proceeds
}

func (g *gatedIndex) TopRewrites(q, k int) []sparse.Scored {
	g.arrived <- [2]int{q, goroutineID()}
	<-g.release
	return g.ScoreIndex.TopRewrites(q, k)
}

// goroutineID reads the calling goroutine's id off its stack header.
func goroutineID() int {
	buf := make([]byte, 64)
	var id int
	fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d ", &id)
	return id
}

// TestBatchConcurrencyBound: a batch never has more than batchConcurrency
// items in flight — the handler's goroutine is one of the workers, not one
// more — and with batchConcurrency 1 it answers every item itself, in
// request order, without starting a goroutine.
func TestBatchConcurrencyBound(t *testing.T) {
	_, res := fig3Server(t, DefaultServerConfig())
	var queries []string
	for i := 0; i < 12; i++ {
		queries = append(queries, res.Query(i%res.NumQueries()))
	}
	reqBody, _ := json.Marshal(BatchRequest{Queries: queries, Top: 2})
	_, want := postBatch(t, serverOver(res, nil).Handler(), string(reqBody))

	const limit = 3
	idx := &gatedIndex{ScoreIndex: res, arrived: make(chan [2]int, len(queries)), release: make(chan struct{})}
	srv := serverOver(idx, nil)
	srv.batchConcurrency = limit
	h := srv.Handler()
	answered := make(chan []byte)
	go func() {
		_, raw := postBatch(t, h, string(reqBody))
		answered <- raw
	}()
	for i := 0; i < limit; i++ {
		select {
		case <-idx.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d workers started an item", i, limit)
		}
	}
	// Every worker is now held inside an item; one more arrival would be
	// an item scored past the bound.
	select {
	case <-idx.arrived:
		t.Fatalf("more than batchConcurrency = %d items in flight", limit)
	case <-time.After(100 * time.Millisecond):
	}
	close(idx.release)
	if raw := <-answered; !bytes.Equal(raw, want) {
		t.Errorf("gated batch answered\n %s\nwant\n %s", raw, want)
	}

	// batchConcurrency 1: everything on the caller's goroutine, in order.
	idx = &gatedIndex{ScoreIndex: res, arrived: make(chan [2]int, len(queries)), release: make(chan struct{})}
	close(idx.release)
	srv = serverOver(idx, nil)
	srv.batchConcurrency = 1
	h = srv.Handler()
	if _, raw := postBatch(t, h, string(reqBody)); !bytes.Equal(raw, want) {
		t.Errorf("serial batch answered\n %s\nwant\n %s", raw, want)
	}
	for i, q := range queries {
		got := <-idx.arrived
		if id, _ := res.QueryID(q); got[0] != id {
			t.Errorf("item %d scored query %d, want %d (%q): out of request order", i, got[0], id, q)
		}
		if me := goroutineID(); got[1] != me {
			t.Errorf("item %d ran on goroutine %d, not the handler's %d", i, got[1], me)
		}
	}
}

// TestStatsServingSurface pins the /stats additions: the batch endpoint
// shows up with latency percentiles after traffic, and the mmap /
// topk_section fields report what the server is actually doing.
func TestStatsServingSurface(t *testing.T) {
	g := testGraph(t)
	path, _ := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
	mm, rd := openBoth(t, path)

	srv := serverOver(mm, nil)
	h := srv.Handler()
	body, _ := json.Marshal(BatchRequest{Queries: []string{g.Query(0), g.Query(1)}, Top: 2})
	for i := 0; i < 3; i++ {
		if code, raw := postBatch(t, h, string(body)); code != http.StatusOK {
			t.Fatalf("batch = %d: %s", code, raw)
		}
		if code, _ := get(t, h, "/rewrite?q="+g.Query(0)+"&top=2"); code != http.StatusOK {
			t.Fatalf("rewrite = %d", code)
		}
	}
	var stats StatsResponse
	if code, raw := get(t, h, "/stats"); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	} else if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("bad stats: %v", err)
	}
	if stats.Mmap != mm.Mmapped() {
		t.Errorf("stats.Mmap = %v on a snapshot with Mmapped() = %v", stats.Mmap, mm.Mmapped())
	}
	ts := stats.TopKSection
	if ts == nil || !ts.Present || ts.K != DefaultRewriteTopK || !ts.Serving || ts.BidFiltered {
		t.Errorf("topk_section = %+v, want present, k=%d, serving, unfiltered", ts, DefaultRewriteTopK)
	}
	be, ok := stats.Endpoints["batch"]
	if !ok || be.Requests != 3 {
		t.Errorf("endpoints[batch] = %+v (ok=%v), want 3 requests", be, ok)
	}
	if be.P50Ms <= 0 || be.P99Ms < be.P50Ms {
		t.Errorf("endpoints[batch] percentiles p50=%v p99=%v, want 0 < p50 <= p99", be.P50Ms, be.P99Ms)
	}
	re := stats.Endpoints["rewrite"]
	if re.Requests != 3 || re.P99Ms < re.P50Ms {
		t.Errorf("endpoints[rewrite] = %+v, want 3 requests with p50 <= p99", re)
	}

	// ReadAt-opened snapshot under a bid set the section was not built
	// with: mmap=false and serving=false, but the section is still
	// reported present.
	var rs StatsResponse
	hr := serverOver(rd, func(c *Config) { c.BidTerms = map[string]bool{} }).Handler()
	if _, raw := get(t, hr, "/stats"); json.Unmarshal(raw, &rs) != nil {
		t.Fatal("bad stats from the ReadAt-opened snapshot")
	}
	if rs.Mmap {
		t.Error("ReadAt-opened stats.Mmap = true")
	}
	if rs.TopKSection == nil || !rs.TopKSection.Present || rs.TopKSection.Serving {
		t.Errorf("ReadAt-opened topk_section = %+v, want present but not serving", rs.TopKSection)
	}

	// A section shallower than the default depth is not serving, though it
	// answers the default-depth requests whose lists are short.
	shallowPath, _ := writeTopKFile(t, g, TopKOptions{K: 4})
	shallow, err := OpenSnapshot(shallowPath)
	if err != nil {
		t.Fatal(err)
	}
	defer shallow.Close()
	var ss StatsResponse
	if _, raw := get(t, serverOver(shallow, nil).Handler(), "/stats"); json.Unmarshal(raw, &ss) != nil {
		t.Fatal("bad stats over the K = 4 section")
	}
	if ss.TopKSection == nil || !ss.TopKSection.Present || ss.TopKSection.Serving {
		t.Errorf("K = 4 topk_section under default top 5 = %+v, want present but not serving", ss.TopKSection)
	}
}

// readerAtLog is a snapshot's bytes that note the goroutine of every read
// and then take a few milliseconds over it, long enough for any worker a
// batch started to claim an item of its own.
type readerAtLog struct {
	b       []byte
	mu      sync.Mutex
	readers map[int]bool
}

func (r *readerAtLog) ReadAt(p []byte, off int64) (int, error) {
	r.mu.Lock()
	r.readers[goroutineID()] = true
	r.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	return bytes.NewReader(r.b).ReadAt(p, off)
}

// TestSectionBatchOnHandlerGoroutine: a batch the precomputed section
// answers starts no workers — every item, each one its shard's first
// touch of the section, is read on the handler's goroutine — and answers
// what the live pipeline answers.
func TestSectionBatchOnHandlerGoroutine(t *testing.T) {
	g := testGraph(t)
	path, res := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log := &readerAtLog{b: raw, readers: map[int]bool{}}
	snap, err := NewSnapshot(log, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	log.readers = map[int]bool{} // forget the header reads
	var queries []string
	for c := 0; c < 4; c++ {
		queries = append(queries, fmt.Sprintf("c%d-q0", c))
	}
	if snap.NumShards() < len(queries) {
		t.Fatalf("%d shards; the fixture needs one per query", snap.NumShards())
	}
	body, _ := json.Marshal(BatchRequest{Queries: queries, Top: 3})
	code, got := postBatch(t, serverOver(snap, nil).Handler(), string(body))
	if _, want := postBatch(t, pipelineServer(t, res, nil), string(body)); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("/batch = %d %s, the pipeline answers %s", code, got, want)
	}
	if me := goroutineID(); len(log.readers) != 1 || !log.readers[me] {
		t.Errorf("the section was read on goroutines %v, want only the handler's %d", log.readers, me)
	}
	if snap.LoadedSegments() != len(queries) {
		t.Errorf("%d segments loaded, want the %d queries' top-k blobs", snap.LoadedSegments(), len(queries))
	}
}
