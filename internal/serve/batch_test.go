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
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
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
// a batch deeper than the section's k is capped at k like a single
// /rewrite: at top 5 over a K = 2 section every item is the pipeline's
// answer at depth 2, the unknown query a 404 item among them.
func TestBatchPastSectionDepth(t *testing.T) {
	g := testGraph(t)
	for _, bc := range bidCases(g, 0) {
		t.Run(bc.name, func(t *testing.T) {
			path, _ := writeTopKFile(t, g, TopKOptions{K: 2, BidTerms: bc.bids})
			mm, err := OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			queries := []string{"no such query"}
			want := []json.RawMessage{BatchItemError{Query: queries[0], Error: `query "no such query" not in index`, Status: http.StatusNotFound}.Item()}
			for q := 0; q < g.NumQueries(); q++ {
				queries = append(queries, g.Query(q))
				want = append(want, bytes.TrimSuffix(pipelineBody(t, mm, bc.bids, g.Query(q), 2), []byte("\n")))
			}
			body, _ := json.Marshal(BatchRequest{Queries: queries, Top: 5})
			code, got := postBatch(t, serverOver(mm, func(c *Config) { c.BidTerms = bc.bids }).Handler(), string(body))
			if code != http.StatusOK || !bytes.Equal(got, EncodeBatchResponse(want)) {
				t.Fatalf("/batch at top 5 over a K = 2 section: %d %s\nthe pipeline at depth 2: %s", code, got, EncodeBatchResponse(want))
			}
		})
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
		`{"results":[` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `]}`,
	} {
		if got, ok := SplitBatchResponse(nil, []byte(body)); ok || got != nil {
			t.Errorf("Split(%s) = %s, ok %v; want a refusal", body, got, ok)
		}
		checkSplitAgainstUnmarshal(t, []byte(body))
	}

	// The nesting limit is json.Unmarshal's, counted from the top of the
	// body: an element 9 998 deep opens the 10 000th level and splits.
	deep := strings.Repeat("[", maxJSONDepth-2) + strings.Repeat("]", maxJSONDepth-2)
	body := []byte(`{"results":[1,` + deep + `]}`)
	if got, ok := SplitBatchResponse(nil, body); !ok || len(got) != 2 || string(got[1]) != deep {
		t.Errorf("Split of a %d-deep element = %d elements, ok %v; want it as the second of 2", maxJSONDepth-2, len(got), ok)
	}
	checkSplitAgainstUnmarshal(t, body)
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

// TestPlainBatchBodiesAreScanned: the bodies the hops send — json.Marshal's,
// as a gateway's sub-batch, and a client's without "top", spaced or not —
// are read by the scanner, not handed to json.Unmarshal, and read as
// Unmarshal reads them (FuzzReadBatchRequest holds the rest).
func TestPlainBatchBodiesAreScanned(t *testing.T) {
	marshaled, _ := json.Marshal(BatchRequest{Queries: []string{"camera", "digital camera", "a,b]c}d[e{f"}, Top: 3})
	for _, body := range []string{
		string(marshaled),
		`{"queries":["camera"]}`,
		" {\n\t\"queries\" : [ \"pc\" , \"tv\" ] , \"top\" : -0 }\r\n",
	} {
		var want BatchRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		got, ok := readPlainBatch([]byte(body))
		if !ok || !slices.Equal(got.Queries, want.Queries) || got.Top != want.Top {
			t.Errorf("readPlainBatch(%q) = %q top %d, ok %v; want %q top %d", body, got.Queries, got.Top, ok, want.Queries, want.Top)
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

// goroutineID reads the calling goroutine's id off its stack header.
func goroutineID() int {
	buf := make([]byte, 64)
	var id int
	fmt.Sscanf(string(buf[:runtime.Stack(buf, false)]), "goroutine %d ", &id)
	return id
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
	if ts == nil || !ts.Present || ts.K != DefaultRewriteTopK || ts.TopN != DefaultRewriteTopK || ts.BidFiltered {
		t.Errorf("topk_section = %+v, want present, k=top_n=%d, unfiltered", ts, DefaultRewriteTopK)
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

	// The ReadAt-opened snapshot reports mmap=false, and a section built
	// under a bid list reports it.
	var rs StatsResponse
	if _, raw := get(t, serverOver(rd, nil).Handler(), "/stats"); json.Unmarshal(raw, &rs) != nil {
		t.Fatal("bad stats from the ReadAt-opened snapshot")
	}
	if rs.Mmap {
		t.Error("ReadAt-opened stats.Mmap = true")
	}
	bidPath, _ := writeTopKFile(t, g, TopKOptions{K: 4, BidTerms: map[string]bool{}})
	bid, err := OpenSnapshot(bidPath)
	if err != nil {
		t.Fatal(err)
	}
	defer bid.Close()
	var bs StatsResponse
	if _, raw := get(t, serverOver(bid, func(c *Config) { c.BidTerms = map[string]bool{} }).Handler(), "/stats"); json.Unmarshal(raw, &bs) != nil {
		t.Fatal("bad stats over the K = 4 section")
	}
	if ts := bs.TopKSection; ts == nil || !ts.Present || ts.K != 4 || ts.TopN != 100 || !ts.BidFiltered {
		t.Errorf("K = 4 bid-filtered topk_section = %+v, want present, k=4, top_n=100, bid-filtered", ts)
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

// TestSectionBatchOnHandlerGoroutine: a batch starts no workers — every
// item, each one its shard's first touch of the section, is read on the
// handler's goroutine — and answers what the pipeline answers.
func TestSectionBatchOnHandlerGoroutine(t *testing.T) {
	g := testGraph(t)
	path, _ := writeTopKFile(t, g, TopKOptions{K: DefaultRewriteTopK})
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
	if me := goroutineID(); len(log.readers) != 1 || !log.readers[me] {
		t.Errorf("the section was read on goroutines %v, want only the handler's %d", log.readers, me)
	}
	if snap.LoadedSegments() != len(queries) {
		t.Errorf("%d segments loaded, want the %d queries' top-k blobs", snap.LoadedSegments(), len(queries))
	}
	// The reference reads the score segments, so it comes after the count.
	var want []json.RawMessage
	for _, q := range queries {
		want = append(want, bytes.TrimSuffix(pipelineBody(t, snap, nil, q, 3), []byte("\n")))
	}
	if code != http.StatusOK || !bytes.Equal(got, EncodeBatchResponse(want)) {
		t.Fatalf("/batch = %d %s, the pipeline answers %s", code, got, EncodeBatchResponse(want))
	}
}
