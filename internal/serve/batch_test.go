package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
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

	big, _ := json.Marshal(BatchRequest{Queries: make([]string, DefaultServerConfig().MaxBatch+1)})
	for name, body := range map[string]string{
		"malformed":    `{"queries": [`,
		"empty":        `{"queries": []}`,
		"negative-top": `{"queries": ["camera"], "top": -1}`,
		"oversized":    string(big),
	} {
		if code, raw := postBatch(t, h, body); code != http.StatusBadRequest {
			t.Errorf("%s: /batch = %d (%s), want 400", name, code, raw)
		}
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

	// ReadAt-opened snapshot with the section disabled: mmap=false and
	// serving=false, but the section is still reported present.
	var rs StatsResponse
	hr := serverOver(rd, func(c *Config) { c.DisablePrecomputed = true }).Handler()
	if _, raw := get(t, hr, "/stats"); json.Unmarshal(raw, &rs) != nil {
		t.Fatal("bad stats from the ReadAt-opened snapshot")
	}
	if rs.Mmap {
		t.Error("ReadAt-opened stats.Mmap = true")
	}
	if rs.TopKSection == nil || !rs.TopKSection.Present || rs.TopKSection.Serving {
		t.Errorf("ReadAt-opened topk_section = %+v, want present but not serving", rs.TopKSection)
	}
}
