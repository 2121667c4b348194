package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// postBatch issues one POST /batch against a handler.
func postBatch(t *testing.T, h http.Handler, body string) (int, http.Header, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// TestGatewayBatchRelay pins the /batch relay: queries spanning several
// shards go out as shard-affine sub-batches and merge back in request
// order, byte-identical per item to what the single /rewrite endpoint
// answers through the same gateway, stamped with the pinned generation.
func TestGatewayBatchRelay(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	gw := newGateway(t, Options{Router: snap}, r0, r1)
	h := gw.Handler()

	// Queries from three different clusters (different shards) plus an
	// unknown one mid-batch.
	queries := []string{"c0-q1", "c2-q3", "nope", "c1-q5", "c0-q1"}
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 3})
	code, hdr, raw := postBatch(t, h, string(body))
	if code != http.StatusOK {
		t.Fatalf("gateway /batch = %d: %s", code, raw)
	}
	if hdr.Get("Simrank-Generation") != gw.Pinned() || gw.Pinned() == "" {
		t.Fatalf("Simrank-Generation = %q, pinned %q", hdr.Get("Simrank-Generation"), gw.Pinned())
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad batch response %s: %v", raw, err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		if q == "nope" {
			var item serve.BatchItemError
			if err := json.Unmarshal(resp.Results[i], &item); err != nil || item.Status != http.StatusNotFound {
				t.Fatalf("result[%d] = %s, want a 404 item", i, resp.Results[i])
			}
			continue
		}
		sc, _, sb := get(t, h, "/rewrite?q="+url.QueryEscape(q)+"&top=3")
		if sc != http.StatusOK {
			t.Fatalf("gateway /rewrite for %q = %d", q, sc)
		}
		want := bytes.TrimSuffix(sb, []byte("\n"))
		if !bytes.Equal(resp.Results[i], want) {
			t.Fatalf("result[%d] = %s, single endpoint = %s", i, resp.Results[i], want)
		}
	}

	// Method and body validation happen at the gateway, before any relay.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /batch = %d Allow=%q, want 405 POST", rec.Code, rec.Header().Get("Allow"))
	}
	if code, _, _ := postBatch(t, h, `{"queries": []}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
}

// TestGatewayBatchAllDown: a fleet that died after the probe sweep pinned
// a generation still answers the batch 200, with a 503 item per query —
// the pin is what the gateway stays consistent with, and only an unpinned
// gateway answers the all-down 503. TestGatewayBatchDegradesPerSubBatch
// is the case where part of the fleet survives.
func TestGatewayBatchAllDown(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	rep := startReplica(t, snap, 1)
	gw := newGateway(t, Options{Router: snap}, rep)
	rep.ts.Close() // fleet dies after the probe sweep pinned the generation

	body, _ := json.Marshal(serve.BatchRequest{Queries: []string{"c0-q1", "c1-q2"}, Top: 2})
	code, _, raw := postBatch(t, gw.Handler(), string(body))
	// The generation is still pinned, so the gateway reports per-item
	// errors rather than dropping the pin.
	if code != http.StatusOK {
		t.Fatalf("batch with dead fleet = %d: %s", code, raw)
	}
	var resp serve.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != 2 {
		t.Fatalf("bad degraded response %s: %v", raw, err)
	}
	for i, r := range resp.Results {
		var item serve.BatchItemError
		if err := json.Unmarshal(r, &item); err != nil || item.Status != http.StatusServiceUnavailable {
			t.Fatalf("result[%d] = %s, want a 503 item", i, r)
		}
	}
}

// directPost sends body to a replica's /batch without the gateway.
func directPost(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// batchLog is replica middleware recording the queries of every /batch
// the replica receives, in arrival order.
type batchLog struct {
	mu    sync.Mutex
	calls [][]string
}

func (l *batchLog) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/batch" {
			body, _ := io.ReadAll(r.Body)
			var req serve.BatchRequest
			json.Unmarshal(body, &req) // a body the replica will refuse logs as no queries
			l.mu.Lock()
			l.calls = append(l.calls, req.Queries)
			l.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	})
}

// take returns the calls logged since the last take.
func (l *batchLog) take() [][]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

// loggedFleet starts one logging replica per shard list (nil: the whole
// snapshot) and a routed, probed gateway over them.
func loggedFleet(t *testing.T, snap *serve.Snapshot, opt Options, shards ...[]int) (*Gateway, []*replica, []*batchLog) {
	t.Helper()
	reps, logs := make([]*replica, len(shards)), make([]*batchLog, len(shards))
	for i, held := range shards {
		logs[i] = &batchLog{}
		reps[i] = startWrappedReplica(t, snap, 1, logs[i].wrap)
		opt.Backends = append(opt.Backends, BackendSpec{URL: reps[i].ts.URL, Shards: held})
	}
	opt.Router = snap
	gw, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	return gw, reps, logs
}

// queryOfShard returns one fixture query per snapshot shard.
func queryOfShard(t *testing.T, snap *serve.Snapshot) []string {
	t.Helper()
	out := make([]string, snap.NumShards())
	for c := 0; c < 4; c++ {
		for q := 0; q < 10; q++ {
			name := fmt.Sprintf("c%d-q%d", c, q)
			if _, shard, ok := snap.PrevQuery(name); ok && out[shard] == "" {
				out[shard] = name
			}
		}
	}
	if len(out) < 5 || slices.Contains(out, "") {
		t.Fatalf("fixture has a shard without a query: %q", out)
	}
	return out
}

// itemQueries decodes a /batch body into each item's "query" field —
// answers and error items both carry it — and its status (0: an answer).
func itemQueries(t *testing.T, raw []byte) (queries []string, status []int) {
	t.Helper()
	var resp serve.BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("bad batch response %s: %v", raw, err)
	}
	for _, r := range resp.Results {
		var item serve.BatchItemError
		if err := json.Unmarshal(r, &item); err != nil {
			t.Fatalf("bad batch item %s: %v", r, err)
		}
		queries, status = append(queries, item.Query), append(status, item.Status)
	}
	return queries, status
}

// TestGatewayBatchOneHopPerReplicaSet pins the merge: with every replica
// holding the whole snapshot, a batch spanning several shards, an unknown
// query and a duplicate is ONE upstream call, answered with the bytes the
// replica would have sent the client directly, and consecutive batches
// alternate replicas.
func TestGatewayBatchOneHopPerReplicaSet(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	gw, reps, logs := loggedFleet(t, snap, Options{}, nil, nil)
	h := gw.Handler()

	of := queryOfShard(t, snap)
	queries := []string{of[0], of[3], "nope", of[5], of[0], of[6]}
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 3})
	wantCode, want := directPost(t, reps[0].ts.URL, string(body))
	logs[0].take()

	const rounds = 4
	last := -1
	for round := 0; round < rounds; round++ {
		code, hdr, raw := postBatch(t, h, string(body))
		if code != wantCode || !bytes.Equal(raw, want) {
			t.Fatalf("gateway /batch = %d %s\nreplica direct = %d %s", code, raw, wantCode, want)
		}
		if hdr.Get("Simrank-Generation") != gw.Pinned() {
			t.Fatalf("Simrank-Generation = %q, pinned %q", hdr.Get("Simrank-Generation"), gw.Pinned())
		}
		calls := [2][][]string{logs[0].take(), logs[1].take()}
		served := 0
		if len(calls[0]) == 0 {
			served = 1
		}
		if len(calls[0])+len(calls[1]) != 1 || !slices.Equal(calls[served][0], queries) {
			t.Fatalf("round %d: upstream /batch calls = %q, want one carrying %q", round, calls, queries)
		}
		if served == last {
			t.Fatalf("round %d: replica %d served two batches running: the rotation does not alternate", round, served)
		}
		last = served
	}

	_, _, raw := get(t, h, "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Batches != rounds || stats.BatchSubrequests != rounds {
		t.Errorf("/stats batches=%d batch_subrequests=%d, want %d and %d", stats.Batches, stats.BatchSubrequests, rounds, rounds)
	}
}

// TestGatewayBatchPartitionedFleet: on a partitioned fleet a batch is one
// call per distinct candidate list, no replica is sent a query of a shard
// it does not hold, and the merged results keep request order.
func TestGatewayBatchPartitionedFleet(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	held := [][]int{{0, 1}, {2, 3}, nil}
	gw, _, logs := loggedFleet(t, snap, Options{}, held...)

	of := queryOfShard(t, snap)
	// Lists: shards 0,1 → {r0, r2}; shards 2,3 → {r1, r2}; shard 4 → {r2};
	// the unknown query → any of the three.
	queries := []string{of[2], of[0], "nope", of[4], of[1], of[3], of[0]}
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 2})
	for round := 0; round < 3; round++ { // every rotation
		code, _, raw := postBatch(t, gw.Handler(), string(body))
		if code != http.StatusOK {
			t.Fatalf("/batch = %d: %s", code, raw)
		}
		got, status := itemQueries(t, raw)
		if !slices.Equal(got, queries) {
			t.Fatalf("results answer %q, want request order %q", got, queries)
		}
		for i, st := range status {
			want := 0
			if queries[i] == "nope" {
				want = http.StatusNotFound
			}
			if st != want {
				t.Errorf("result[%d] (%s) status %d, want %d", i, queries[i], st, want)
			}
		}
		calls := 0
		for ri, l := range logs {
			for _, call := range l.take() {
				calls++
				for _, q := range call {
					_, shard, known := snap.PrevQuery(q)
					if known && held[ri] != nil && !slices.Contains(held[ri], shard) {
						t.Errorf("replica %d (shards %v) was sent %q of shard %d", ri, held[ri], q, shard)
					}
				}
			}
		}
		if calls != 4 {
			t.Errorf("round %d: %d upstream calls, want 4 (one per distinct candidate list)", round, calls)
		}
	}
}

// TestGatewayBatchDegradesPerSubBatch: with two disjoint partitions and
// one of them dead since the probe, only the dead one's positions become
// 503 items; the other's answer, under the still-pinned generation.
func TestGatewayBatchDegradesPerSubBatch(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	gw, reps, _ := loggedFleet(t, snap, Options{}, []int{0, 1}, []int{2, 3})
	gw.attempts = 2
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	reps[1].ts.Close()

	of := queryOfShard(t, snap)
	queries := []string{of[2], of[0], of[3], of[1]}
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 2})
	code, hdr, raw := postBatch(t, gw.Handler(), string(body))
	if code != http.StatusOK {
		t.Fatalf("/batch = %d: %s", code, raw)
	}
	if hdr.Get("Simrank-Generation") != gw.Pinned() || gw.Pinned() == "" {
		t.Errorf("Simrank-Generation = %q, pinned %q", hdr.Get("Simrank-Generation"), gw.Pinned())
	}
	got, status := itemQueries(t, raw)
	if !slices.Equal(got, queries) {
		t.Fatalf("results answer %q, want request order %q", got, queries)
	}
	if want := []int{http.StatusServiceUnavailable, 0, http.StatusServiceUnavailable, 0}; !slices.Equal(status, want) {
		t.Errorf("item statuses %v, want %v (only the dead partition's positions fail)", status, want)
	}
}

// TestGatewayBatchKeepsQuarantineOrder: two degraded replicas, each with
// a different shard quarantined. A query of either shard must try the
// replica whose copy is clean first, so the two shards' candidate lists
// run in opposite orders and are never merged into one that would start
// on a quarantined copy.
func TestGatewayBatchKeepsQuarantineOrder(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	gw, _, logs := loggedFleet(t, snap, Options{}, nil, nil)
	of := queryOfShard(t, snap)
	for i, b := range gw.backends { // replica i has lost its copy of shard i's lists
		b.observe(HealthDegraded, gw.Pinned(), 1, []serve.ShardHealth{{Side: "topk", Shard: i}}, nil)
	}

	// of[4] is clean on both: it joins whichever list the rotation agrees with.
	queries := []string{of[0], of[4], of[1], of[0]}
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 2})
	for round := 0; round < 2; round++ {
		code, _, raw := postBatch(t, gw.Handler(), string(body))
		if code != http.StatusOK {
			t.Fatalf("/batch = %d: %s", code, raw)
		}
		if got, _ := itemQueries(t, raw); !slices.Equal(got, queries) {
			t.Fatalf("results answer %q, want request order %q", got, queries)
		}
		var sent [2][]string
		for ri, l := range logs {
			calls := l.take()
			if len(calls) != 1 {
				t.Fatalf("round %d: replica %d got %d sub-requests, want 1 of 2", round, ri, len(calls))
			}
			sent[ri] = calls[0]
		}
		if slices.Contains(sent[0], of[0]) || !slices.Contains(sent[1], of[0]) {
			t.Errorf("round %d: %q (quarantined on replica 0) went to replica 0 %q, not replica 1 %q", round, of[0], sent[0], sent[1])
		}
		if slices.Contains(sent[1], of[1]) || !slices.Contains(sent[0], of[1]) {
			t.Errorf("round %d: %q (quarantined on replica 1) went to replica 1 %q, not replica 0 %q", round, of[1], sent[1], sent[0])
		}
	}
}

// TestGatewayBatchCap: the fleet refuses what one daemon refuses. A batch
// above the replica's MaxBatch is a 400 at the gateway, in the replica's
// words, routed or not — not a 200 whose sub-batches happened to fit —
// and so is a body with anything but whitespace after its one JSON object,
// which a decoder that stops at the first value would answer in part, and
// a negative top, which every sub-batch would refuse item by item.
func TestGatewayBatchCap(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	rep := startReplica(t, snap, 1)
	of := queryOfShard(t, snap)
	queries := make([]string, 300)
	for i := range queries {
		queries[i] = of[i%len(of)] // no shard sees more than 38 of them
	}
	oversized, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 1})
	one, _ := json.Marshal(serve.BatchRequest{Queries: of[:1], Top: 1})
	for name, body := range map[string]string{
		"oversized":        string(oversized),
		"second object":    string(one) + string(one),
		"trailing garbage": string(one) + " garbage",
		"negative top":     fmt.Sprintf(`{"queries":[%q],"top":-1}`, of[0]),
	} {
		wantCode, want := directPost(t, rep.ts.URL, body)
		if wantCode != http.StatusBadRequest {
			t.Fatalf("%s: replica answered %d: %s", name, wantCode, want)
		}
		for fleet, opt := range map[string]Options{"routed": {Router: snap}, "unrouted": {}} {
			gw := newGateway(t, opt, rep)
			code, _, raw := postBatch(t, gw.Handler(), body)
			if code != wantCode || !bytes.Equal(raw, want) {
				t.Errorf("%s: %s gateway = %d %s, replica direct = %d %s", name, fleet, code, raw, wantCode, want)
			}
			if n := gw.batches.Load(); n != 0 {
				t.Errorf("%s: %s gateway relayed %d refused batches", name, fleet, n)
			}
		}
	}
}

// scriptedBatchReplica is a replica of the given generation whose /batch
// answers 200 with body, whatever it was asked.
func scriptedBatchReplica(t *testing.T, gen string, body []byte) *httptest.Server {
	t.Helper()
	return fakeBackend(t, gen, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// TestGatewayBatchMalformedSubResponse pins what the relay does with a 200
// it cannot take apart — the checks json.Unmarshal used to make, now
// serve's splitter: invalid JSON, a results array of the
// wrong length, valid JSON that is not the envelope. Every position of
// that sub-batch becomes a 502 item carrying the start of the answer, and
// the other sub-batch's positions are answered as if nothing had happened.
func TestGatewayBatchMalformedSubResponse(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	var others []int
	for s := 2; s < snap.NumShards(); s++ {
		others = append(others, s)
	}
	good := startReplica(t, snap, 1)

	of := queryOfShard(t, snap)
	queries := []string{of[0], of[2], of[1]} // positions 0 and 2 go to the scripted replica
	body, _ := json.Marshal(serve.BatchRequest{Queries: queries, Top: 2})
	_, wantGood := directPost(t, good.ts.URL, fmt.Sprintf(`{"queries":[%q],"top":2}`, of[2]))
	var goodResp serve.BatchResponse
	if err := json.Unmarshal(wantGood, &goodResp); err != nil || len(goodResp.Results) != 1 {
		t.Fatalf("replica direct answered %s (err %v)", wantGood, err)
	}

	long := `{"results":[{"query":"` + strings.Repeat("x", 300) + `"}]}`
	for name, answer := range map[string]string{
		"invalid JSON":     `{"results":[{"query":"a"},{"query":"b"]}`,
		"cut short":        `{"results":[{"query":"a"},{"que`,
		"one element less": `{"results":[{"query":"a"}]}`,
		"one element more": `{"results":[1,2,3]}`,
		"a bare array":     `[]`,
		"results object":   `{"results":{}}`,
		"long and wrong":   long,
	} {
		bad := scriptedBatchReplica(t, snap.Meta().Fingerprint, []byte(answer))
		gw, err := New(Options{Router: snap, Backends: []BackendSpec{
			{URL: bad.URL, Shards: []int{0, 1}},
			{URL: good.ts.URL, Shards: others},
		}})
		if err != nil {
			t.Fatal(err)
		}
		gw.ProbeAll(context.Background())
		code, _, raw := postBatch(t, gw.Handler(), string(body))
		if code != http.StatusOK {
			t.Fatalf("%s: /batch = %d: %s", name, code, raw)
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != len(queries) {
			t.Fatalf("%s: gateway answered %s (err %v)", name, raw, err)
		}
		detail := answer
		if len(detail) > 200 {
			detail = detail[:200] + "..."
		}
		for _, i := range []int{0, 2} {
			var item serve.BatchItemError
			if err := json.Unmarshal(resp.Results[i], &item); err != nil {
				t.Fatalf("%s: result[%d] = %s: %v", name, i, resp.Results[i], err)
			}
			if want := (serve.BatchItemError{Query: queries[i], Error: detail, Status: http.StatusBadGateway}); item != want {
				t.Errorf("%s: result[%d] = %+v, want %+v", name, i, item, want)
			}
		}
		if !bytes.Equal(resp.Results[1], goodResp.Results[0]) {
			t.Errorf("%s: result[1] = %s, the healthy sub-batch's replica says %s", name, resp.Results[1], goodResp.Results[0])
		}
	}
}

// largeBatchAnswer is a well-formed three-item /batch answer for
// {"queries":["q0","q1","q2"]} past maxPresize: the buffer it is read into
// grows with the bytes that arrive.
func largeBatchAnswer(t *testing.T) []byte {
	t.Helper()
	items := make([]json.RawMessage, 3)
	for i := range items {
		items[i], _ = json.Marshal(serve.BatchItemError{Query: fmt.Sprint("q", i), Error: strings.Repeat("0123456789abcdef", (128<<10)/16), Status: 404})
	}
	want := serve.EncodeBatchResponse(items)
	if len(want) <= maxPresize {
		t.Fatalf("fixture body is %d bytes, want it past maxPresize (%d)", len(want), maxPresize)
	}
	return want
}

// TestGatewayBatchRelaysLargeSubResponse: a well-formed sub-response past
// the presized buffer is relayed, byte for byte.
func TestGatewayBatchRelaysLargeSubResponse(t *testing.T) {
	want := largeBatchAnswer(t)
	ts := scriptedBatchReplica(t, "g1", want)
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	code, _, raw := postBatch(t, gw.Handler(), `{"queries":["q0","q1","q2"]}`)
	if code != http.StatusOK || !bytes.Equal(raw, want) {
		t.Fatalf("/batch = %d, %d bytes (head %.60q); want the replica's %d bytes", code, len(raw), raw, len(want))
	}
}

// TestGatewayStreamsLargeBody: a success body twice the presized buffer
// (512 KiB) is relayed intact, neither truncated nor refused.
func TestGatewayStreamsLargeBody(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (512<<10)/16)
	ts := fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		w.Write(big)
	})
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(t.Context())

	code, _, body := get(t, gw.Handler(), "/rewrite?q=x")
	if code != http.StatusOK {
		t.Fatalf("GET = %d", code)
	}
	if !bytes.Equal(body, big) {
		t.Fatalf("relayed body corrupted: got %d bytes (want %d), head %q", len(body), len(big), body[:32])
	}
}

// cutReplica declares answer's length on every read, sends its first cut
// bytes and hangs up, counting the reads in hits.
func cutReplica(t *testing.T, answer []byte, cut int, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	return fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.Write(answer[:cut])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
}

// TestGatewayCutTransferFailsOver: a replica that declares 512 KiB and
// hangs up after 300 KiB has failed the launch, so every read — each
// starting at the cut replica — fails over and carries the healthy
// replica's 512 KiB whole, for a GET and for a /batch sub-answer alike.
// (A gateway that streamed answers past its buffer relayed the GET as a
// 200 with 300 KiB, and turned every batch item into a 503.)
func TestGatewayCutTransferFailsOver(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (512<<10)/16)
	batch := largeBatchAnswer(t)
	for _, tc := range []struct {
		name   string
		answer []byte
		read   func(h http.Handler) (int, http.Header, []byte)
	}{
		{"GET", big, func(h http.Handler) (int, http.Header, []byte) { return get(t, h, "/rewrite?q=x") }},
		{"batch", batch, func(h http.Handler) (int, http.Header, []byte) {
			return postBatch(t, h, `{"queries":["q0","q1","q2"]}`)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int64
			cut := cutReplica(t, tc.answer, 300<<10, &hits)
			good := scriptedBatchReplica(t, "g1", tc.answer)
			gw, err := New(Options{Backends: []BackendSpec{{URL: cut.URL}, {URL: good.URL}}})
			if err != nil {
				t.Fatal(err)
			}
			gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
			gw.breakerCooldown = 0 // the cut replica stays every read's first choice
			gw.ProbeAll(t.Context())
			h := gw.Handler()
			const reads = 4
			for i := range reads {
				setPrimary(gw, 0)
				code, _, body := tc.read(h)
				if code != http.StatusOK || !bytes.Equal(body, tc.answer) {
					t.Fatalf("read %d = %d, %d bytes (head %.60q); want 200 with the healthy replica's %d bytes",
						i, code, len(body), body, len(tc.answer))
				}
			}
			if n := hits.Load(); n != reads {
				t.Errorf("the cut replica saw %d reads, want %d: not every read started there", n, reads)
			}
			if n := gw.failovers.Load(); n != reads {
				t.Errorf("%d failovers counted, want %d", n, reads)
			}
		})
	}
}

// TestGatewayAnswerPastBoundFailsLaunch: an answer longer than the
// gateway's bound fails its launch — neither held whole nor relayed in
// part — whether its length is declared or chunked; one at the bound is
// relayed.
func TestGatewayAnswerPastBoundFailsLaunch(t *testing.T) {
	const bound = 4 << 10
	var calls atomic.Int64
	ts := fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		n := bound
		if r.URL.Query().Has("past") {
			n++
		}
		if !r.URL.Query().Has("chunked") {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		w.Write(bytes.Repeat([]byte("x"), n))
	})
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.maxAnswer = bound
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
	gw.breakerCooldown = 0 // the failed reads below leave the replica admitted
	gw.ProbeAll(t.Context())
	h := gw.Handler()
	for _, mode := range []string{"declared", "chunked"} {
		if code, _, body := get(t, h, "/rewrite?q=x&"+mode); code != http.StatusOK || len(body) != bound {
			t.Fatalf("%s: an answer at the bound = %d, %d bytes; want 200 with %d", mode, code, len(body), bound)
		}
		calls.Store(0)
		code, _, body := get(t, h, "/rewrite?q=x&past&"+mode)
		if code != http.StatusServiceUnavailable || bytes.Contains(body, []byte("xxxx")) {
			t.Fatalf("%s: an answer past the bound = %d %.80q; want the gateway's 503", mode, code, body)
		}
		if n := calls.Load(); n != int64(gw.attempts) {
			t.Errorf("%s: %d launches, want %d: each answer past the bound fails its round", mode, n, gw.attempts)
		}
	}
}

// TestGatewayCapsErrorBody: a 5xx backend's body is read only up to
// errBodyCap (hedge.ResponseError's cap) for the failure detail — the
// gateway's own 503 carries a truncated message, not megabytes of backend
// spew.
func TestGatewayCapsErrorBody(t *testing.T) {
	const errBodyCap = 4 << 10
	spew := strings.Repeat("x", 1<<20)
	ts := fakeBackend(t, "g1", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, spew, http.StatusInternalServerError)
	})
	gw, err := New(Options{Backends: []BackendSpec{{URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.attempts = 1
	gw.ProbeAll(t.Context())

	code, _, body := get(t, gw.Handler(), "/rewrite?q=x")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET = %d, want 503 after exhausted attempts", code)
	}
	if len(body) > errBodyCap {
		t.Fatalf("gateway error body is %d bytes; detail should be capped near %d", len(body), errBodyCap)
	}
	if !bytes.Contains(body, []byte("x")) {
		t.Fatalf("backend detail lost entirely: %q", body)
	}
}
