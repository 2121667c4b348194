package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/faultfs"
)

// These are the fault-injection ("chaos") tests of the serving layer:
// every failure mode the daemon claims to survive — a corrupt segment, a
// slow disk, an overload burst, a panicking handler — is induced
// deterministically through a faultfs.Injector (or a panicking reader)
// and the promised degraded behavior is asserted, including recovery once
// the fault clears.

// chaosSnapshot builds a multi-shard snapshot with a top-k section, as
// simrank -save writes it, and opens it through a fault injector, so
// tests can corrupt, delay or fail its reads at will.
func chaosSnapshot(t *testing.T) (*Snapshot, *faultfs.Injector) {
	t.Helper()
	res, _, _ := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	data := snapshotBytes(t, res, DefaultRewriteTopK)
	inj := faultfs.NewInjector()
	snap, err := NewSnapshot(faultfs.Wrap(bytes.NewReader(data), inj), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumShards() < 3 {
		t.Fatalf("chaos fixture has %d shards; need >= 3 for isolation tests", snap.NumShards())
	}
	return snap, inj
}

// distinctShardQueries returns n query names routed to n distinct shards.
func distinctShardQueries(t *testing.T, snap *Snapshot, n int) []string {
	t.Helper()
	seen := make(map[uint32]bool)
	var out []string
	for q := 0; q < snap.NumQueries() && len(out) < n; q++ {
		if sh := snap.qRoute[q]; !seen[sh] {
			seen[sh] = true
			out = append(out, snap.Query(q))
		}
	}
	if len(out) < n {
		t.Fatalf("only %d distinct shards among queries, need %d", len(out), n)
	}
	return out
}

func rewriteURL(q string) string { return "/rewrite?q=" + url.QueryEscape(q) }

// TestChaosBitFlipQuarantinesOneShard is the headline degraded-mode
// scenario: a bit flip corrupts one shard's top-k blob, what its /rewrite
// reads; that shard is quarantined with escalating backoff while every
// other shard keeps answering; /readyz reports degraded with the shard
// listed; and once the fault clears and the backoff elapses, the shard
// recovers — no restart, no reload.
func TestChaosBitFlipQuarantinesOneShard(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	cur := time.Unix(1_700_000_000, 0)
	snap.now = func() time.Time { return cur }
	// Pin the jitter at its ceiling so the retryAt assertions below see
	// the undithered exponential schedule.
	snap.quarantine.Jitter = func() float64 { return 1 }

	qs := distinctShardQueries(t, snap, 2)
	victim, healthy := qs[0], qs[1]
	vid, _ := snap.QueryID(victim)
	vShard := int(snap.qRoute[vid])
	if snap.dir[vShard].tkLen <= 8 {
		t.Fatalf("victim shard %d has no top-k lists to corrupt", vShard)
	}
	// Flip one bit in the victim shard's top-k blob: the CRC check on lazy
	// load must catch it.
	inj.FlipBit(int64(snap.dir[vShard].tkOff)+8, 3)

	cfg := DefaultServerConfig()
	cfg.MaxInFlight = 0
	cfg.RequestTimeout = 0
	srv := NewServer(snap, cfg)
	h := srv.Handler()

	// First touch: the load fails, the shard is quarantined.
	if code, body := get(t, h, rewriteURL(victim)); code != http.StatusInternalServerError {
		t.Fatalf("corrupt-shard rewrite = %d, want 500: %s", code, body)
	}
	quar := snap.Quarantined()
	if len(quar) != 1 || quar[0].Shard != vShard || quar[0].Side != "topk" || quar[0].Failures != 1 {
		t.Fatalf("after first failure Quarantined() = %+v, want shard %d topk side, 1 failure", quar, vShard)
	}
	if want := cur.Add(time.Second); !quar[0].RetryAt.Equal(want) {
		t.Fatalf("first-failure retryAt = %v, want %v", quar[0].RetryAt, want)
	}

	// Inside the backoff window the failure is remembered, not re-read.
	calls := inj.Calls()
	if code, _ := get(t, h, rewriteURL(victim)); code != http.StatusInternalServerError {
		t.Fatalf("quarantined rewrite = %d, want 500", code)
	}
	if got := inj.Calls(); got != calls {
		t.Fatalf("quarantined request touched the disk (%d reads, was %d)", got, calls)
	}

	// Past the backoff with the fault still present: one retry, failure
	// count escalates, backoff doubles.
	cur = cur.Add(time.Second)
	if code, _ := get(t, h, rewriteURL(victim)); code != http.StatusInternalServerError {
		t.Fatalf("retry under persistent fault = %d, want 500", code)
	}
	if got := inj.Calls(); got == calls {
		t.Fatal("elapsed backoff did not trigger a retry read")
	}
	quar = snap.Quarantined()
	if len(quar) != 1 || quar[0].Failures != 2 {
		t.Fatalf("after second failure Quarantined() = %+v, want 2 failures", quar)
	}
	if want := cur.Add(2 * time.Second); !quar[0].RetryAt.Equal(want) {
		t.Fatalf("second-failure retryAt = %v, want doubled backoff %v", quar[0].RetryAt, want)
	}

	// Every other shard answers while the victim is quarantined.
	code, body := get(t, h, rewriteURL(healthy))
	if code != http.StatusOK {
		t.Fatalf("healthy-shard rewrite = %d during quarantine: %s", code, body)
	}
	var resp rewriteResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Rewrites) == 0 {
		t.Fatalf("healthy-shard rewrite returned no candidates during quarantine: %s", body)
	}

	// /readyz: degraded (HTTP 200 — the daemon still serves most traffic),
	// with the quarantined shard listed.
	code, body = get(t, h, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("degraded /readyz = %d, want 200: %s", code, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "degraded" || len(ready.Quarantined) != 1 || ready.Quarantined[0].Shard != vShard {
		t.Fatalf("/readyz = %+v, want degraded with shard %d listed", ready, vShard)
	}

	// /stats mirrors the degraded detail.
	_, body = get(t, h, "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.QuarantinedShards != 1 || stats.IndexError == "" {
		t.Fatalf("/stats quarantined_shards = %d (index_error %q), want 1 with an error recorded",
			stats.QuarantinedShards, stats.IndexError)
	}

	// Fault clears, but the backoff has not elapsed: still quarantined,
	// still no disk touch.
	inj.ClearFlips()
	calls = inj.Calls()
	if code, _ := get(t, h, rewriteURL(victim)); code != http.StatusInternalServerError {
		t.Fatalf("pre-backoff rewrite after fault cleared = %d, want 500 (still quarantined)", code)
	}
	if got := inj.Calls(); got != calls {
		t.Fatal("pre-backoff request touched the disk")
	}

	// Backoff elapses: the next touch reloads, the shard recovers.
	cur = cur.Add(2 * time.Second)
	code, body = get(t, h, rewriteURL(victim))
	if code != http.StatusOK {
		t.Fatalf("recovered-shard rewrite = %d, want 200: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Rewrites) == 0 {
		t.Fatalf("recovered shard returned no candidates: %s", body)
	}
	if quar := snap.Quarantined(); len(quar) != 0 {
		t.Fatalf("Quarantined() = %+v after recovery, want empty", quar)
	}
	code, body = get(t, h, "/readyz")
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || ready.Status != "ok" {
		t.Fatalf("/readyz after recovery = %d %+v, want 200 ok", code, ready)
	}
}

// TestChaosSimilarFailsOnCorruptSegment: /similar reads the score
// segments, and a corrupt one must fail it as a corrupt blob fails
// /rewrite — 500 on the first touch and inside the backoff window, without
// a disk read there — never a 200 with an empty ranking, which a gateway
// relays as final instead of failing over. ?q= reads the shard's query
// segment, ?ad= its ad segment; both recover once the fault clears and the
// backoff elapses.
func TestChaosSimilarFailsOnCorruptSegment(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	cur := time.Unix(1_700_000_000, 0)
	snap.now = func() time.Time { return cur }

	q := distinctShardQueries(t, snap, 1)[0]
	shard := snap.qRoute[mustQueryID(t, snap, q)]
	ad := ""
	for a := 0; a < snap.NumAds() && ad == ""; a++ {
		if snap.aRoute[a] == shard {
			ad = snap.Ad(a)
		}
	}
	if ad == "" || snap.dir[shard].qPairs == 0 || snap.dir[shard].aPairs == 0 {
		t.Fatalf("shard %d lacks an ad or pairs on both sides", shard)
	}
	inj.FlipBit(int64(snap.dir[shard].qOff)+8, 3)
	inj.FlipBit(int64(snap.dir[shard].aOff)+8, 3)

	cfg := DefaultServerConfig()
	cfg.MaxInFlight = 0
	cfg.RequestTimeout = 0
	h := NewServer(snap, cfg).Handler()
	urls := []string{"/similar?q=" + url.QueryEscape(q), "/similar?ad=" + url.QueryEscape(ad)}
	for _, u := range urls {
		if code, body := get(t, h, u); code != http.StatusInternalServerError {
			t.Fatalf("%s over a corrupt segment = %d, want 500: %s", u, code, body)
		}
		calls := inj.Calls()
		if code, body := get(t, h, u); code != http.StatusInternalServerError {
			t.Fatalf("%s inside the backoff window = %d, want 500: %s", u, code, body)
		}
		if got := inj.Calls(); got != calls {
			t.Fatalf("%s inside the backoff window read the disk (%d reads, was %d)", u, got, calls)
		}
	}

	inj.ClearFlips()
	cur = cur.Add(time.Minute)
	for _, u := range urls {
		code, body := get(t, h, u)
		var resp rewriteResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || len(resp.Rewrites) == 0 {
			t.Fatalf("%s after recovery = %d %s, want 200 with a ranking", u, code, body)
		}
	}
}

// TestChaosReadyzUnreadyWhenAllShardsDead pins the degraded/unready
// boundary: quarantining every segment of every shard turns /readyz into
// a 503, because nothing can be answered anymore.
func TestChaosReadyzUnreadyWhenAllShardsDead(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	inj.FailAfter(0, nil) // every read fails from now on
	if err := snap.PreloadAll(); err == nil {
		t.Fatal("PreloadAll succeeded with all reads failing")
	}
	// PreloadAll touches every segment whatever fails: each shard's query
	// and ad segments and its top-k blob are now quarantined.
	srv := NewServer(snap, DefaultServerConfig())
	code, body := get(t, srv.Handler(), "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead /readyz = %d, want 503: %s", code, body)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "unready" || len(ready.Quarantined) != 3*snap.NumShards() {
		t.Fatalf("/readyz = %q with %d quarantined, want unready with %d",
			ready.Status, len(ready.Quarantined), 3*snap.NumShards())
	}
}

// TestChaosOverloadSheds503 saturates the in-flight limit with
// slow-disk requests and asserts the excess is rejected immediately —
// 503 with a Retry-After hint, not queued behind the slow ones — and
// that the shed counter matches exactly.
func TestChaosOverloadSheds503(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	qs := distinctShardQueries(t, snap, 3)

	cfg := DefaultServerConfig()
	cfg.MaxInFlight = 2
	cfg.RequestTimeout = 30 * time.Second
	srv := NewServer(snap, cfg)
	h := srv.Handler()

	// Every segment load from here on sleeps a second: the two admitted
	// requests park inside their (cold) shard loads, holding both slots.
	const slow = time.Second
	inj.SetLatency(slow)
	var wg sync.WaitGroup
	slowCodes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slowCodes[i], _ = get(t, h, rewriteURL(qs[i]))
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.InFlight() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("slow requests were never both admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// With both slots held, every further scoring request sheds now.
	// Retry-After grows with the shed streak — one extra base second per
	// MaxInFlight (=2) consecutive rejections — so the burst sees
	// 1,1,2,2,3: sustained overload pushes clients progressively further
	// out instead of inviting them all back at once.
	const burst = 5
	wantRetry := []string{"1", "1", "2", "2", "3"}
	start := time.Now()
	for i := 0; i < burst; i++ {
		req := httptest.NewRequest("GET", rewriteURL(qs[2]), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("shed request %d = %d, want 503: %s", i, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Header().Get("Retry-After"); got != wantRetry[i] {
			t.Fatalf("shed request %d Retry-After = %q, want %q", i, got, wantRetry[i])
		}
	}
	if elapsed := time.Since(start); elapsed > slow/2 {
		t.Fatalf("shedding %d requests took %v — they queued behind the slow requests instead of failing fast", burst, elapsed)
	}

	// Health endpoints are never shed: an operator can still see what is
	// happening while the daemon is saturated.
	if code, _ := get(t, h, "/stats"); code != http.StatusOK {
		t.Fatalf("/stats shed under overload (= %d)", code)
	}
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz shed under overload (= %d)", code)
	}

	wg.Wait()
	for i, code := range slowCodes {
		if code != http.StatusOK {
			t.Fatalf("admitted slow request %d = %d, want 200", i, code)
		}
	}
	_, body := get(t, h, "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shed != burst {
		t.Fatalf("stats shed = %d, want %d", stats.Shed, burst)
	}
	if ep := stats.Endpoints["rewrite"]; ep.Requests != burst+2 || ep.Errors5xx != burst {
		t.Fatalf("rewrite endpoint stats = %+v, want %d requests with %d 5xx", ep, burst+2, burst)
	}
	if stats.InFlight != 0 {
		t.Fatalf("in_flight = %d after drain, want 0", stats.InFlight)
	}
}

// TestChaosDeadlineAnswers504 pins the per-request deadline: a request
// stuck behind a slow segment load answers 504 once its deadline
// passes, and the next request — segment now warm — succeeds.
func TestChaosDeadlineAnswers504(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	q := distinctShardQueries(t, snap, 1)[0]

	cfg := DefaultServerConfig()
	cfg.MaxInFlight = 0
	cfg.RequestTimeout = 30 * time.Millisecond
	srv := NewServer(snap, cfg)
	h := srv.Handler()

	inj.SetLatency(300 * time.Millisecond)
	if code, body := get(t, h, rewriteURL(q)); code != http.StatusGatewayTimeout {
		t.Fatalf("slow-load rewrite = %d, want 504: %s", code, body)
	}
	// The deadline killed the request, not the segment: it loaded behind
	// the dead request, so the retry is instant and inside its deadline.
	inj.SetLatency(0)
	if code, body := get(t, h, rewriteURL(q)); code != http.StatusOK {
		t.Fatalf("warm retry after deadline = %d, want 200: %s", code, body)
	}
	// /similar?ad= reads the still-cold ad segment: the same deadline.
	similar := "/similar?ad=" + url.QueryEscape(snap.Ad(0))
	inj.SetLatency(300 * time.Millisecond)
	if code, body := get(t, h, similar); code != http.StatusGatewayTimeout {
		t.Fatalf("slow-load similar = %d, want 504: %s", code, body)
	}
	inj.SetLatency(0)
	if code, body := get(t, h, similar); code != http.StatusOK {
		t.Fatalf("warm similar after deadline = %d, want 200: %s", code, body)
	}
}

// panicReader is a snapshot's bytes whose reads of [lo, hi) panic — the
// stand-in for any bug reaching a panic under a handler in production.
type panicReader struct {
	b      []byte
	lo, hi int64
}

func (p *panicReader) ReadAt(b []byte, off int64) (int, error) {
	if off < p.hi && off+int64(len(b)) > p.lo {
		panic("injected panic")
	}
	return bytes.NewReader(p.b).ReadAt(b, off)
}

// TestChaosPanicIsOne500NotADeadDaemon asserts the panic middleware: a
// request that panics — here loading one shard's top-k blob, for a
// /rewrite and for a /batch, whose items run on the handler's goroutine —
// answers 500 and bumps the panic counter; the daemon keeps serving
// everything else.
func TestChaosPanicIsOne500NotADeadDaemon(t *testing.T) {
	res, data, _ := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	probe := mustSnapshot(t, res, DefaultRewriteTopK)
	q := distinctShardQueries(t, probe, 1)[0]
	e := probe.dir[probe.qRoute[mustQueryID(t, probe, q)]]
	snap, err := NewSnapshot(&panicReader{b: data, lo: int64(e.tkOff), hi: int64(e.tkOff + e.tkLen)}, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(snap, DefaultServerConfig())
	h := srv.Handler()

	code, body := get(t, h, rewriteURL(q))
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking /rewrite = %d, want 500: %s", code, body)
	}
	// The daemon survived: liveness, stats and the query's untouched score
	// segment all still answer.
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after a handler panic", code)
	}
	if code, body := get(t, h, "/similar?q="+url.QueryEscape(q)); code != http.StatusOK {
		t.Fatalf("/similar after panic = %d: %s", code, body)
	}
	reqBody, _ := json.Marshal(BatchRequest{Queries: []string{"no such query", q}})
	if code, body := postBatch(t, h, string(reqBody)); code != http.StatusInternalServerError {
		t.Fatalf("/batch with a panicking item = %d, want 500: %s", code, body)
	}
	if code, _ := get(t, h, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d after a batch panic", code)
	}
	_, body = get(t, h, "/stats")
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Panics != 2 {
		t.Fatalf("stats panics = %d, want 2", stats.Panics)
	}
	if ep := stats.Endpoints["rewrite"]; ep.Errors5xx != 1 {
		t.Fatalf("rewrite endpoint 5xx = %d, want 1", ep.Errors5xx)
	}
	if ep := stats.Endpoints["batch"]; ep.Errors5xx != 1 {
		t.Fatalf("batch endpoint 5xx = %d, want 1", ep.Errors5xx)
	}
}

// TestChaosShortReadQuarantines covers the truncated-file flavor of
// segment corruption: a short read quarantines the shard exactly like a
// CRC mismatch does, and recovery works the same way.
func TestChaosShortReadQuarantines(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	cur := time.Unix(1_700_000_000, 0)
	snap.now = func() time.Time { return cur }
	q := distinctShardQueries(t, snap, 1)[0]

	inj.ShortReads(4)
	if _, err := snap.ranked(context.TODO(), clickgraph.QuerySide, mustQueryID(t, snap, q), 5); err == nil {
		t.Fatal("short read did not fail the segment load")
	}
	if quar := snap.Quarantined(); len(quar) != 1 {
		t.Fatalf("Quarantined() = %+v after short read, want one entry", quar)
	}
	inj.ShortReads(0)
	cur = cur.Add(2 * time.Second)
	if _, err := snap.ranked(context.TODO(), clickgraph.QuerySide, mustQueryID(t, snap, q), 5); err != nil {
		t.Fatalf("recovery after short read cleared: %v", err)
	}
	if quar := snap.Quarantined(); len(quar) != 0 {
		t.Fatalf("Quarantined() = %+v after recovery, want empty", quar)
	}
}

// TestChaosQuarantineBackoffJitter pins the equal-jitter quarantine
// schedule: the wait is backoff/2 + jitter·backoff/2, so shards
// quarantined by the same event spread their retries across half the
// window instead of hammering the disk in lockstep. jitter=0 exposes
// the floor of each window.
func TestChaosQuarantineBackoffJitter(t *testing.T) {
	snap, inj := chaosSnapshot(t)
	cur := time.Unix(1_700_000_000, 0)
	snap.now = func() time.Time { return cur }
	snap.quarantine.Jitter = func() float64 { return 0 }

	q := distinctShardQueries(t, snap, 1)[0]
	vid := mustQueryID(t, snap, q)
	vShard := int(snap.qRoute[vid])
	inj.FlipBit(int64(snap.dir[vShard].qOff)+8, 3)

	if _, err := snap.ranked(context.TODO(), clickgraph.QuerySide, vid, 5); err == nil {
		t.Fatal("corrupt segment load did not fail")
	}
	quar := snap.Quarantined()
	if len(quar) != 1 {
		t.Fatalf("Quarantined() = %+v, want one entry", quar)
	}
	// First failure, jitter floor: half the 1s nominal backoff.
	if want := cur.Add(500 * time.Millisecond); !quar[0].RetryAt.Equal(want) {
		t.Fatalf("jitter-floor retryAt = %v, want %v", quar[0].RetryAt, want)
	}

	// Second failure: nominal backoff doubles to 2s, floor to 1s.
	cur = cur.Add(time.Second)
	if _, err := snap.ranked(context.TODO(), clickgraph.QuerySide, vid, 5); err == nil {
		t.Fatal("retry under persistent fault did not fail")
	}
	quar = snap.Quarantined()
	if want := cur.Add(time.Second); len(quar) != 1 || !quar[0].RetryAt.Equal(want) {
		t.Fatalf("second-failure jitter-floor retryAt = %+v, want %v", quar, want)
	}
}

// hostileSegments are edits to one score segment that a checksum cannot
// catch once the file is re-sealed, each breaking one invariant the
// reader's binary searches and its callers' name lookups rely on. Every
// edit needs a segment of at least two records.
var hostileSegments = map[string]func(seg []byte, nodes uint32){
	"node id past the side": func(seg []byte, nodes uint32) {
		binary.LittleEndian.PutUint32(seg[len(seg)-pairRecordSize+4:], nodes)
	},
	"i not below j": func(seg []byte, _ uint32) {
		last := seg[len(seg)-pairRecordSize:]
		copy(last[:4], last[4:8]) // (i, j) → (j, j): still the largest key
	},
	"two records swapped": func(seg []byte, _ uint32) {
		var rec [pairRecordSize]byte
		copy(rec[:], seg)
		copy(seg, seg[pairRecordSize:2*pairRecordSize])
		copy(seg[pairRecordSize:], rec[:])
	},
	"duplicate key": func(seg []byte, _ uint32) {
		copy(seg[pairRecordSize:2*pairRecordSize], seg[:pairRecordSize])
	},
}

// resealQuerySegment returns a copy of the snapshot bytes with edit
// applied to the first query segment holding at least two records, and
// the segment, directory and header checksums recomputed over the result
// — a file only structural validation can refuse. It reports which shard
// it edited.
func resealQuerySegment(t testing.TB, data []byte, edit func(seg []byte, nodes uint32)) ([]byte, int) {
	t.Helper()
	probe, err := NewSnapshot(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data...)
	for si, e := range probe.dir {
		if e.qPairs < 2 {
			continue
		}
		seg := out[e.qOff : e.qOff+e.qPairs*pairRecordSize]
		edit(seg, uint32(probe.NumQueries()))
		dirOff := binary.LittleEndian.Uint64(out[104:])
		dirLen := binary.LittleEndian.Uint64(out[112:])
		binary.LittleEndian.PutUint32(out[dirOff+uint64(si*dirEntrySize)+32:], crc32.ChecksumIEEE(seg))
		binary.LittleEndian.PutUint32(out[124:], crc32.ChecksumIEEE(out[dirOff:dirOff+dirLen]))
		binary.LittleEndian.PutUint32(out[196:], crc32.ChecksumIEEE(out[:196]))
		return out, si
	}
	t.Fatal("fixture has no query segment with two records")
	return nil, 0
}

// TestChaosHostileSegmentQuarantinesOneShard: a segment whose checksum
// matches but whose records are out of range or out of order fails its
// first touch exactly like a corrupt one — that shard quarantined and
// listed by /readyz, every other shard answering as before, and no id
// from it ever reaching a name lookup — from mapped and ReadAt bytes
// alike.
func TestChaosHostileSegmentQuarantinesOneShard(t *testing.T) {
	_, data, clean := buildGeneration(t, refreshGraph(t, [4]int{1, 2, 3, 4}), refreshCfg())
	for name, edit := range hostileSegments {
		hostile, bad := resealQuerySegment(t, data, edit)
		for _, mode := range []string{"read", "mapped"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				var mapped []byte
				if mode == "mapped" {
					mapped = hostile
				}
				snap, err := newSnapshot(bytes.NewReader(hostile), int64(len(hostile)), mapped)
				if err != nil {
					t.Fatalf("a re-sealed snapshot must open (segments load lazily): %v", err)
				}
				h := NewServer(snap, DefaultServerConfig()).Handler()

				for q := 0; q < snap.NumQueries(); q++ {
					got := snap.TopRewrites(q, -1)
					code, body := get(t, h, "/similar?q="+url.QueryEscape(snap.Query(q)))
					if int(snap.qRoute[q]) == bad {
						if got != nil || code != http.StatusInternalServerError {
							t.Fatalf("query %d of the hostile shard: TopRewrites %v, /similar %d %s; want nil and 500", q, got, code, body)
						}
						continue
					}
					if want := clean.TopRewrites(q, -1); !scoredEqual(got, want) || code != http.StatusOK {
						t.Fatalf("query %d of a healthy shard: TopRewrites %v (want %v), /similar %d %s", q, got, want, code, body)
					}
				}
				quar := snap.Quarantined()
				if len(quar) != 1 || quar[0].Shard != bad || quar[0].Side != "query" {
					t.Fatalf("Quarantined() = %+v, want exactly shard %d's query segment", quar, bad)
				}
				code, body := get(t, h, "/readyz")
				var ready ReadyResponse
				if err := json.Unmarshal(body, &ready); err != nil {
					t.Fatal(err)
				}
				if code != http.StatusOK || ready.Status != "degraded" || len(ready.Quarantined) != 1 || ready.Quarantined[0].Shard != bad {
					t.Fatalf("/readyz = %d %+v, want 200 degraded with shard %d listed", code, ready, bad)
				}
			})
		}
	}
}

func mustQueryID(t *testing.T, snap *Snapshot, name string) int {
	t.Helper()
	id, ok := snap.QueryID(name)
	if !ok {
		t.Fatalf("query %q not in snapshot", name)
	}
	return id
}

// TestChaosDiskFaultMidRefresh injects read faults into the serving
// snapshot while a refresh reads it, at several depths: every fault must
// fail the refresh cleanly — serving file and journal untouched — and
// the refresh after the fault clears publishes.
func TestChaosDiskFaultMidRefresh(t *testing.T) {
	fx := buildGenFixture(t)
	path, gs, _ := servingDir(t, fx)
	inj := faultfs.NewInjector()
	gs.open = func(path string) (*Snapshot, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return NewSnapshot(faultfs.Wrap(bytes.NewReader(raw), inj), int64(len(raw)))
	}
	next := refreshGraph(t, [4]int{9, 2, 3, 4})
	before := journalNames(t, gs)

	for depth := 1; depth <= 4; depth++ {
		inj.Reset()
		inj.FailAfter(depth, fmt.Errorf("injected disk fault at read %d", depth))
		if _, err := Refresh(context.Background(), gs, next, 2, nil, nil); err == nil {
			t.Fatalf("depth %d: refresh survived a read fault", depth)
		}
		if !bytes.Equal(readFile(t, path), fx.gen1) {
			t.Fatalf("depth %d: failed refresh changed the serving file", depth)
		}
		if after := journalNames(t, gs); !slices.Equal(before, after) {
			t.Fatalf("depth %d: failed refresh changed the journal: %v -> %v", depth, before, after)
		}
	}
	inj.Reset()
	res, err := Refresh(context.Background(), gs, next, 2, nil, nil)
	if err != nil {
		t.Fatalf("refresh after the fault cleared: %v", err)
	}
	if res.Published == nil || res.Restored != nil {
		t.Fatalf("healed refresh %+v: want a publish and no restore", res)
	}
}
