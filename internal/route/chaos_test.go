package route

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simrankpp/internal/faultfs"
	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// The chaos suite drives the gateway through the failure modes the
// tentpole promises to survive, over internal/faultfs's fault-injecting
// HTTP transport: replicas killed mid-request, mixed-generation fleets
// mid-rollout, fully dead fleets, and stragglers. Each test probes the
// healthy fleet first, then injects — probes share the faulted
// transport, so injecting first would (correctly, but unhelpfully) mark
// the replica down before the read path ever saw the fault.
//
// CI runs these with -race -count=2 (see .github/workflows/ci.yml).

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// setPrimary pins the candidate rotation so the next read's first
// choice is backends[i] — chaos tests aim faults at a known primary.
func setPrimary(gw *Gateway, i int) {
	gw.mu.Lock()
	gw.rr = i
	gw.mu.Unlock()
}

func chaosLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// TestChaosReplicaKilledMidRequestFailover pins the headline failover
// guarantee: a replica whose connection dies mid-response costs a
// retry, not an error — and the answer the client gets is byte-identical
// to what the surviving replica serves directly.
func TestChaosReplicaKilledMidRequestFailover(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{
		Router:    snap,
		Transport: inj.Transport(nil),
		Logf:      chaosLogf(t),
	}, r0, r1)
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	const u = "/rewrite?q=c0-q0&top=3"
	wantCode, wantBody := directGet(t, r1.ts.URL+u)
	if wantCode != http.StatusOK {
		t.Fatalf("direct read = %d: %s", wantCode, wantBody)
	}

	// Kill replica 0 mid-transfer: every response body from it now cuts
	// off after 10 bytes with io.ErrUnexpectedEOF.
	inj.TruncateBody(hostOf(t, r0.ts.URL), 10)
	setPrimary(gw, 0)

	code, _, body := get(t, gw.Handler(), u)
	if code != http.StatusOK {
		t.Fatalf("read during mid-request kill = %d: %s", code, body)
	}
	if !bytes.Equal(body, wantBody) {
		t.Errorf("failover answer differs from surviving replica's:\n got %q\nwant %q", body, wantBody)
	}
	if gw.retries.Load() == 0 {
		t.Error("failover happened without a counted retry")
	}
	if gw.failovers.Load() == 0 {
		t.Error("failover not counted")
	}
}

// TestChaosSimilarFailsOverFromBadDisk: a replica whose disk fails under
// a /similar read answers 500 — first the failed segment load, then the
// quarantine — not a 200 with an empty ranking the gateway would relay as
// final, so the read fails over and the client gets the clean replica's
// answer byte for byte, on both sides.
func TestChaosSimilarFailsOverFromBadDisk(t *testing.T) {
	data := generationBytes(t, [4]int{0, 0, 0, 0})
	disk := faultfs.NewInjector()
	bad, err := serve.NewSnapshot(faultfs.Wrap(bytes.NewReader(data), disk), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	clean := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer clean.Close()
	r0 := startReplica(t, bad, 1)
	r1 := startReplica(t, clean, 1)
	gw := newGateway(t, Options{Logf: chaosLogf(t)}, r0, r1)
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}
	gw.breakerCooldown = 0 // every read below goes to replica 0 first

	disk.FailAfter(0, nil) // every segment load on replica 0 fails from now on
	for _, u := range []string{"/similar?q=c0-q0&top=3", "/similar?ad=c1-a2&top=3"} {
		wantCode, want := directGet(t, r1.ts.URL+u)
		if wantCode != http.StatusOK {
			t.Fatalf("clean replica %s = %d: %s", u, wantCode, want)
		}
		for _, phase := range []string{"failed load", "quarantined"} {
			setPrimary(gw, 0)
			failovers := gw.failovers.Load()
			code, _, body := get(t, gw.Handler(), u)
			if code != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%s, %s on replica 0: gateway answered %d %q, want the clean replica's %q", u, phase, code, body, want)
			}
			if gw.failovers.Load() == failovers {
				t.Fatalf("%s, %s on replica 0: no failover counted", u, phase)
			}
		}
	}
}

// TestChaosRewriteAvoidsQuarantinedTopK: a /rewrite reads only its
// shard's top-k blob, so the gateway ranks replicas for it on that side.
// Both replicas are degraded on shard s — replica 0 has lost the blob (its
// /rewrite answers 500), replica 1 the query-score segment (its /rewrite
// is fine) — so whichever the rotation puts first, a shard-s /rewrite and
// /batch go to replica 1 and are answered without a retry.
func TestChaosRewriteAvoidsQuarantinedTopK(t *testing.T) {
	data := generationBytes(t, [4]int{0, 0, 0, 0})
	var disks [2]*faultfs.Injector
	var hits [2]atomic.Int64
	var reps []*replica
	for i := range disks {
		disks[i] = faultfs.NewInjector()
		snap, err := serve.NewSnapshot(faultfs.Wrap(bytes.NewReader(data), disks[i]), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		reps = append(reps, startWrappedReplica(t, snap, 1, func(inner http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/rewrite" || r.URL.Path == "/batch" {
					hits[i].Add(1)
				}
				inner.ServeHTTP(w, r)
			})
		}))
	}
	const q = "c0-q0"
	// Replica 0 fails every load from here on: its shard-s blob is
	// quarantined by one /rewrite. Replica 1 fails one /similar, which
	// quarantines shard s's query segment, and then reads cleanly.
	disks[0].FailAfter(0, nil)
	disks[1].FailAfter(0, nil)
	for i, u := range []string{"/rewrite?q=" + q, "/similar?q=" + q} {
		if code, body := directGet(t, reps[i].ts.URL+u); code != http.StatusInternalServerError {
			t.Fatalf("replica %d %s over a failing disk = %d: %s", i, u, code, body)
		}
		hits[i].Store(0)
	}
	disks[1].Reset()
	_, want := directGet(t, reps[1].ts.URL+"/rewrite?q="+q+"&top=3")
	hits[1].Store(0)

	router := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer router.Close()
	gw := newGateway(t, Options{Router: router, Logf: chaosLogf(t)}, reps...)
	_, shard, _ := router.PrevQuery(q)
	for i, b := range gw.backends {
		side := []string{"topk", "query"}[i]
		b.mu.Lock()
		health, quar := b.health, b.quarantined
		b.mu.Unlock()
		if health != HealthDegraded || len(quar) != 1 || !quar[segKey{side, shard}] {
			t.Fatalf("replica %d probed %v with %v quarantined, want degraded with shard %d's %s side", i, health, quar, shard, side)
		}
	}
	for round := 0; round < 4; round++ {
		setPrimary(gw, round%2)
		code, _, body := get(t, gw.Handler(), "/rewrite?q="+q+"&top=3")
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("round %d: /rewrite = %d %q, want replica 1's %q", round, code, body, want)
		}
		if code, _, raw := postBatch(t, gw.Handler(), `{"queries":["`+q+`"],"top":3}`); code != http.StatusOK {
			t.Fatalf("round %d: /batch = %d: %s", round, code, raw)
		}
	}
	if r := gw.retries.Load(); r != 0 || hits[0].Load() != 0 || hits[1].Load() != 8 {
		t.Fatalf("%d retries; replica 0 got %d reads and replica 1 %d, want 0 retries and all 8 on replica 1",
			r, hits[0].Load(), hits[1].Load())
	}
}

// TestChaosMixedGenerationNeverMixes pins generation consistency
// through a rollout: with the fleet split across two snapshot
// generations, every answer the gateway emits is byte-identical to
// exactly one generation's direct answer — never a blend — and reads
// only move to the new generation once a quorum serves it.
func TestChaosMixedGenerationNeverMixes(t *testing.T) {
	snapA := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snapA.Close()
	snapB := buildGeneration(t, [4]int{3, 0, 0, 0})
	defer snapB.Close()
	fpA, fpB := snapA.Meta().Fingerprint, snapB.Meta().Fingerprint
	if fpA == fpB {
		t.Fatal("fixture generations share a fingerprint")
	}

	reps := []*replica{
		startReplica(t, snapA, 1), startReplica(t, snapA, 1), startReplica(t, snapA, 1),
	}
	// Reference replicas outside the fleet give the per-generation golden
	// bytes.
	const u = "/rewrite?q=c0-q2&top=4"
	_, goldenA := directGet(t, startReplica(t, snapA, 1).ts.URL+u)
	_, goldenB := directGet(t, startReplica(t, snapB, 2).ts.URL+u)
	if bytes.Equal(goldenA, goldenB) {
		t.Fatal("fixture generations answer identically; the test can't detect mixing")
	}

	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{
		Router:    snapA,
		Transport: inj.Transport(nil),
		Quorum:    0.51, // need 2 of 3
		Logf:      chaosLogf(t),
	}, reps...)
	h := gw.Handler()

	hammer := func(phase, wantFP string, want []byte) {
		t.Helper()
		for i := 0; i < 12; i++ {
			code, hdr, body := get(t, h, u)
			if code != http.StatusOK {
				t.Fatalf("%s: read = %d: %s", phase, code, body)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s: answer from wrong generation:\n got %q\nwant %q", phase, body, want)
			}
			if g := hdr.Get("Simrank-Generation"); g != wantFP {
				t.Fatalf("%s: stamped generation %q, want %q", phase, g, wantFP)
			}
		}
	}

	// Whole fleet on A.
	hammer("uniform fleet", fpA, goldenA)
	// rollToB reloads a replica onto generation B (id 2).
	rollToB := func(r *replica) {
		r.srv.Reload(func() (serve.ScoreIndex, error) { return snapB, nil }, nil, nil, nil)
		r.srv.SetGenerationID(2)
	}

	// Rollout starts: replica 0 swaps to generation B — below quorum, so
	// the pin holds and replica 0 simply stops receiving reads.
	rollToB(reps[0])
	gw.ProbeAll(context.Background())
	if st := gw.rolloutStatus(); st.Pinned != fpA || st.Pending != fpB {
		t.Fatalf("after 1/3 rollout: %+v, want pinned A pending B", st)
	}
	hammer("1/3 rolled out", fpA, goldenA)

	// Quorum: replica 1 follows; reads cut over atomically.
	rollToB(reps[1])
	gw.ProbeAll(context.Background())
	if st := gw.rolloutStatus(); st.Pinned != fpB || st.Cutovers != 1 {
		t.Fatalf("after 2/3 rollout: %+v, want pinned B after 1 cutover", st)
	}
	hammer("2/3 rolled out", fpB, goldenB)

	// Concurrent finale: hammer from several goroutines while the last
	// replica swaps under a live prober. Every single answer must be
	// byte-identical to one generation's golden — a blended or torn
	// answer fails immediately.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	gw.probeInterval = 10 * time.Millisecond
	probeDone := make(chan struct{})
	go func() {
		gw.Run(probeCtx)
		close(probeDone)
	}()

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				code, _, body := get(t, h, u)
				if code != http.StatusOK {
					errs <- "non-200 during rollout"
					return
				}
				if !bytes.Equal(body, goldenA) && !bytes.Equal(body, goldenB) {
					errs <- "answer matches neither generation: " + string(body)
					return
				}
			}
		}()
	}
	time.Sleep(15 * time.Millisecond)
	rollToB(reps[2])
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// A probe in flight at cancellation classifies backends as
	// unreachable (its context is dead); wait the prober out, then take
	// one clean sweep before the final assertion.
	stopProbes()
	<-probeDone

	gw.ProbeAll(context.Background())
	hammer("fully rolled out", fpB, goldenB)
}

// TestChaosAllReplicasDead503 pins graceful degradation: with every
// replica gone the gateway answers 503 with a Retry-After hint, fast —
// it does not hang clients on a fleet that cannot answer.
func TestChaosAllReplicasDead503(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{
		Transport: inj.Transport(nil),
		Logf:      chaosLogf(t),
	}, r0, r1)
	gw.attempts = 2
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	inj.Drop("", -1) // every request to every host: connection refused

	// Phase 1: the fleet just died; probes haven't noticed. All attempts
	// fail over and exhaust — 503 + Retry-After, quickly.
	start := time.Now()
	code, hdr, _ := get(t, gw.Handler(), "/rewrite?q=c0-q0")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead read = %d, want 503", code)
	}
	if hdr.Get("Retry-After") != retryAfter {
		t.Errorf("Retry-After = %q, want %q", hdr.Get("Retry-After"), retryAfter)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("all-dead read took %v; should fail fast", elapsed)
	}

	// Phase 2: probes catch up; no candidates at all, same contract, and
	// the gateway's own /readyz goes unready.
	gw.ProbeAll(context.Background())
	code, hdr, _ = get(t, gw.Handler(), "/rewrite?q=c0-q0")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("post-probe all-dead read = %d (Retry-After %q), want 503 with hint",
			code, hdr.Get("Retry-After"))
	}
	if gw.noReplica.Load() == 0 {
		t.Error("no-replica path not counted")
	}
	// A pinned batch with no candidate degrades to 503 items and counts once.
	before := gw.noReplica.Load()
	if code, _, body := postBatch(t, gw.Handler(), `{"queries":["c0-q0","c1-q0"]}`); code != http.StatusOK {
		t.Fatalf("pinned all-dead batch = %d: %s, want 200 with error items", code, body)
	}
	if got := gw.noReplica.Load() - before; got != 1 {
		t.Errorf("pinned all-dead batch moved noReplica by %d, want 1", got)
	}
	code, _, _ = get(t, gw.Handler(), "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("gateway /readyz = %d with fleet dead, want 503", code)
	}

	// Recovery: faults clear, the next probe sweep restores service.
	inj.Reset()
	gw.ProbeAll(context.Background())
	if code, _, body := get(t, gw.Handler(), "/rewrite?q=c0-q0"); code != http.StatusOK {
		t.Fatalf("post-recovery read = %d: %s", code, body)
	}
}

// primeHedge arms the gateway's latency tracker with fast completed
// reads so a subsequent straggler triggers the hedge path.
func primeHedge(t *testing.T, gw *Gateway, u string) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if code, _, body := get(t, gw.Handler(), u); code != http.StatusOK {
			t.Fatalf("priming read = %d: %s", code, body)
		}
	}
	if _, ok := gw.lat.Delay(); !ok {
		t.Fatal("latency tracker still unarmed after priming")
	}
}

// TestChaosHedgedReadUnderStraggler pins tail tolerance: with one
// replica straggling far past the fleet's latency percentile, the read
// is hedged to the healthy replica and completes well under the
// straggler's latency.
func TestChaosHedgedReadUnderStraggler(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{Transport: inj.Transport(nil), Logf: chaosLogf(t)}, r0, r1)
	gw.lat = &hedge.Tracker{Floor: 20 * time.Millisecond}

	const u = "/rewrite?q=c1-q3&top=3"
	_, golden := directGet(t, r1.ts.URL+u)
	primeHedge(t, gw, u)

	const straggle = 2 * time.Second
	inj.SetLatency(hostOf(t, r0.ts.URL), straggle)
	setPrimary(gw, 0)

	start := time.Now()
	code, _, body := get(t, gw.Handler(), u)
	elapsed := time.Since(start)
	if code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("hedged read = %d %q, want 200 golden", code, body)
	}
	if elapsed >= straggle {
		t.Errorf("read took %v, not hedged under the %v straggler", elapsed, straggle)
	}
	if gw.hedges.Load() == 0 {
		t.Error("no hedge counted")
	}
}

// TestChaosReplicaDiesDuringHedgedRead pins the satellite's nastiest
// interleaving: the primary replica straggles, a hedge is launched, and
// then the primary dies mid-response — the hedge's answer must come
// back golden, and the sequence must be clean under -race -count=2.
func TestChaosReplicaDiesDuringHedgedRead(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{Transport: inj.Transport(nil), Logf: chaosLogf(t)}, r0, r1)
	gw.lat = &hedge.Tracker{Floor: 20 * time.Millisecond}
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	const u = "/similar?q=c2-q5&top=3"
	_, golden := directGet(t, r1.ts.URL+u)
	primeHedge(t, gw, u)

	// The primary straggles past the hedge trigger, then its response is
	// cut off mid-body: the read's outcome rides entirely on the hedge.
	host0 := hostOf(t, r0.ts.URL)
	inj.SetLatency(host0, 400*time.Millisecond)
	inj.TruncateBody(host0, 5)
	setPrimary(gw, 0)

	code, _, body := get(t, gw.Handler(), u)
	if code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("read = %d %q, want 200 golden", code, body)
	}
	if gw.hedges.Load() == 0 {
		t.Error("no hedge counted")
	}

	// And the fast-death variant: the primary drops instantly, before
	// the hedge timer — the hedge fires immediately instead of waiting.
	inj.Reset()
	inj.Drop(host0, 1)
	setPrimary(gw, 0)
	hedgesBefore := gw.hedges.Load()
	code, _, body = get(t, gw.Handler(), u)
	if code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("fast-death read = %d %q, want 200 golden", code, body)
	}
	if gw.hedges.Load() == hedgesBefore && gw.retries.Load() == 0 {
		t.Error("fast death neither hedged nor retried")
	}
	if gw.failovers.Load() == 0 {
		t.Error("failover not counted")
	}
}

// TestChaosHedgeInRoundTwoCountsOneFailover pins what failovers counts:
// answers that needed a second replica, not the ways they needed one. Round
// 1 fails on both replicas (the primary, then its at-once hedge), and round
// 2's hedge answers: one answer, one failover.
func TestChaosHedgeInRoundTwoCountsOneFailover(t *testing.T) {
	snap := buildGeneration(t, [4]int{0, 0, 0, 0})
	defer snap.Close()
	r0 := startReplica(t, snap, 1)
	r1 := startReplica(t, snap, 1)
	inj := faultfs.NewHTTPInjector()
	gw := newGateway(t, Options{Transport: inj.Transport(nil), Logf: chaosLogf(t)}, r0, r1)
	gw.lat = &hedge.Tracker{Floor: time.Second}
	gw.backoff = hedge.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}

	const u = "/rewrite?q=c0-q1&top=3"
	_, golden := directGet(t, r1.ts.URL+u)
	primeHedge(t, gw, u)

	inj.Drop(hostOf(t, r0.ts.URL), 2) // both of r0's rounds
	inj.Drop(hostOf(t, r1.ts.URL), 1) // round 1's hedge
	setPrimary(gw, 0)
	failovers, retries, hedges := gw.failovers.Load(), gw.retries.Load(), gw.hedges.Load()

	code, _, body := get(t, gw.Handler(), u)
	if code != http.StatusOK || !bytes.Equal(body, golden) {
		t.Fatalf("read = %d %q, want 200 golden", code, body)
	}
	if got := gw.retries.Load() - retries; got != 1 {
		t.Errorf("%d retries, want 1 (round 2)", got)
	}
	if got := gw.hedges.Load() - hedges; got != 2 {
		t.Errorf("%d hedges, want 2 (one a round)", got)
	}
	if got := gw.failovers.Load() - failovers; got != 1 {
		t.Errorf("failovers rose by %d for one answer, want 1", got)
	}
}
