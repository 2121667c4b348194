// The proxied read path: candidate selection, what the gateway hands
// hedge.Do (failover order, the fetch, the per-backend circuit breaker)
// and the /batch fan-out.
package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// Handler returns the gateway's HTTP mux: /rewrite, /similar and /batch
// proxied to the fleet, /stats and /readyz and /healthz answered locally.
func (gw *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", gw.handleRead)
	mux.HandleFunc("/similar", gw.handleRead)
	mux.HandleFunc("/batch", gw.handleBatch)
	mux.HandleFunc("/stats", gw.handleStats)
	mux.HandleFunc("/healthz", gw.handleHealthz)
	mux.HandleFunc("/readyz", gw.handleReadyz)
	return mux
}

// proxied is one backend answer, relayed to the client byte-identically.
// body holds it whole, read to its end inside the fetch, so that a
// transfer cut short fails over to another replica instead of reaching
// the client; the connection is already done with.
type proxied struct {
	status      int
	contentType string
	body        []byte
}

// errRequestTimeout is the cause a read's context ends with when the
// gateway's own RequestTimeout expired, as opposed to the inbound
// request's context ending under it.
var errRequestTimeout = errors.New("route: request timeout")

// affinity maps the request to the snapshot segment it reads: the side —
// "topk" for /rewrite (the shard's precomputed lists), "query" or "ad"
// for /similar — and the shard, through the route map; -1 when no router
// is configured or the node is unknown (unknown nodes route anywhere —
// every replica answers them with the same not-found).
func (gw *Gateway) affinity(r *http.Request) (side string, shard int) {
	q := r.URL.Query()
	if ad := q.Get("ad"); ad != "" {
		if gw.opt.Router == nil {
			return "ad", -1
		}
		if _, s, ok := gw.opt.Router.PrevAd(ad); ok {
			return "ad", s
		}
		return "ad", -1
	}
	side = "query"
	if r.URL.Path == "/rewrite" {
		side = "topk"
	}
	if gw.opt.Router == nil {
		return side, -1
	}
	if _, s, ok := gw.opt.Router.PrevQuery(q.Get("q")); ok {
		return side, s
	}
	return side, -1
}

// pinAndRot snapshots the pinned generation and a rotation seed under
// one lock acquisition — what keeps a multi-shard /batch on a single
// generation even if a cutover lands mid-request.
func (gw *Gateway) pinAndRot() (string, int) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	rot := gw.rr
	gw.rr++
	return gw.pinned, rot
}

// candidatesAt returns the replicas eligible for one read of the pinned
// generation, best tier first, rotated within each tier so load spreads
// across equals.
func (gw *Gateway) candidatesAt(pin string, rot int, side string, shard int) []*backendState {
	if pin == "" {
		return nil
	}
	now := time.Now()
	n := len(gw.backends)
	order := make([]*backendState, 0, n)
	var end [3]int // end[t]: where tier t's run ends in order
	for i := 0; i < n; i++ {
		b := gw.backends[(rot+i)%n]
		if tier, ok := b.tierFor(pin, side, shard, now); ok {
			order = slices.Insert(order, end[tier], b)
			for t := tier; t < len(end); t++ {
				end[t]++
			}
		}
	}
	return order
}

// candidates is candidatesAt under a freshly-snapshotted pin.
func (gw *Gateway) candidates(side string, shard int) (pin string, order []*backendState) {
	pin, rot := gw.pinAndRot()
	return pin, gw.candidatesAt(pin, rot, side, shard)
}

func (gw *Gateway) handleRead(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	side, shard := gw.affinity(r)
	pin, order := gw.candidates(side, shard)
	if len(order) == 0 {
		gw.noReplica.Add(1)
		gw.unavailable(w, "no replica can serve this request")
		return
	}
	ctx, cancel := context.WithTimeoutCause(r.Context(), gw.opt.RequestTimeout, errRequestTimeout)
	defer cancel()
	resp, err := gw.fetchFailover(ctx, order, http.MethodGet, r.URL.Path, r.URL.RawQuery, nil)
	if err != nil {
		gw.unavailable(w, err.Error())
		return
	}
	gw.proxied.Add(1)
	h := w.Header()
	if resp.contentType != "" {
		h.Set("Content-Type", resp.contentType)
	}
	// Stamp which generation answered — the consistency guarantee made
	// observable (and assertable by the chaos suite).
	h.Set("Simrank-Generation", pin)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// unavailable is the gateway's degraded contract: 503 + Retry-After,
// mirroring simrankd's own shedding, so clients back off instead of
// hammering a fleet that cannot answer.
func (gw *Gateway) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// fetchFailover is one hedged read over the candidate list (hedge.Do:
// rounds under the shared equal-jitter backoff floored at any Retry-After
// a failed backend sent, a second replica raced against a straggler).
// What is the gateway's own is passed in: the order replicas are tried
// in, the fetch, what an outcome means for the replica's breaker, and
// the counters.
func (gw *Gateway) fetchFailover(ctx context.Context, order []*backendState, method, path, rawQuery string, reqBody []byte) (proxied, error) {
	next := 0
	res, err := hedge.Do(ctx, hedge.Call[*backendState, proxied]{
		Attempts: gw.attempts,
		Backoff:  gw.backoff,
		Tracker:  gw.lat,
		// The best candidate not tried yet; once everyone has been, a
		// fresh pass starts — a later round may succeed on a replica
		// that failed an earlier one.
		Pick: func(exclude *backendState) (*backendState, bool) {
			for range order {
				b := order[next%len(order)]
				next++
				if b != exclude {
					return b, true
				}
			}
			return nil, false
		},
		// The round trip and the whole body read are made under lctx, so
		// a fetch returns as soon as its launch is cancelled: what
		// hedge.Do asks of Send, whose primary runs on this handler's
		// goroutine.
		Send: func(lctx context.Context, b *backendState) (proxied, error) {
			resp, err := gw.fetchOne(lctx, b, method, path, rawQuery, reqBody)
			// A fetch that ended because the inbound request did (the
			// client hung up or ran out of patience) says nothing about
			// the replica. One the gateway ended does: its own timeout
			// expiring, or a hedge overtaking a straggler, is how a wedged
			// replica's circuit gets opened.
			if c := context.Cause(lctx); err == nil || c == nil || c == hedge.ErrLost || c == errRequestTimeout {
				gw.markRead(b, err == nil)
			}
			return resp, err
		},
		Retried: func(int, error) { gw.retries.Add(1) },
		Hedged:  func(_, _ *backendState) { gw.hedges.Add(1) },
	})
	if err != nil {
		return proxied{}, fmt.Errorf("route: %w", err)
	}
	// One answer, one count, however many replicas it took.
	if res.Round > 1 || res.Hedged {
		gw.failovers.Add(1)
	}
	return res.Value, nil
}

// maxAnswer bounds a success body the gateway holds (tests lower
// Gateway.maxAnswer); an answer past it fails its launch rather than
// being relayed. maxPresize bounds how much a declared Content-Length
// allocates up front: past it — beyond any /rewrite or /similar answer
// at the snapshot's depth cap — the buffer grows only with the bytes that
// arrive. (A failure response is read for its detail under
// hedge.ResponseError's own, much smaller cap.)
const (
	maxAnswer  = 64 << 20
	maxPresize = 256 << 10
)

// fetchOne proxies the read to one backend. A 2xx/4xx answer is
// definitive — relayed as-is (4xx is the backend telling the *client*
// it's wrong; another replica would say the same) — once its body has
// been read whole. 5xx and transport errors — a connection cut before the
// answer's end, or an answer past maxAnswer, among them — are retryable,
// carrying any Retry-After hint upward.
func (gw *Gateway) fetchOne(ctx context.Context, b *backendState, method, path, rawQuery string, reqBody []byte) (proxied, error) {
	u := b.spec.URL + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var br io.Reader
	if reqBody != nil {
		br = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, br)
	if err != nil {
		return proxied{}, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	httpResp, err := gw.client.Do(req)
	if err != nil {
		return proxied{}, fmt.Errorf("route: %s: %w", b.spec.URL, err)
	}
	if httpResp.StatusCode >= 500 {
		return proxied{}, fmt.Errorf("route: %s: %w", b.spec.URL, hedge.ResponseError(httpResp))
	}
	resp := proxied{
		status:      httpResp.StatusCode,
		contentType: httpResp.Header.Get("Content-Type"),
	}
	// One buffer, read into directly and handed on as it is. A declared
	// length up to maxPresize sizes it up front (plus the room ReadFrom
	// wants free before it asks the body for its end); a header claiming
	// more is not allocated for on its say-so — then, as for a chunked
	// answer, the buffer grows only with the bytes that actually arrive.
	size := bytes.MinRead
	if n := httpResp.ContentLength; n >= 0 && n <= maxPresize {
		size += int(n)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err = buf.ReadFrom(io.LimitReader(httpResp.Body, gw.maxAnswer+1))
	httpResp.Body.Close()
	if err == nil && int64(buf.Len()) > gw.maxAnswer {
		err = fmt.Errorf("answer past %d bytes", gw.maxAnswer)
	}
	if err != nil {
		return proxied{}, fmt.Errorf("route: %s: reading body: %w", b.spec.URL, err)
	}
	resp.body = buf.Bytes()
	return resp, nil
}

// subBatch is the part of a /batch that one upstream request carries:
// the positions (ascending) of the queries whose failover would try the
// same replicas in the same order.
type subBatch struct {
	order []*backendState
	idx   []int
}

// handleBatch relays POST /batch across the fleet: one generation and
// one rotation are taken at entry, each query's shard gets its candidate
// list under them, and queries whose lists are equal — same replicas,
// same order — travel as one sub-batch through fetchFailover; the answers'
// elements are merged back into request order as the bytes the replicas
// wrote (relaySubBatch), whether there was one sub-batch or several. The
// list already says who holds the shard, each holder's tier for it and
// whose breaker is open, so shards merge exactly when a failure of one
// would be handled like a failure of the other: one sub-batch when every
// replica holds the whole snapshot and is equally healthy, never more than
// one per shard. A sub-batch whose replicas all fail degrades to per-item
// errors (status 503) instead of failing the queries other sub-batches
// answered, and while a generation is pinned that holds even when every
// sub-batch failed: the response is 200 with a 503 item per query. Only an
// unpinned gateway answers the all-fleet-down 503.
func (gw *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	gw.requests.Add(1)
	// The replicas' checks, the cap and a negative top among them, on the
	// client's whole batch: sub-batches are formed after them, so a fleet
	// refuses what one daemon refuses however the queries would have
	// split, and a refused batch never reaches a replica.
	req, ok := serve.ReadBatchRequest(w, r)
	if !ok {
		return
	}
	gw.batches.Add(1)

	pin, rot := gw.pinAndRot()
	var subs []*subBatch
	byShard := make(map[int]*subBatch)
	for i, q := range req.Queries {
		// Without a router, or for an unknown query, the shard is -1: the
		// any-replica path, exactly like /rewrite's affinity fallback.
		shard := -1
		if gw.opt.Router != nil {
			if _, s, ok := gw.opt.Router.PrevQuery(q); ok {
				shard = s
			}
		}
		sb := byShard[shard]
		if sb == nil {
			// Every item is a /rewrite: it reads the shard's topk blob.
			order := gw.candidatesAt(pin, rot, "topk", shard)
			for _, have := range subs {
				if slices.Equal(have.order, order) {
					sb = have
					break
				}
			}
			if sb == nil {
				sb = &subBatch{order: order}
				subs = append(subs, sb)
			}
			byShard[shard] = sb
		}
		sb.idx = append(sb.idx, i)
	}

	ctx, cancel := context.WithTimeoutCause(r.Context(), gw.opt.RequestTimeout, errRequestTimeout)
	defer cancel()

	// One sub-batch per goroutine, the last on this one: in the common
	// deployment — every replica holds every shard — it is the only one,
	// and a relay that only moves bytes has nothing to hand to another
	// goroutine.
	results := make([]json.RawMessage, len(req.Queries))
	var answered atomic.Int64
	var wg sync.WaitGroup
	for _, sb := range subs[:len(subs)-1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if gw.relaySubBatch(ctx, req, sb, results) {
				answered.Add(1)
			}
		}()
	}
	if gw.relaySubBatch(ctx, req, subs[len(subs)-1], results) {
		answered.Add(1)
	}
	wg.Wait()
	// A request counts once however many of its sub-batches found no
	// candidate, whether it is refused or answered with error items.
	if slices.ContainsFunc(subs, func(sb *subBatch) bool { return len(sb.order) == 0 }) {
		gw.noReplica.Add(1)
	}
	if answered.Load() == 0 && pin == "" {
		gw.unavailable(w, "no replica can serve this request")
		return
	}
	gw.proxied.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Simrank-Generation", pin)
	w.Write(serve.EncodeBatchResponse(results))
}

// relaySubBatch sends sb's queries upstream as one /batch and files the
// answer's elements — sub-slices of the one buffer the answer was read
// into, found by serve's splitter, never decoded — under their positions
// in results; positions of different sub-batches are disjoint. A sub-batch
// nobody answers, or whose answer is not what a replica writes, becomes an
// error item per position instead, and relaySubBatch reports false.
func (gw *Gateway) relaySubBatch(ctx context.Context, req serve.BatchRequest, sb *subBatch, results []json.RawMessage) bool {
	fail := func(msg string, status int) {
		for _, i := range sb.idx {
			results[i] = serve.BatchItemError{Query: req.Queries[i], Error: msg, Status: status}.Item()
		}
	}
	if len(sb.order) == 0 {
		fail("no replica can serve this shard", http.StatusServiceUnavailable)
		return false
	}
	sub := serve.BatchRequest{Queries: make([]string, len(sb.idx)), Top: req.Top}
	for j, i := range sb.idx {
		sub.Queries[j] = req.Queries[i]
	}
	gw.batchSubs.Add(1)
	resp, err := gw.fetchFailover(ctx, sb.order, http.MethodPost, "/batch", "", sub.AppendJSON(nil))
	if err != nil {
		fail(err.Error(), http.StatusServiceUnavailable)
		return false
	}
	var items []json.RawMessage
	ok := resp.status == http.StatusOK
	if ok {
		items, ok = serve.SplitBatchResponse(make([]json.RawMessage, 0, len(sb.idx)), resp.body)
	}
	if !ok || len(items) != len(sb.idx) {
		// A definitive non-200 (the backend rejecting the batch) or a
		// malformed answer — not valid JSON, not a results array, not one
		// element per query: surface it per item with the backend's status
		// so the client sees why.
		status := resp.status
		if status == http.StatusOK {
			status = http.StatusBadGateway
		}
		fail(truncated(resp.body), status)
		return false
	}
	for j, i := range sb.idx {
		results[i] = items[j]
	}
	return true
}

// markRead updates the backend's circuit breaker with one read outcome:
// breakerFails consecutive failures open the circuit for the cool-down
// (the replica stops receiving reads). After it tierFor simply admits
// the replica again, its failure count back at zero: there is no
// single-trial half-open state, and it takes breakerFails consecutive
// failures again to re-open the circuit.
func (gw *Gateway) markRead(b *backendState, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.consecFails = 0
		return
	}
	b.readFails++
	b.consecFails++
	if b.consecFails >= breakerFails && !time.Now().Before(b.breakerUntil) {
		b.breakerUntil = time.Now().Add(gw.breakerCooldown)
		b.breakerOpens++
		b.consecFails = 0
		gw.logf("route: circuit open for %s (%d consecutive failures, cooling %s)",
			b.spec.URL, breakerFails, gw.breakerCooldown)
	}
}

func truncated(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
