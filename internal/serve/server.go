package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/clickgraph"
)

// This file is the query-rewrite front-end of Figure 2 as a daemon: an
// HTTP/JSON server answering rewrite queries from a snapshot the batch
// side wrote — /rewrite from its precomputed §9.3 lists, /similar from its
// score segments — with answers rendered straight into the response
// bytes, and a lock-guarded snapshot swap so SIGHUP reloads never disturb
// in-flight requests.
//
// The serving path is built to fail partially, not totally (see
// OPERATIONS.md): a quarantined shard degrades /readyz while every other
// shard keeps answering, overload is shed with 503 + Retry-After at a
// bounded in-flight limit instead of queueing unboundedly, every scoring
// request carries a deadline down to the segment load, and a handler
// panic becomes a 500 plus a counter rather than a dead daemon.

// Config parameterizes a Server.
type Config struct {
	// DefaultTop is the rewrite depth when the request omits top; the
	// paper serves at most 5. Every depth, this one included, is capped at
	// the served snapshot's top-k depth K.
	DefaultTop int
	// BidTerms is the bid-term set /rewrite filters under (nil: none). The
	// snapshot's lists must have been built under the same set: OpenServing
	// and every reload refuse one that was not.
	BidTerms map[string]bool
	// MaxInFlight bounds concurrently-served scoring requests (/rewrite
	// and /similar). Excess requests are shed immediately with 503 +
	// Retry-After instead of queueing: under overload, fast rejection
	// keeps tail latency bounded for the requests that are admitted.
	// <= 0 disables shedding.
	MaxInFlight int
	// RequestTimeout is the per-request deadline on scoring endpoints,
	// plumbed as a context down to the segment load; an exceeded deadline
	// answers 504. <= 0 disables deadlines.
	RequestTimeout time.Duration
}

// MaxBatch caps how many queries one POST /batch may carry. A batch
// occupies one in-flight slot and one deadline no matter its size, so the
// cap is what keeps a single request from monopolizing the scoring
// budget; the gateway applies the same cap.
const MaxBatch = 256

const (
	// retryAfterSeconds is the base Retry-After hint on shed responses.
	// Under sustained overload the hint grows with the shed streak — each
	// MaxInFlight consecutive rejections (a full window's worth of
	// turned-away work) add another base interval — so clients back off
	// proportionally instead of re-arriving in the same wave. The streak
	// resets as soon as a request is admitted.
	retryAfterSeconds = 1
	// maxRetryAfterSeconds clamps the derived Retry-After hint.
	maxRetryAfterSeconds = 30
)

// DefaultServerConfig returns the paper's depth-5 serving settings with a
// 256-request in-flight bound and a 5s deadline.
func DefaultServerConfig() Config {
	return Config{DefaultTop: 5, MaxInFlight: 256, RequestTimeout: 5 * time.Second}
}

// EndpointStats is one endpoint's request/error counters in /stats, with
// latency percentiles over the last latWindowSize requests.
type EndpointStats struct {
	Requests  int64 `json:"requests"`
	Errors4xx int64 `json:"errors_4xx"`
	Errors5xx int64 `json:"errors_5xx"`
	// P50Ms/P99Ms are handler-latency percentiles over a sliding window
	// of recent requests; absent until the endpoint has served one.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// latWindowSize is the per-endpoint latency ring: big enough for stable
// p99 estimates, small enough that /stats sorts it without noticing.
const latWindowSize = 512

// latWindow is a fixed-size ring of recent request latencies.
type latWindow struct {
	mu      sync.Mutex
	samples [latWindowSize]float64 // milliseconds
	n, next int
}

func (l *latWindow) record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.samples[l.next] = ms
	l.next = (l.next + 1) % latWindowSize
	if l.n < latWindowSize {
		l.n++
	}
	l.mu.Unlock()
}

// percentiles returns (p50, p99) over the window, zeros when empty.
func (l *latWindow) percentiles() (float64, float64) {
	l.mu.Lock()
	n := l.n
	buf := append([]float64(nil), l.samples[:n]...)
	l.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(buf)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		return buf[i]
	}
	return rank(0.50), rank(0.99)
}

// endpointCounters is the live (atomic) form of EndpointStats.
type endpointCounters struct {
	requests, errors4xx, errors5xx atomic.Int64
	lat                            latWindow
}

func (c *endpointCounters) snapshot() EndpointStats {
	p50, p99 := c.lat.percentiles()
	return EndpointStats{
		Requests:  c.requests.Load(),
		Errors4xx: c.errors4xx.Load(),
		Errors5xx: c.errors5xx.Load(),
		P50Ms:     p50,
		P99Ms:     p99,
	}
}

// Server answers rewrite queries over HTTP from a snapshot.
//
// Endpoints:
//
//	GET /rewrite?q=QUERY[&top=K]  pipeline-filtered rewrites (stem dedup,
//	                              bid filtering, depth cap), read from the
//	                              snapshot's top-k section
//	GET /similar?q=QUERY[&top=K]  raw ranked similar queries, unfiltered
//	GET /similar?ad=AD[&top=K]    raw ranked similar ads
//	POST /batch                   many rewrite lookups in one request
//	GET /stats                    serving counters + index metadata
//	GET /healthz                  liveness probe (process up)
//	GET /readyz                   readiness: ok / degraded / unready,
//	                              with quarantined-shard detail
type Server struct {
	cfg   Config
	start time.Time

	// bidHash identifies cfg.BidTerms (BidTermsHash): a snapshot whose
	// top-k section records another is not swapped in (servable).
	bidHash uint64

	// inflight is the scoring-request admission semaphore; nil when
	// shedding is disabled.
	inflight chan struct{}

	// mu guards idx and genID: handlers hold the read side for the whole
	// request, so swap (write side) returns only once no request uses the
	// old snapshot — the graceful half of graceful reload — and a reader
	// sees a snapshot with the generation id it was swapped in under.
	mu  sync.RWMutex
	idx *Snapshot
	// genID is the journal generation id of the served snapshot when the
	// daemon could resolve one (OpenServing / ReloadServing match the
	// snapshot fingerprint against the generation store); 0 otherwise.
	genID uint64

	// reloading lets one reload at a time open and swap, so an older open
	// never swaps in over a newer one.
	reloading sync.Mutex

	// ingest, when set, reports the co-located ingest controller's
	// bounded-staleness status into /readyz and /stats — the serving
	// surface is where operators and gateways already look.
	ingest atomic.Pointer[func() IngestStatus]

	endpoints      map[string]*endpointCounters
	requests       atomic.Int64
	reloads        atomic.Int64
	reloadFailures atomic.Int64
	shed           atomic.Int64
	panics         atomic.Int64
	// shedStreak counts consecutive sheds since the last successful
	// admit — the overload-depth signal behind the derived Retry-After.
	shedStreak atomic.Int64

	// maxRetryAfter starts as maxRetryAfterSeconds; tests lower it after
	// NewServer.
	maxRetryAfter int
}

// NewServer returns a server answering from idx, which must be a
// *Snapshot: the interface in the signature is for callers built against
// it, and NewServer panics on anything else.
func NewServer(idx ScoreIndex, cfg Config) *Server {
	if cfg.DefaultTop <= 0 {
		cfg.DefaultTop = 5
	}
	s := &Server{cfg: cfg, idx: idx.(*Snapshot), start: time.Now(),
		bidHash: BidTermsHash(cfg.BidTerms), maxRetryAfter: maxRetryAfterSeconds}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.endpoints = make(map[string]*endpointCounters)
	for _, name := range []string{"rewrite", "similar", "batch", "stats", "healthz", "readyz"} {
		s.endpoints[name] = &endpointCounters{}
	}
	return s
}

// InFlight reports how many scoring requests are currently admitted
// (the in_flight gauge of /stats).
func (s *Server) InFlight() int {
	if s.inflight == nil {
		return 0
	}
	return len(s.inflight)
}

// SetGenerationID records the journal generation id of the served
// snapshot, surfaced in /readyz and /stats generation identity. Call it
// after swapping in an index whose journal id is known; 0 (the default)
// means "not journaled / unknown". ReloadServing sets the id itself,
// together with the swap.
func (s *Server) SetGenerationID(id uint64) {
	s.mu.Lock()
	s.genID = id
	s.mu.Unlock()
}

// IngestStatus is a co-located ingest controller's health as surfaced
// through the serving endpoints: /readyz upgrades "ok" to "degraded"
// while Degraded is true (still HTTP 200 — the daemon keeps answering
// from the last good generation, which is exactly why it should keep
// receiving traffic), and /stats carries the bounded-staleness gauges
// in Stats.
type IngestStatus struct {
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
	// Stats is the controller's gauge block (ingest.Stats):
	// wal_lag_records, last_fold_age_seconds, staleness_seconds,
	// refresh_failures, ...
	Stats any `json:"stats,omitempty"`
}

// SetIngestStatus wires an ingest controller's status callback into
// /readyz and /stats. fn is called per probe under no server locks and
// must be safe for concurrent use. Pass nil to detach.
func (s *Server) SetIngestStatus(fn func() IngestStatus) {
	if fn == nil {
		s.ingest.Store(nil)
		return
	}
	s.ingest.Store(&fn)
}

func (s *Server) ingestStatus() *IngestStatus {
	fn := s.ingest.Load()
	if fn == nil {
		return nil
	}
	st := (*fn)()
	return &st
}

// GenerationIdentity is the serving snapshot's generation identity as
// surfaced in /readyz and /stats: what a read gateway compares across a
// replicated fleet to pin generation-consistent answers, and what an
// operator checks to verify a rollout actually swapped generations.
type GenerationIdentity struct {
	// ID is the generation-journal id (simrank -refresh), 0 when the
	// served snapshot was never journaled or the id is unknown.
	ID uint64 `json:"id"`
	// Fingerprint is the snapshot's graph fingerprint hex (XOR of
	// per-shard subgraph fingerprints) — the fleet-agreement key.
	Fingerprint string    `json:"fingerprint"`
	GeneratedAt time.Time `json:"generated_at"`
	// DirtyShards is how many shards the producing refresh recomputed;
	// -1 for a full (non-incremental) build.
	DirtyShards int `json:"dirty_shards"`
}

// generationIdentity derives the identity of the snapshot being served.
// The caller holds s.mu.
func (s *Server) generationIdentity() *GenerationIdentity {
	m := s.idx.Meta()
	return &GenerationIdentity{
		ID:          s.genID,
		Fingerprint: m.Fingerprint,
		GeneratedAt: m.GeneratedAt,
		DirtyShards: m.LastRefreshDirty,
	}
}

// Index returns the currently-served snapshot — what the next admitted
// request will answer from.
func (s *Server) Index() ScoreIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx
}

// swap atomically replaces the served snapshot — and the generation id
// with it when id is non-nil — and returns the previous one once no
// in-flight request still reads it: the caller may then safely close it.
func (s *Server) swap(idx *Snapshot, id *uint64) *Snapshot {
	s.mu.Lock()
	old := s.idx
	s.idx = idx
	if id != nil {
		s.genID = *id
	}
	s.mu.Unlock()
	s.reloads.Add(1)
	return old
}

// Reload opens a fresh snapshot via load and swaps it in. What load
// returns must be a *Snapshot the server can answer from (servable: a
// top-k section built under the server's bid set); anything else fails
// the load, and a refused snapshot is closed. A failed load increments
// the reload-failure counter and — when fallback is non-nil — tries
// fallback (ReloadServing wires it to the last good journaled generation,
// so a corrupt new snapshot rolls the daemon back instead of wedging it);
// when both fail, the old snapshot keeps serving and the load error is
// returned. The swapped-out snapshot is passed to retire (which may close
// it); logf receives one line per attempt. Callbacks may be nil. Reloads
// run one at a time, and the generation id is kept.
func (s *Server) Reload(load, fallback func() (ScoreIndex, error), retire func(ScoreIndex), logf func(format string, args ...any)) error {
	return s.reload(load, fallback, nil, retire, logf)
}

// reload is Reload; a non-nil id is the generation id to swap in with
// what load or fallback opened, read once the one that succeeded returns.
func (s *Server) reload(load, fallback func() (ScoreIndex, error), id *uint64, retire func(ScoreIndex), logf func(format string, args ...any)) error {
	s.reloading.Lock()
	defer s.reloading.Unlock()
	logf = orSilent(logf)
	snap, err := s.open(load)
	if err != nil {
		s.reloadFailures.Add(1)
		if fallback == nil {
			logf("serve: reload failed, keeping current index: %v", err)
			return err
		}
		logf("serve: reload failed: %v", err)
		fsnap, ferr := s.open(fallback)
		if ferr != nil {
			logf("serve: generation fallback failed too, keeping current index: %v", ferr)
			return err
		}
		logf("serve: fell back to previous good generation")
		snap = fsnap
	}
	old := s.swap(snap, id)
	m := snap.Meta()
	logf("serve: reloaded index (%d queries, %d ads; generation %s, %d shards, fingerprint %s)",
		m.NumQueries, m.NumAds, m.GeneratedAt.Format(time.RFC3339), m.Shards, m.Fingerprint)
	if retire != nil && old != nil {
		retire(old)
	}
	return nil
}

// open runs one of a reload's loaders and converts what it returns at the
// boundary: a *Snapshot the server can answer from, or an error (and a
// refused snapshot closed).
func (s *Server) open(load func() (ScoreIndex, error)) (*Snapshot, error) {
	idx, err := load()
	if err != nil {
		return nil, err
	}
	snap, ok := idx.(*Snapshot)
	if !ok {
		return nil, fmt.Errorf("serve: a server answers from a *Snapshot, not a %T", idx)
	}
	if err := servable(snap, s.bidHash); err != nil {
		snap.Close()
		return nil, err
	}
	return snap, nil
}

// orSilent is logf, or a logger that drops its lines when logf is nil.
func orSilent(logf func(format string, args ...any)) func(format string, args ...any) {
	if logf == nil {
		return func(string, ...any) {}
	}
	return logf
}

// Handler returns the server's route multiplexer with the resilience
// middleware applied: request/error accounting on every endpoint, panic
// recovery, and — on the scoring endpoints only, so health probes keep
// answering under overload — load shedding and per-request deadlines.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/rewrite", s.instrument("rewrite", true, s.handleRewrite))
	mux.Handle("/similar", s.instrument("similar", true, s.handleSimilar))
	mux.Handle("/batch", s.instrument("batch", true, s.handleBatch))
	mux.Handle("/stats", s.instrument("stats", false, s.handleStats))
	mux.Handle("/healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.Handle("/readyz", s.instrument("readyz", false, s.handleReadyz))
	return mux
}

// statusWriter records the response status for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps one endpoint with the middleware chain. scoring marks
// the endpoints doing index work, which are the ones that shed load and
// carry deadlines; /stats, /healthz and /readyz always answer — an
// operator diagnosing an overloaded daemon must not be shed by it.
func (s *Server) instrument(name string, scoring bool, h http.HandlerFunc) http.Handler {
	c := s.endpoints[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		c.requests.Add(1)
		started := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			c.lat.record(time.Since(started))
			if p := recover(); p != nil {
				// A panicking handler must cost one 500, not the daemon.
				s.panics.Add(1)
				c.errors5xx.Add(1)
				if !sw.wrote {
					http.Error(sw.ResponseWriter, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
				}
				return
			}
			switch {
			case sw.status >= 500:
				c.errors5xx.Add(1)
			case sw.status >= 400:
				c.errors4xx.Add(1)
			}
		}()
		if scoring {
			if s.inflight != nil {
				select {
				case s.inflight <- struct{}{}:
					s.shedStreak.Store(0)
					defer func() { <-s.inflight }()
				default:
					// Shed: reject now, cheaply, rather than queue into a
					// latency spiral. Retry-After tells well-behaved
					// clients when to come back, scaled by how deep the
					// overload is (consecutive sheds per in-flight window)
					// and clamped.
					s.shed.Add(1)
					sw.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
					http.Error(sw, "overloaded: in-flight request limit reached", http.StatusServiceUnavailable)
					return
				}
			}
			if s.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(sw, r)
	})
}

// retryAfter derives the Retry-After hint for one shed response: the
// base interval, plus one more base interval per MaxInFlight consecutive
// rejections since the last admit, clamped at the ceiling.
// Every MaxInFlight sheds represent at least a full serving window of
// work already turned away ahead of this client, so its wait scales with
// the backlog it would re-join.
func (s *Server) retryAfter() int {
	streak := s.shedStreak.Add(1)
	depth := int64(s.cfg.MaxInFlight)
	if depth < 1 {
		depth = 1
	}
	return min(retryAfterSeconds*int(1+(streak-1)/depth), s.maxRetryAfter)
}

// RewriteAnswer is one served rewrite: an element of the "rewrites"
// array of a /rewrite, /similar or /batch answer (appendRewriteJSON).
type RewriteAnswer struct {
	Text  string  `json:"text"`
	Score float64 `json:"score"`
}

// topParam reads the depth from a request's already-parsed query string:
// 0 when the request omits it.
func topParam(params url.Values) (int, error) {
	raw := params.Get("top")
	if raw == "" {
		return 0, nil
	}
	top, err := strconv.Atoi(raw)
	if err != nil || top < 1 {
		return 0, fmt.Errorf("bad top %q: want a positive integer", raw)
	}
	return top, nil
}

// depth is the depth every scoring endpoint answers at: top, or
// DefaultTop when the request gave none (0), capped at the served
// snapshot's K — the stored lists' depth. The caller holds s.mu.
func (s *Server) depth(top int) int {
	if top == 0 {
		top = s.cfg.DefaultTop
	}
	return min(top, s.idx.meta.RewriteTopK)
}

// scoreErrorInfo maps a scoring-path failure to a status and message: an
// exceeded deadline is 504 (the request, not the server, ran out of
// time); anything else is a 500.
func scoreErrorInfo(err error) (int, string) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout, "deadline exceeded"
	}
	return http.StatusInternalServerError, err.Error()
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	top, err := topParam(params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	body, status, msg := s.rewriteBody(r.Context(), q, s.depth(top))
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	writeJSON(w, http.StatusOK, body, nil)
}

// rewriteBody renders one /rewrite answer — the shared core of the single
// endpoint and every /batch item. The caller holds the index read lock.
// It returns the JSON body (trailing newline included) with StatusOK, or
// a status and message for error answers.
//
// The answer is the query's list in the snapshot's top-k section, cut at
// top: the §9.3 pipeline wrote it at save time, and servable admitted the
// snapshot only under this server's bid set. A failed or quarantined blob
// answers 500, and an expired deadline 504, so a gateway fails the read
// over.
func (s *Server) rewriteBody(ctx context.Context, q string, top int) ([]byte, int, string) {
	qid, ok := s.idx.QueryID(q)
	if !ok {
		return nil, http.StatusNotFound, fmt.Sprintf("query %q not in index", q)
	}
	pre, err := s.idx.precomputed(ctx, qid, top)
	if err != nil {
		status, msg := scoreErrorInfo(err)
		return nil, status, msg
	}
	body, err := appendRewriteJSON(nil, q, s.idx.VariantName(), len(pre), func(i int) (string, float64) {
		return s.idx.Query(pre[i].Node), pre[i].Score
	})
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error()
	}
	return body, http.StatusOK, ""
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q, ad := params.Get("q"), params.Get("ad")
	if (q == "") == (ad == "") {
		http.Error(w, "give exactly one of q or ad", http.StatusBadRequest)
		return
	}
	top, err := topParam(params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	side, name, subject := clickgraph.QuerySide, s.idx.Query, q
	id, ok := 0, false
	if q != "" {
		id, ok = s.idx.QueryID(q)
	} else {
		side, name, subject = clickgraph.AdSide, s.idx.Ad, ad
		id, ok = s.idx.AdID(ad)
	}
	if !ok {
		http.Error(w, fmt.Sprintf("%s %q not in index", side, subject), http.StatusNotFound)
		return
	}
	scored, err := s.idx.ranked(r.Context(), side, id, s.depth(top))
	if err != nil {
		status, msg := scoreErrorInfo(err)
		http.Error(w, msg, status)
		return
	}
	body, err := appendRewriteJSON(nil, subject, s.idx.VariantName(), len(scored), func(i int) (string, float64) {
		return name(scored[i].Node), scored[i].Score
	})
	writeJSON(w, http.StatusOK, body, err)
}

// BatchRequest is the POST /batch payload: one round trip for many
// rewrite lookups, sharing one admission slot and one deadline.
type BatchRequest struct {
	Queries []string `json:"queries"`
	// Top is the rewrite depth for every query; 0 means the server's
	// default, and every depth is capped at the snapshot's K like the
	// single endpoint's top parameter.
	Top int `json:"top"`
}

// BatchItemError is one failed query's entry in a /batch response: the
// error message and status the single endpoint would have answered.
type BatchItemError struct {
	Query  string `json:"query"`
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// Item returns the error as a /batch result element.
func (e BatchItemError) Item() json.RawMessage {
	item, err := json.Marshal(e)
	if err != nil {
		return json.RawMessage(`{"error":"internal error","status":500}`)
	}
	return item
}

// BatchResponse is the POST /batch payload: results in request order,
// each either a /rewrite response object or a BatchItemError.
type BatchResponse struct {
	Results []json.RawMessage `json:"results"`
}

// maxBatchBody bounds the /batch request body; far above any plausible
// MaxBatch-query payload, far below anything that hurts.
const maxBatchBody = 8 << 20

// ReadBatchRequest decodes a POST /batch body and applies the checks
// every hop makes before doing any work: method, one well-formed JSON
// value and nothing but whitespace after it, at least one query, at most
// MaxBatch, a depth that is not negative. On failure it has written the
// error response and returns false. The gateway calls it too, so a fleet
// refuses what one daemon refuses, in the same words.
//
// A body as json.Marshal writes a BatchRequest — or as a client writes
// one without "top" — is read by the scanner (readPlainBatch); any other
// goes to json.Unmarshal, which alone knows the rest of what it accepts
// (escapes, other spellings of the keys, duplicate keys) and words every
// refusal.
func ReadBatchRequest(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a JSON body to /batch", http.StatusMethodNotAllowed)
		return BatchRequest{}, false
	}
	// The body is one JSON value: json.Unmarshal, unlike a Decoder, also
	// refuses whatever follows it (a second object, garbage) instead of
	// answering the first and dropping the rest.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBatchBody))
	var req BatchRequest
	if err == nil {
		var plain bool
		if req, plain = readPlainBatch(body); !plain {
			err = json.Unmarshal(body, &req)
		}
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad batch body: %v", err), http.StatusBadRequest)
		return req, false
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty batch: give queries", http.StatusBadRequest)
		return req, false
	}
	if len(req.Queries) > MaxBatch {
		http.Error(w, fmt.Sprintf("batch of %d queries exceeds the %d limit", len(req.Queries), MaxBatch), http.StatusBadRequest)
		return req, false
	}
	if req.Top < 0 {
		http.Error(w, fmt.Sprintf("bad top %d: want a positive integer", req.Top), http.StatusBadRequest)
		return req, false
	}
	return req, true
}

// readPlainBatch decodes body when it is {"queries":[…]} or
// {"queries":[…],"top":N}, whitespace aside, with the keys spelled so,
// every query a string of printable ASCII without escapes and N an
// integer that fits an int: what json.Unmarshal would decode from it.
// ok is false on any other body, well formed or not. The queries are
// substrings of one copy of body.
func readPlainBatch(body []byte) (req BatchRequest, ok bool) {
	s := jsonScanner{buf: body}
	if !s.token("{") || !s.token(`"queries"`) || !s.token(":") || !s.token("[") {
		return BatchRequest{}, false
	}
	text := string(body)
	// A comma follows every query but the last: the count bounds the
	// batch, which MaxBatch+1 queries already refuse.
	req.Queries = make([]string, 0, min(bytes.Count(body, []byte{','})+1, MaxBatch+1))
	if !s.elements(func() bool {
		start, end, ok := s.plainString()
		if ok {
			req.Queries = append(req.Queries, text[start:end])
		}
		return ok
	}) {
		return BatchRequest{}, false
	}
	if s.token(",") {
		if !s.token(`"top"`) || !s.token(":") {
			return BatchRequest{}, false
		}
		s.space()
		start := s.pos
		if !s.number() {
			return BatchRequest{}, false
		}
		// A fraction, an exponent or an int overflow is Unmarshal's error.
		top, err := strconv.Atoi(text[start:s.pos])
		if err != nil {
			return BatchRequest{}, false
		}
		req.Top = top
	}
	if !s.token("}") || !s.end() {
		return BatchRequest{}, false
	}
	return req, true
}

// AppendJSON appends req as json.Marshal writes it, for a non-nil
// Queries (Marshal writes a nil one as null): the body of the /batch a
// gateway sends a replica.
func (req BatchRequest) AppendJSON(dst []byte) []byte {
	// Room for the body when no query needs escaping: one allocation.
	n := len(`{"queries":[],"top":}`) + 20
	for _, q := range req.Queries {
		n += len(q) + 3
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"queries":[`...)
	for i, q := range req.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, q)
	}
	dst = append(dst, `],"top":`...)
	dst = strconv.AppendInt(dst, int64(req.Top), 10)
	return append(dst, '}')
}

// EncodeBatchResponse returns the /batch response body for items: the
// bytes json.Marshal(BatchResponse{Results: items}) plus a newline would
// give, without re-scanning the items. Each item must be a compact,
// HTML-escaped JSON value — json.Marshal output, or a json.RawMessage
// that json.Unmarshal filled from such output — which is what both the
// replica and the gateway hold when they answer.
func EncodeBatchResponse(items []json.RawMessage) []byte {
	const open, end = `{"results":[`, "]}\n"
	n := len(open) + len(end) + len(items)
	for _, item := range items {
		n += len(item)
	}
	body := append(make([]byte, 0, n), open...)
	for i, item := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, item...)
	}
	return append(body, end...)
}

// SplitBatchResponse is EncodeBatchResponse's inverse, for a hop that
// relays a batch answer without decoding it: it appends to dst the
// elements of body's results array, each a sub-slice of body trimmed of
// JSON whitespace — nothing is copied. ok is false unless body is valid
// JSON — checked in the same pass, by the grammar and the nesting limit
// json.Unmarshal applies — and exactly the envelope a replica writes: one
// object whose only member is "results", spelled so, holding an array.
// Whatever it accepts, json.Unmarshal into a BatchResponse accepts with
// the same elements; Unmarshal also tolerates more members and other
// spellings of the key.
func SplitBatchResponse(dst []json.RawMessage, body []byte) (items []json.RawMessage, ok bool) {
	s := jsonScanner{buf: body}
	if !s.token("{") || !s.token(`"results"`) || !s.token(":") || !s.token("[") {
		return nil, false
	}
	s.depth = 2 // the envelope's object and array
	if !s.elements(func() bool {
		start := s.pos
		if !s.value() {
			return false
		}
		dst = append(dst, body[start:s.pos])
		return true
	}) || !s.token("}") || !s.end() {
		return nil, false
	}
	return dst, true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := ReadBatchRequest(w, r)
	if !ok {
		return
	}

	// One read lock for the whole batch: every item answers from the
	// same snapshot even if a reload lands mid-request. An item is a
	// section lookup, cheaper than starting a goroutine, so the items are
	// answered here, in order.
	s.mu.RLock()
	defer s.mu.RUnlock()
	top := s.depth(req.Top)
	results := make([]json.RawMessage, len(req.Queries))
	for i, q := range req.Queries {
		body, status, msg := s.rewriteBody(r.Context(), q, top)
		if status != http.StatusOK {
			results[i] = BatchItemError{Query: q, Error: msg, Status: status}.Item()
			continue
		}
		// Already-rendered JSON embeds as-is, minus its trailing newline.
		results[i] = body[:len(body)-1]
	}
	writeJSON(w, http.StatusOK, EncodeBatchResponse(results), nil)
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts every request across all endpoints — including
	// the /stats request that reports it.
	Requests int64 `json:"requests"`
	// CacheHits is always 0: the server keeps no response cache. The
	// field stays while pathbench still reads it.
	CacheHits int64 `json:"cache_hits"`
	// Endpoints breaks requests and error responses down per endpoint.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// Shed counts scoring requests rejected 503 at the in-flight limit;
	// Panics counts handler panics turned into 500s; InFlight is the
	// scoring requests currently admitted.
	Shed     int64 `json:"shed"`
	Panics   int64 `json:"panics"`
	InFlight int   `json:"in_flight"`
	// Reloads counts successful index swaps; ReloadFailures counts
	// reload attempts whose new index failed to load (old index kept).
	Reloads        int64  `json:"reloads"`
	ReloadFailures int64  `json:"reload_failures"`
	Queries        int    `json:"queries"`
	Ads            int    `json:"ads"`
	Method         string `json:"method"`
	// Generation is the served snapshot's generation identity (also in
	// /readyz) — the fleet-agreement key a gateway and an operator check.
	Generation *GenerationIdentity `json:"generation,omitempty"`
	// Snapshot-backed indexes add their header metadata, how many of the
	// per-shard score segments are materialized, any segment-load
	// failure, and the currently-quarantined segments (degraded mode).
	Snapshot          *SnapshotMeta `json:"snapshot,omitempty"`
	LoadedSegments    int           `json:"loaded_segments,omitempty"`
	IndexError        string        `json:"index_error,omitempty"`
	QuarantinedShards int           `json:"quarantined_shards"`
	Quarantined       []ShardHealth `json:"quarantined,omitempty"`
	// Mmap reports whether the served snapshot's segment bytes are
	// memory-mapped (false: read into memory; the reader is the same).
	Mmap bool `json:"mmap"`
	// TopKSection describes the snapshot's precomputed rewrite section,
	// what /rewrite answers from.
	TopKSection *TopKSectionStats `json:"topk_section,omitempty"`
	// Ingest is the co-located ingest controller's status and
	// bounded-staleness gauges (SetIngestStatus); absent when the daemon
	// serves without one.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

// TopKSectionStats is /stats' view of the precomputed rewrite section.
type TopKSectionStats struct {
	// Present is whether the snapshot carries a section at all.
	Present bool `json:"present"`
	// K and TopN are the stored list depth — every request's depth cap —
	// and the candidate-pool size the lists were filtered from.
	K    int `json:"k"`
	TopN int `json:"top_n"`
	// BidFiltered is whether the lists were built under a bid-term set.
	BidFiltered bool `json:"bid_filtered"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ingest := s.ingestStatus() // called under no server locks
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := StatsResponse{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       s.requests.Load(),
		Endpoints:      make(map[string]EndpointStats, len(s.endpoints)),
		Shed:           s.shed.Load(),
		Panics:         s.panics.Load(),
		InFlight:       s.InFlight(),
		Reloads:        s.reloads.Load(),
		ReloadFailures: s.reloadFailures.Load(),
		Queries:        s.idx.NumQueries(),
		Ads:            s.idx.NumAds(),
		Method:         s.idx.VariantName(),
		Ingest:         ingest,
	}
	for name, c := range s.endpoints {
		resp.Endpoints[name] = c.snapshot()
	}
	resp.Generation = s.generationIdentity()
	meta := s.idx.Meta()
	resp.Snapshot = &meta
	resp.LoadedSegments = s.idx.LoadedSegments()
	if err := s.idx.Err(); err != nil {
		resp.IndexError = err.Error()
	}
	resp.Quarantined = s.idx.Quarantined()
	resp.QuarantinedShards = len(resp.Quarantined)
	resp.Mmap = s.idx.Mmapped()
	resp.TopKSection = &TopKSectionStats{
		Present:     meta.RewriteTopK > 0,
		K:           meta.RewriteTopK,
		TopN:        meta.RewriteTopN,
		BidFiltered: meta.RewriteBidFiltered,
	}
	body, err := json.Marshal(resp)
	writeJSON(w, http.StatusOK, append(body, '\n'), err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ReadyResponse is the /readyz payload.
type ReadyResponse struct {
	// Status is "ok" (fully serving), "degraded" (some shards
	// quarantined, the rest answering — HTTP 200, so load balancers
	// keep routing the traffic this daemon can still serve), or
	// "unready" (no usable index — HTTP 503).
	Status string `json:"status"`
	// Generation identifies which snapshot generation the answers come
	// from — a read gateway probes this to keep a replicated fleet's
	// responses generation-consistent during rollouts.
	Generation  *GenerationIdentity `json:"generation,omitempty"`
	Quarantined []ShardHealth       `json:"quarantined,omitempty"`
	// Ingest reports a co-located ingest controller's status: a failing
	// refresh turns Status "degraded" while the daemon keeps answering
	// from the last good generation.
	Ingest *IngestStatus `json:"ingest,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ingest := s.ingestStatus() // called under no server locks
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := ReadyResponse{Status: "ok", Ingest: ingest, Generation: s.generationIdentity()}
	code := http.StatusOK
	if quar := s.idx.Quarantined(); len(quar) > 0 {
		resp.Status = "degraded"
		resp.Quarantined = quar
		// Each shard has three sides — query and ad score segments for
		// /similar, the top-k blob for /rewrite. Only when every side of
		// every shard is quarantined can nothing be answered: unready, not
		// degraded.
		if len(quar) == 3*s.idx.NumShards() {
			resp.Status = "unready"
			code = http.StatusServiceUnavailable
		}
	}
	// A degraded ingest pipeline (refresh failing, staleness growing)
	// downgrades "ok" to "degraded" but never to unready: the last good
	// generation still answers, and HTTP stays 200 so routers keep
	// sending the traffic it can serve.
	if ingest != nil && ingest.Degraded && resp.Status == "ok" {
		resp.Status = "degraded"
	}
	body, err := json.Marshal(resp)
	writeJSON(w, code, append(body, '\n'), err)
}

// writeJSON answers code with a rendered JSON body, or err as a 500.
func writeJSON(w http.ResponseWriter, code int, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}
