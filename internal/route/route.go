// Package route is the read-side half of the fleet story: an HTTP
// gateway that spreads /rewrite and /similar traffic across replicated
// simrankd backends so the paper's "millions of users" serving load
// stops terminating at a single daemon.
//
// The gateway holds no scores. It probes each backend's /readyz on a
// jittered interval, classifies it ok / degraded / unready, and routes
// every read to a replica that can actually answer it:
//
//   - Health-aware: healthy replicas are preferred; a degraded replica
//     (some shards quarantined) is used only when no clean replica can
//     answer the query's shard.
//   - Shard-affine: when a ShardRouter (the snapshot's node→shard route
//     map) is configured, each query is mapped to its shard and only
//     replicas holding that shard — per their BackendSpec partition,
//     with hot shards replicated onto several backends — are candidates.
//   - Generation-consistent: every response is pinned to one snapshot
//     generation fingerprint. During a rollout the gateway keeps
//     routing to the old generation until a configurable quorum of
//     replicas report the new one, then cuts over atomically — answers
//     from different generations are never mixed (see prober.go).
//   - Tail-tolerant: failed reads (an answer cut short among them: each
//     is read whole before it is relayed) retry on another replica under
//     the shared capped equal-jitter backoff (honoring any Retry-After the
//     backend sent), stragglers are hedged to a second replica past a
//     completed-request latency percentile, and a backend failing
//     consecutively has its circuit opened for a cool-down. The loop is
//     internal/hedge's Do; the gateway supplies the candidate order, the
//     fetch and the breaker.
//
// When no replica can answer at all the gateway degrades to 503 +
// Retry-After instead of hanging — the same contract simrankd's own
// overload shedding makes. The chaos suite (chaos_test.go) pins all of
// this under fault injection and -race.
package route

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simrankpp/internal/hedge"
	"simrankpp/internal/serve"
)

// Health classifies one backend replica from its last probe.
type Health int

const (
	// HealthUnknown: never probed.
	HealthUnknown Health = iota
	// HealthUnreachable: the probe could not reach the backend or could
	// not parse its answer.
	HealthUnreachable
	// HealthUnready: the backend answered /readyz with "unready" (503) —
	// up, but with nothing it can serve.
	HealthUnready
	// HealthDegraded: /readyz answered 200 "degraded" — serving, with
	// some shard segments quarantined.
	HealthDegraded
	// HealthOK: /readyz answered 200 "ok".
	HealthOK
)

func (h Health) String() string {
	switch h {
	case HealthUnreachable:
		return "unreachable"
	case HealthUnready:
		return "unready"
	case HealthDegraded:
		return "degraded"
	case HealthOK:
		return "ok"
	}
	return "unknown"
}

// serveable reports whether reads may target a backend in this state at
// all; which reads is the per-shard tiering's business.
func (h Health) serveable() bool { return h == HealthOK || h == HealthDegraded }

// BackendSpec names one replica and, for partitioned fleets, the set of
// shards it holds. A nil Shards means the replica holds the full
// snapshot (the common whole-replica deployment). Hot shards are
// replicated by listing them in several backends' specs.
type BackendSpec struct {
	URL    string
	Shards []int
}

// ParseBackendSpec parses "URL" or "URL#S1,S2,..." (e.g.
// "http://host:8080#0,3,7" for a replica holding shards 0, 3 and 7).
func ParseBackendSpec(s string) (BackendSpec, error) {
	spec := BackendSpec{URL: strings.TrimSuffix(s, "/")}
	if i := strings.IndexByte(s, '#'); i >= 0 {
		spec.URL = strings.TrimSuffix(s[:i], "/")
		for _, part := range strings.Split(s[i+1:], ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			shard, err := strconv.Atoi(part)
			if err != nil || shard < 0 {
				return spec, fmt.Errorf("route: bad shard %q in backend spec %q", part, s)
			}
			spec.Shards = append(spec.Shards, shard)
		}
		if len(spec.Shards) == 0 {
			return spec, fmt.Errorf("route: backend spec %q names no shards after '#'", s)
		}
		sort.Ints(spec.Shards)
	}
	u, err := url.Parse(spec.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return spec, fmt.Errorf("route: backend spec %q is not an absolute URL", s)
	}
	return spec, nil
}

// ParseBackendList parses a comma-separated list of backend specs (the
// -backends flag). Shard lists use '#', so commas inside them are
// disambiguated by requiring every top-level element to start a URL:
// elements that don't contain "://" are folded into the previous
// spec's shard list.
func ParseBackendList(s string) ([]BackendSpec, error) {
	var rawSpecs []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.Contains(part, "://") || len(rawSpecs) == 0 {
			rawSpecs = append(rawSpecs, part)
		} else {
			rawSpecs[len(rawSpecs)-1] += "," + part
		}
	}
	specs := make([]BackendSpec, 0, len(rawSpecs))
	for _, raw := range rawSpecs {
		spec, err := ParseBackendSpec(raw)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("route: no backends in %q", s)
	}
	return specs, nil
}

// ShardRouter maps node names to the snapshot's shard indices — the
// affinity hint shard-partitioned routing needs. *serve.Snapshot
// implements it (the gateway opens the same snapshot the fleet serves,
// reading only header, string table and route map).
type ShardRouter interface {
	PrevQuery(name string) (id, shard int, ok bool)
	PrevAd(name string) (id, shard int, ok bool)
	NumShards() int
}

// segKey identifies one score segment: a (side, shard) pair, matching
// serve.ShardHealth's quarantine granularity.
type segKey struct {
	side  string
	shard int
}

// backendState is one replica's live view: the last probe's
// classification plus the read path's failure accounting.
type backendState struct {
	spec     BackendSpec
	shardSet map[int]bool // nil: holds every shard

	mu           sync.Mutex
	health       Health
	gen          string // generation fingerprint hex; "" unknown
	genID        uint64
	quarantined  map[segKey]bool
	lastProbeErr string
	probes       int64
	probeFails   int64

	consecFails  int
	readFails    int64
	breakerUntil time.Time
	breakerOpens int64
}

// observe files one probe result.
func (b *backendState) observe(h Health, gen string, genID uint64, quar []serve.ShardHealth, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probes++
	b.lastProbeErr = ""
	if err != nil {
		b.probeFails++
		b.lastProbeErr = err.Error()
	}
	b.health = h
	if gen != "" {
		b.gen, b.genID = gen, genID
	}
	b.quarantined = nil
	if len(quar) > 0 {
		b.quarantined = make(map[segKey]bool, len(quar))
		for _, q := range quar {
			b.quarantined[segKey{q.Side, q.Shard}] = true
		}
	}
}

// tierFor classifies the backend as a candidate for one read: tier 0
// (healthy), 1 (degraded but the needed segment is clean), 2 (degraded
// with the needed segment quarantined — last resort), or not a
// candidate at all (wrong generation, unready, circuit open, or a
// partitioned replica that does not hold the shard).
func (b *backendState) tierFor(pin, side string, shard int, now time.Time) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.health.serveable() || b.gen != pin {
		return 0, false
	}
	if now.Before(b.breakerUntil) {
		return 0, false
	}
	if shard >= 0 && b.shardSet != nil && !b.shardSet[shard] {
		return 0, false
	}
	if b.health == HealthOK {
		return 0, true
	}
	if shard >= 0 && b.quarantined[segKey{side, shard}] {
		return 2, true
	}
	return 1, true
}

// Options configures the gateway. Zero values select the defaults noted
// on each field.
type Options struct {
	// Backends is the replica fleet (required, at least one).
	Backends []BackendSpec
	// Router, when non-nil, enables shard-affine routing: queries map to
	// shards through it and partitioned replicas only receive reads for
	// shards they hold.
	Router ShardRouter
	// Quorum is the fraction of configured replicas that must report a
	// new generation before the gateway cuts reads over to it (default
	// 0.51 — a strict majority; see prober.go for the state machine).
	Quorum float64
	// RequestTimeout bounds one proxied read end to end, hedges
	// included (default 5s).
	RequestTimeout time.Duration
	// Transport overrides the HTTP transport for probes and reads (the
	// chaos suite's fault-injection seam) and is used as given; nil makes
	// the gateway build its own, pooled for the fleet (see New).
	Transport http.RoundTripper
	// Logf receives progress lines (probe transitions, cutovers,
	// breaker trips); nil discards them.
	Logf func(format string, args ...any)
}

// The failure handling is fixed: no setting tunes it. Every
// probeInterval, equal-jittered into [½, 1]× so a gateway fleet's probes
// don't align, each replica's /readyz is probed, and a probe not answered
// within probeTimeout counts as unreachable. A read gets maxAttempts
// dispatch rounds (two replicas in a round that is hedged); the wait
// between rounds is backoffBase doubling to backoffMax, equal-jittered and
// floored at any Retry-After the failed replica sent. A read outliving the
// p95 of completed reads (hedge.Tracker's percentile), at least
// hedgeFloor, once 3 have completed, is hedged to a second replica.
// breakerFails consecutive failed reads open a replica's circuit for
// breakerCooldown. retryAfter is the Retry-After hint (seconds) on the
// gateway's own 503s (no serveable replica, all attempts failed).
const (
	probeInterval   = 2 * time.Second
	probeTimeout    = time.Second
	maxAttempts     = 3
	backoffBase     = 25 * time.Millisecond
	backoffMax      = time.Second
	hedgeFloor      = 100 * time.Millisecond
	breakerFails    = 3
	breakerCooldown = 5 * time.Second
	retryAfter      = "1"
)

func (o *Options) withDefaults() Options {
	out := *o
	if out.Quorum <= 0 || out.Quorum > 1 {
		out.Quorum = 0.51
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 5 * time.Second
	}
	return out
}

// Gateway fans reads across the replica fleet.
type Gateway struct {
	opt    Options
	client *http.Client
	// pool is the transport New built because Options.Transport was nil;
	// Run closes its idle connections on the way out. Nil when the caller
	// supplied the transport — then the connections are the caller's.
	pool     *http.Transport
	backends []*backendState
	start    time.Time
	// The fixed failure policy; tests change it by setting these after New.
	probeInterval   time.Duration
	attempts        int
	backoff         hedge.Backoff
	lat             *hedge.Tracker
	breakerCooldown time.Duration
	maxAnswer       int64

	// mu guards the rollout state and the routing rotation.
	mu       sync.Mutex
	pinned   string // generation fingerprint reads are pinned to
	pending  string // a newer generation observed below quorum
	rr       int
	cutovers atomic.Int64
	forced   atomic.Int64

	requests  atomic.Int64
	batches   atomic.Int64 // /batch requests that passed validation
	batchSubs atomic.Int64 // upstream sub-requests formed for them
	proxied   atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	failovers atomic.Int64
	noReplica atomic.Int64
}

// idleConnsPerBackend is how many idle connections the gateway's own
// transport keeps to each replica. Every concurrent read holds one
// connection for its duration and hands it back idle; whatever does not
// fit the idle pool is closed, and the next read pays a TCP connect
// (http.DefaultTransport keeps 2, so 16 concurrent clients reconnected on
// 37 % of reads). A replica admits serve.DefaultServerConfig().MaxInFlight
// = 256 scoring requests at once and sheds the rest, so no more than that
// many connections to one replica carry useful work at a time; twice that
// leaves room for hedges, probes and an operator who raised -inflight.
// An idle connection costs a few KiB on either side and the transport's
// 90 s idle timeout returns what a burst left behind.
const idleConnsPerBackend = 512

// New builds a gateway over the configured fleet. It does not probe:
// call ProbeAll (or run Run in the background) before serving, or every
// read answers 503 for want of a pinned generation.
//
// With a nil Options.Transport the gateway owns its transport: a clone
// of http.DefaultTransport whose idle pool is unbounded in total and
// holds idleConnsPerBackend connections per replica.
func New(opt Options) (*Gateway, error) {
	if len(opt.Backends) == 0 {
		return nil, fmt.Errorf("route: at least one backend is required")
	}
	opt = (&opt).withDefaults()
	gw := &Gateway{
		opt:             opt,
		start:           time.Now(),
		probeInterval:   probeInterval,
		attempts:        maxAttempts,
		backoff:         hedge.Backoff{Base: backoffBase, Max: backoffMax},
		lat:             &hedge.Tracker{Floor: hedgeFloor},
		breakerCooldown: breakerCooldown,
		maxAnswer:       maxAnswer,
	}
	rt := opt.Transport
	if rt == nil {
		gw.pool = http.DefaultTransport.(*http.Transport).Clone()
		gw.pool.MaxIdleConns = 0 // no total bound: fleet size × the per-host bound is the bound
		gw.pool.MaxIdleConnsPerHost = idleConnsPerBackend
		rt = gw.pool
	}
	gw.client = &http.Client{Transport: rt}
	for _, spec := range opt.Backends {
		b := &backendState{spec: spec}
		if len(spec.Shards) > 0 {
			b.shardSet = make(map[int]bool, len(spec.Shards))
			for _, s := range spec.Shards {
				b.shardSet[s] = true
			}
		}
		gw.backends = append(gw.backends, b)
	}
	return gw, nil
}

func (gw *Gateway) logf(format string, args ...any) {
	if gw.opt.Logf != nil {
		gw.opt.Logf(format, args...)
	}
}

// Pinned reports the generation fingerprint reads are currently pinned
// to ("" before the first successful probe sweep).
func (gw *Gateway) Pinned() string {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.pinned
}
