// Package hedge is the read fleet's one retry / hedge / backoff loop. Do
// (do.go) makes a call against a set of interchangeable targets: it
// runs the rounds, sleeps the capped equal-jitter backoff between them
// floored at the Retry-After the failed target sent, sends a round's first
// copy on the caller's own goroutine, arms the straggler timer from the
// completed-request latency window, launches the second copy on a
// goroutine of its own when it fires (or on the caller's, at once, when
// the first copy has already failed), takes the first success, cancels
// the loser and drops its late success: a launch's value is complete
// when it returns, so no launch context outlives Do. A healthy round thus
// costs a timer, not a goroutine; the price is a contract on the call
// itself, that it returns soon after its context ends (Call.Send), which
// a net/http exchange made under that context keeps. Its one caller is
// the read gateway (internal/route) relaying a read to a replica; the
// loop is tested here, on fake targets.
//
// What is the caller's stays with it, passed in as functions: which
// targets are eligible and in what order (Pick), how one is called and
// what its outcome says about its health (Send: the gateway's circuit
// breaker), and its own counters and log lines (Retried, Hedged). Do
// never branches on who called it.
//
// The pieces are usable alone: Backoff is the schedule (the ingest
// controller's fold retries and serve's segment quarantine draw from
// it), Tracker the latency window, StatusError / ResponseError the
// failed HTTP reply carrying the server's Retry-After hint.
package hedge

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Backoff is a capped exponential backoff with equal jitter: attempt n
// (1-based) waits Base·2^(n-1) capped at Max, scaled into [½, 1]× by
// the jitter source so simultaneous retriers spread out instead of
// stampeding back in lockstep.
type Backoff struct {
	// Base and Max bound the exponential schedule; zero values select
	// 100ms and 5s.
	Base, Max time.Duration
	// Jitter returns values in [0, 1); nil uses math/rand. Tests pin it
	// for determinism.
	Jitter func() float64
}

// Delay returns the jittered wait before the given 1-based attempt.
func (b Backoff) Delay(attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 { // <= 0: the shift overflowed
		d = max
	}
	half := d / 2
	jitter := b.Jitter
	if jitter == nil {
		jitter = rand.Float64
	}
	return half + time.Duration(jitter()*float64(d-half))
}

// Sleep waits the attempt's jittered delay — or floor, when the server
// asked for longer via Retry-After (pass RetryAfterHint(lastErr)); the
// larger of the two wins, so a backend's own overload signal is never
// undercut by an eager local schedule. Returns early with the context's
// error if it is done first.
func (b Backoff) Sleep(ctx context.Context, attempt int, floor time.Duration) error {
	d := b.Delay(attempt)
	if floor > d {
		d = floor
	}
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Tracker keeps a bounded window of the last 64 completed-request
// latencies and turns their 95th percentile into the delay after which an
// outstanding request counts as a straggler worth hedging. It reports no
// delay until 3 completions are recorded: before that there is no latency
// signal to call anything a straggler against.
type Tracker struct {
	// Floor is the minimum hedge delay (default 250ms) so a burst of fast
	// completions cannot arm hair-trigger hedging.
	Floor time.Duration

	// quantile, minSamples and window override 0.95, 3 and 64 when set;
	// only this package's tests set them.
	quantile   float64
	minSamples int
	window     int

	mu      sync.Mutex
	samples []time.Duration
}

// Record files one completed-request latency.
func (t *Tracker) Record(d time.Duration) {
	window := cmp.Or(t.window, 64)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = append(t.samples, d)
	if len(t.samples) > window {
		t.samples = t.samples[len(t.samples)-window:]
	}
}

// Delay returns when an outstanding request becomes a straggler: the
// percentile of recorded latencies, floored at Floor. ok is false until
// enough completions have been recorded.
//
// Every call of Do asks, and on a healthy fleet the answer is the floor:
// the sample of ascending rank idx is at or below it exactly when more
// than idx samples are, which a count decides. Only a percentile that
// really is above the floor is found by sorting.
func (t *Tracker) Delay() (delay time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) < cmp.Or(t.minSamples, 3) {
		return 0, false
	}
	q := cmp.Or(t.quantile, 0.95)
	floor := t.Floor
	if floor <= 0 {
		floor = 250 * time.Millisecond
	}
	idx := int(float64(len(t.samples)-1) * q)
	atOrBelow := 0
	for _, d := range t.samples {
		if d <= floor {
			atOrBelow++
		}
	}
	if atOrBelow > idx {
		return floor, true
	}
	sorted := slices.Clone(t.samples)
	slices.Sort(sorted)
	return sorted[idx], true
}

// StatusError is a non-2xx HTTP reply treated as a dispatch failure,
// carrying the server's Retry-After hint (zero when the reply had
// none) so the retry loop can honor it.
type StatusError struct {
	Code       int
	RetryAfter time.Duration
	Detail     string
}

func (e *StatusError) Error() string {
	s := fmt.Sprintf("answered %d", e.Code)
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (Retry-After %s)", e.RetryAfter)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

// detailCap bounds how much of a failed reply ResponseError reads: enough
// to drain an ordinary error body so the connection is reused, never an
// answer-sized one. detailKeep is how much of it the error text carries.
const (
	detailCap  = 4 << 10
	detailKeep = 200
)

// ResponseError turns a reply the caller has classified as failed into
// the StatusError for it — status, Retry-After hint, the start of the
// body as detail — and closes the body.
func ResponseError(resp *http.Response) *StatusError {
	detail, _ := io.ReadAll(io.LimitReader(resp.Body, detailCap))
	resp.Body.Close()
	if len(detail) > detailKeep {
		detail = append(detail[:detailKeep], "..."...)
	}
	return &StatusError{
		Code:       resp.StatusCode,
		RetryAfter: ParseRetryAfter(resp.Header),
		Detail:     strings.TrimSpace(string(detail)),
	}
}

// RetryAfterHint extracts the Retry-After duration from an error chain
// containing a StatusError; zero when there is none. Feed the result to
// Backoff.Sleep's floor so the max of the local schedule and the
// server's hint is waited.
func RetryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// ParseRetryAfter reads an HTTP Retry-After header in either of its
// forms (delta-seconds or HTTP-date); zero when absent or unparseable.
func ParseRetryAfter(h http.Header) time.Duration {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
