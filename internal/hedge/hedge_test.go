package hedge

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"
)

// fixedJitter pins the jitter source so delay math is exact.
func fixedJitter(v float64) func() float64 { return func() float64 { return v } }

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 1 * time.Second, Jitter: fixedJitter(1)}
	// Jitter 1 yields the full (uncapped-then-capped) exponential.
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1 * time.Second, 1 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// A huge attempt must cap at Max, not overflow the shift.
	if got := b.Delay(500); got != b.Max {
		t.Errorf("Delay(500) = %v, want the %v cap", got, b.Max)
	}
	if got := b.Delay(0); got != 100*time.Millisecond {
		t.Errorf("Delay(0) = %v, want clamped to attempt 1", got)
	}
	// Jitter 0 yields the equal-jitter lower half.
	b.Jitter = fixedJitter(0)
	if got := b.Delay(3); got != 200*time.Millisecond {
		t.Errorf("Delay(3) at jitter 0 = %v, want half of 400ms", got)
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := Backoff{Jitter: fixedJitter(1)}
	if got := b.Delay(1); got != 100*time.Millisecond {
		t.Errorf("default base Delay(1) = %v, want 100ms", got)
	}
	if got := b.Delay(100); got != 5*time.Second {
		t.Errorf("default cap Delay(100) = %v, want 5s", got)
	}
}

// TestSleepHonorsRetryAfterFloor pins the satellite contract: the wait
// is the max of the local backoff and the server's Retry-After hint —
// neither undercuts the other.
func TestSleepHonorsRetryAfterFloor(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: fixedJitter(1)}
	start := time.Now()
	if err := b.Sleep(context.Background(), 1, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("slept %v, want at least the 60ms Retry-After floor", elapsed)
	}
	// A floor below the local schedule changes nothing.
	start = time.Now()
	if err := b.Sleep(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("slept %v for a 1ms schedule with no floor", elapsed)
	}
}

func TestSleepRespectsContext(t *testing.T) {
	b := Backoff{Base: time.Minute, Max: time.Minute}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := b.Sleep(ctx, 1, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Sleep = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep outlived its context by far")
	}
}

// TestTrackerArming pins the fixed schedule: no delay before 3 samples,
// then the p95 sample, of rank ⌊(n−1)·0.95⌋.
func TestTrackerArming(t *testing.T) {
	tr := &Tracker{Floor: time.Millisecond}
	if _, ok := tr.Delay(); ok {
		t.Fatal("tracker armed with no samples")
	}
	tr.Record(10 * time.Millisecond)
	tr.Record(20 * time.Millisecond)
	if _, ok := tr.Delay(); ok {
		t.Fatal("tracker armed below 3 samples")
	}
	tr.Record(30 * time.Millisecond)
	d, ok := tr.Delay()
	if !ok {
		t.Fatal("tracker not armed at 3 samples")
	}
	if d != 20*time.Millisecond {
		t.Fatalf("p95 of 10/20/30ms = %v, want 20ms (rank 1)", d)
	}
	for i := 4; i <= 21; i++ {
		tr.Record(time.Duration(i) * 10 * time.Millisecond)
	}
	if d, _ := tr.Delay(); d != 200*time.Millisecond {
		t.Fatalf("p95 of 10..210ms = %v, want 200ms (rank 19)", d)
	}
}

func TestTrackerFloorAndWindow(t *testing.T) {
	tr := &Tracker{quantile: 0.5, Floor: 100 * time.Millisecond, window: 4}
	for i := 0; i < 4; i++ {
		tr.Record(time.Millisecond)
	}
	if d, ok := tr.Delay(); !ok || d != 100*time.Millisecond {
		t.Fatalf("Delay = (%v, %v), want the 100ms floor", d, ok)
	}
	// The window drops the old fast samples: four slow ones displace them.
	for i := 0; i < 4; i++ {
		tr.Record(time.Second)
	}
	if d, _ := tr.Delay(); d != time.Second {
		t.Fatalf("Delay after window turnover = %v, want 1s", d)
	}
}

// sortedDelay is Delay's definition, kept as the reference: sort the
// window, take the sample of rank ⌊(n−1)·q⌋, floor it.
func sortedDelay(window []time.Duration, q float64, floor time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), window...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d := sorted[int(float64(len(sorted)-1)*q)]
	if d < floor {
		d = floor
	}
	return d
}

// TestTrackerDelayMatchesSortingDefinition holds Delay, which answers
// from a count whenever the percentile is at or under the floor, to the
// sorting definition over random windows, quantiles and floors — samples
// drawn from a few values around the floor so ties with it and with each
// other are common — and over more records than the window keeps.
func TestTrackerDelayMatchesSortingDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		floor := time.Duration(1+rng.Intn(8)) * time.Millisecond
		q := rng.Float64()
		if q == 0 {
			q = 0.5
		}
		window := 1 + rng.Intn(12)
		tr := &Tracker{quantile: q, Floor: floor, window: window, minSamples: 1}
		var recorded []time.Duration
		for n := 1 + rng.Intn(3*window); n > 0; n-- {
			d := time.Duration(rng.Intn(12)) * time.Millisecond
			if rng.Intn(4) == 0 {
				d += time.Duration(rng.Intn(3)-1) * time.Nanosecond
			}
			tr.Record(d)
			recorded = append(recorded, d)
			kept := recorded[max(0, len(recorded)-window):]
			got, ok := tr.Delay()
			if want := sortedDelay(kept, q, floor); !ok || got != want {
				t.Fatalf("trial %d: Delay() = (%v, %v) over %v (q %.3f, floor %v), sorting gives %v", trial, got, ok, kept, q, floor, want)
			}
		}
	}
}

// TestTrackerDelayUnderFloorDoesNotAllocate: the answer every read of a
// healthy fleet gets — a p95 far under the floor — costs no copy of the
// window and no sort.
func TestTrackerDelayUnderFloorDoesNotAllocate(t *testing.T) {
	tr := &Tracker{Floor: 100 * time.Millisecond}
	for i := 0; i < 200; i++ {
		tr.Record(time.Duration(150+i) * time.Microsecond)
	}
	if d, ok := tr.Delay(); !ok || d != 100*time.Millisecond {
		t.Fatalf("Delay = (%v, %v), want the 100ms floor", d, ok)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Delay() }); n != 0 {
		t.Errorf("Delay under the floor allocates %v times a call, want 0", n)
	}
}

func TestStatusErrorHint(t *testing.T) {
	se := &StatusError{Code: 503, RetryAfter: 7 * time.Second, Detail: "overloaded"}
	wrapped := fmt.Errorf("backend x: %w", se)
	if got := RetryAfterHint(wrapped); got != 7*time.Second {
		t.Fatalf("RetryAfterHint = %v, want 7s", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("RetryAfterHint(plain) = %v, want 0", got)
	}
	if got := RetryAfterHint(nil); got != 0 {
		t.Fatalf("RetryAfterHint(nil) = %v, want 0", got)
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if got := ParseRetryAfter(h); got != 0 {
		t.Fatalf("absent header = %v, want 0", got)
	}
	h.Set("Retry-After", "3")
	if got := ParseRetryAfter(h); got != 3*time.Second {
		t.Fatalf("delta-seconds = %v, want 3s", got)
	}
	h.Set("Retry-After", "0")
	if got := ParseRetryAfter(h); got != 0 {
		t.Fatalf("zero seconds = %v, want 0", got)
	}
	h.Set("Retry-After", "-5")
	if got := ParseRetryAfter(h); got != 0 {
		t.Fatalf("negative seconds = %v, want 0", got)
	}
	h.Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
	if got := ParseRetryAfter(h); got <= 0 || got > 30*time.Second {
		t.Fatalf("HTTP-date = %v, want within (0, 30s]", got)
	}
	h.Set("Retry-After", time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat))
	if got := ParseRetryAfter(h); got != 0 {
		t.Fatalf("past HTTP-date = %v, want 0", got)
	}
	h.Set("Retry-After", "soon")
	if got := ParseRetryAfter(h); got != 0 {
		t.Fatalf("garbage = %v, want 0", got)
	}
}

// countingBody is a response body that counts what is read from it and
// whether it was closed.
type countingBody struct {
	r      io.Reader
	read   int
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += n
	return n, err
}

func (b *countingBody) Close() error { b.closed = true; return nil }

// TestResponseErrorCapsTheRead: a failed reply is read for its detail up
// to detailCap and no further, however large — one byte more at most,
// the reader's look-ahead — its Retry-After surfaces through
// RetryAfterHint, and the body is closed.
func TestResponseErrorCapsTheRead(t *testing.T) {
	body := &countingBody{r: strings.NewReader(strings.Repeat("x", 1<<20))}
	resp := &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{"Retry-After": []string{"2"}},
		Body:       body,
	}
	err := fmt.Errorf("worker w: %w", ResponseError(resp))
	if body.read > detailCap+1 {
		t.Errorf("read %d bytes of a 1 MiB failure body, want at most %d", body.read, detailCap+1)
	}
	if !body.closed {
		t.Error("body left open")
	}
	if got := RetryAfterHint(err); got != 2*time.Second {
		t.Errorf("RetryAfterHint = %v, want 2s", got)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable || !strings.HasPrefix(se.Detail, "xxx") || len(se.Detail) > detailKeep+len("...") {
		t.Errorf("StatusError = %+v, want the 503 with the first %d bytes as detail", se, detailKeep)
	}
}
