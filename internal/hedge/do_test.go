package hedge

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeTarget is one scripted target of a Do call: what its Send does,
// and what Do did to the launch that went to it.
type fakeTarget struct {
	name string
	// wait is how long Send takes; it returns early, with the context's
	// error, when its launch is cancelled — unless deaf is set, which
	// models a Send that breaks Call.Send's contract and ignores the
	// cancel, or a reply already on the wire when it lands. err, if set,
	// is what it then fails with.
	wait time.Duration
	deaf bool
	err  error

	mu    sync.Mutex
	calls int
	ctx   context.Context // the last launch's
}

func (f *fakeTarget) send(ctx context.Context) (string, error) {
	f.mu.Lock()
	f.calls++
	f.ctx = ctx
	f.mu.Unlock()
	if f.deaf {
		time.Sleep(f.wait)
	} else {
		select {
		case <-time.After(f.wait):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	if f.err != nil {
		return "", f.err
	}
	return f.name, nil
}

func (f *fakeTarget) seen() (calls int, ctx context.Context) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls, f.ctx
}

// armed returns a tracker whose hedge delay is d; unarmed for d == 0.
func armed(d time.Duration) *Tracker {
	tr := &Tracker{quantile: 0.5, Floor: d}
	for i := 0; d > 0 && i < 3; i++ {
		tr.Record(time.Microsecond)
	}
	return tr
}

func samples(tr *Tracker) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.samples)
}

// waitFor polls cond for up to a second; the second copies and deaf
// stragglers it waits for finish in milliseconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDo drives the loop on fake targets — no sockets, a millisecond
// backoff with pinned jitter — and checks every case against what Do
// reported, what the observers were told, how long it took and what
// became of each launch's context: every one has ended when Do returns,
// and only a launch still running when its round was decided was told
// ErrLost.
func TestDo(t *testing.T) {
	errDown := errors.New("target down")
	shed := &StatusError{Code: 503, RetryAfter: 40 * time.Millisecond}
	const straggle = 150 * time.Millisecond

	cases := []struct {
		name string
		// hedgeAfter arms the tracker with that delay; 0 leaves it unarmed.
		// Targets are picked in order, wrapping, never the excluded one.
		// cancelAfter, if set, ends the caller's context that far in.
		hedgeAfter  time.Duration
		targets     []*fakeTarget
		cancelAfter time.Duration

		value     string // the answer; "" for a failed call
		round     int
		hedged    bool
		err       error    // errors.Is target of a failed call's error
		errText   string   // and a substring of it
		calls     []int    // launches per target
		loser     string   // the target whose launch was still running when the other won
		retried   int      // Retried calls
		hedges    []string // Hedged calls, "primary>secondary"
		latencies int      // successes recorded by the time Do returns; 0 is 1
		min, max  time.Duration
	}{
		{
			name:    "primary answers",
			targets: []*fakeTarget{{name: "a"}, {name: "b"}},
			value:   "a", round: 1,
			calls: []int{1, 0},
		},
		{
			// Round 2 starts no sooner than the failure's Retry-After,
			// far above the 2ms schedule.
			name:    "unarmed fast failure retries after the Retry-After floor",
			targets: []*fakeTarget{{name: "a", err: shed}, {name: "b"}},
			value:   "b", round: 2,
			calls:   []int{1, 1},
			retried: 1, min: shed.RetryAfter,
		},
		{
			// The timer is a minute out and a backoff would show as a
			// retry: only the at-once second launch answers in round 1.
			name:       "armed fast failure hedges without a sleep",
			hedgeAfter: time.Minute,
			targets:    []*fakeTarget{{name: "a", err: errDown}, {name: "b"}},
			value:      "b", round: 1, hedged: true,
			calls:  []int{1, 1},
			hedges: []string{"a>b"}, max: time.Second,
		},
		{
			// The primary runs on Do's goroutine and honours its cancel:
			// the second copy's answer at the hedge delay ends it.
			name:       "straggler overtaken at the hedge delay, loser cancelled before return",
			hedgeAfter: 10 * time.Millisecond,
			targets:    []*fakeTarget{{name: "a", wait: time.Minute}, {name: "b"}},
			value:      "b", round: 1, hedged: true,
			calls: []int{1, 1}, loser: "a",
			hedges: []string{"a>b"},
			min:    10 * time.Millisecond, max: time.Second,
		},
		{
			// a is deaf: it succeeds 150ms in whatever happens to its
			// context, and holds Do — whose goroutine it runs on — until
			// then. The answer is still b's, and a's success is dropped.
			name:       "straggler hedged, loser cancelled before return, its late success discarded",
			hedgeAfter: 10 * time.Millisecond,
			targets:    []*fakeTarget{{name: "a", wait: straggle, deaf: true}, {name: "b"}},
			value:      "b", round: 1, hedged: true,
			calls: []int{1, 1}, loser: "a",
			hedges:    []string{"a>b"},
			latencies: 2,
			min:       straggle, max: straggle + time.Second,
		},
		{
			// The primary answers while the second copy is out: b is told
			// ErrLost, and its deaf late success, delivered after Do has
			// answered, is dropped (the goroutine baseline below waits it
			// out).
			name:       "primary answers after the hedge launched, the second copy's late success discarded",
			hedgeAfter: 10 * time.Millisecond,
			targets:    []*fakeTarget{{name: "a", wait: 40 * time.Millisecond}, {name: "b", wait: straggle, deaf: true}},
			value:      "a", round: 1,
			calls: []int{1, 1}, loser: "b",
			hedges: []string{"a>b"},
			min:    40 * time.Millisecond, max: straggle,
		},
		{
			name:       "one target never hedges onto itself",
			hedgeAfter: time.Millisecond,
			targets:    []*fakeTarget{{name: "a", wait: 20 * time.Millisecond}},
			value:      "a", round: 1,
			calls: []int{1},
		},
		{
			name: "no target ends the call at once",
			err:  ErrNoTarget, max: time.Second,
		},
		{
			name:    "every round fails",
			targets: []*fakeTarget{{name: "a", err: errDown}},
			err:     errDown, errText: "all 3 attempts",
			calls:   []int{3},
			retried: 2,
		},
		{
			// Both launches are out when the cancel lands: the primary on
			// Do's goroutine, the second copy on the timer's.
			name:        "caller's context cancelled mid-round",
			hedgeAfter:  time.Millisecond,
			targets:     []*fakeTarget{{name: "a", wait: time.Minute}, {name: "b", wait: time.Minute}},
			cancelAfter: 30 * time.Millisecond,
			err:         context.Canceled,
			calls:       []int{1, 1},
			hedges:      []string{"a>b"}, max: time.Second,
		},
	}

	baseline := runtime.NumGoroutine()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var retried int
			var hedges []string
			tr := armed(tc.hedgeAfter)
			before := samples(tr)
			next := 0
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter > 0 {
				time.AfterFunc(tc.cancelAfter, cancel)
			}

			start := time.Now()
			res, err := Do(ctx, Call[*fakeTarget, string]{
				Attempts: 3,
				Backoff:  Backoff{Base: 2 * time.Millisecond, Max: 4 * time.Millisecond, Jitter: fixedJitter(1)},
				Tracker:  tr,
				Pick: func(exclude *fakeTarget) (*fakeTarget, bool) {
					for range tc.targets {
						f := tc.targets[next%len(tc.targets)]
						next++
						if f != exclude {
							return f, true
						}
					}
					return nil, false
				},
				Send: func(ctx context.Context, f *fakeTarget) (string, error) { return f.send(ctx) },
				Retried: func(round int, last error) {
					if last == nil || round != retried+2 {
						t.Errorf("Retried(%d, %v) as call %d", round, last, retried+1)
					}
					retried++
				},
				Hedged: func(primary, secondary *fakeTarget) {
					hedges = append(hedges, primary.name+">"+secondary.name)
				},
			})
			elapsed := time.Since(start)

			// The moment Do returns, every launch's context has ended — the
			// winner's too, its value complete, and a launch still out is
			// already cancelled — and only a round's loser was told ErrLost.
			for i, f := range tc.targets {
				calls, fctx := f.seen()
				if calls != tc.calls[i] {
					t.Errorf("target %s launched %d times, want %d", f.name, calls, tc.calls[i])
				}
				switch {
				case calls == 0:
				case fctx.Err() == nil:
					t.Errorf("target %s: launch context still live when Do returned", f.name)
				case (context.Cause(fctx) == ErrLost) != (f.name == tc.loser):
					t.Errorf("target %s: context cause %v when Do returned", f.name, context.Cause(fctx))
				}
			}
			if tc.value == "" {
				if err == nil || !errors.Is(err, tc.err) || !strings.Contains(err.Error(), tc.errText) {
					t.Fatalf("Do = %v; want an error wrapping %v and naming %q", err, tc.err, tc.errText)
				}
			} else {
				if err != nil || res.Value != tc.value || res.Round != tc.round || res.Hedged != tc.hedged {
					t.Fatalf("Do = %+v, %v; want %q from round %d (second launch: %v)", res, err, tc.value, tc.round, tc.hedged)
				}
				if got, want := samples(tr)-before, max(tc.latencies, 1); got != want {
					t.Errorf("%d latencies recorded, want %d", got, want)
				}
			}
			if elapsed < tc.min || (tc.max > 0 && elapsed >= tc.max) {
				t.Errorf("took %v, want within [%v, %v)", elapsed, tc.min, tc.max)
			}
			if retried != tc.retried || !slices.Equal(hedges, tc.hedges) {
				t.Errorf("retried %d hedged %v; want %d and %v", retried, hedges, tc.retried, tc.hedges)
			}
		})
	}
	// Nothing any case started is left behind: second copies, deaf
	// stragglers, timers.
	waitFor(t, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestDoPrimaryFailsWhileTimerFires fails the primary as the hedge timer
// launches the second copy: with the timer's callback inside Pick, holding
// the round, and with the two racing at the hedge delay. Either the timer
// or Do's goroutine picks the second copy, never both: Pick is called
// twice in the round, Hedged once, and the second copy answers. Both
// launch contexts have ended when Do returns; only a primary still out
// when the second copy won was told ErrLost.
func TestDoPrimaryFailsWhileTimerFires(t *testing.T) {
	errDown := errors.New("target down")
	const delay = 2 * time.Millisecond
	baseline := runtime.NumGoroutine()
	for _, holds := range []bool{true, false} {
		for range 20 {
			a, b := &fakeTarget{name: "a"}, &fakeTarget{name: "b"}
			firing := make(chan struct{})
			var picks, hedges int
			var mu sync.Mutex
			var ctxs []context.Context // the launches'

			res, err := Do(context.Background(), Call[*fakeTarget, string]{
				Attempts: 1,
				Tracker:  armed(delay),
				Pick: func(exclude *fakeTarget) (*fakeTarget, bool) {
					picks++
					if exclude == nil {
						return a, true
					}
					if holds {
						close(firing)
						time.Sleep(delay) // the primary fails meanwhile
					}
					return b, true
				},
				Send: func(ctx context.Context, f *fakeTarget) (string, error) {
					mu.Lock()
					ctxs = append(ctxs, ctx)
					mu.Unlock()
					if f == b {
						return f.send(ctx)
					}
					if holds {
						<-firing
					} else {
						time.Sleep(delay)
					}
					return "", errDown
				},
				Hedged: func(_, _ *fakeTarget) { hedges++ },
			})
			if err != nil || res.Value != "b" || !res.Hedged {
				t.Fatalf("holds=%v: Do = %+v, %v; want b from the second copy", holds, res, err)
			}
			if picks != 2 || hedges != 1 {
				t.Fatalf("holds=%v: %d Pick and %d Hedged calls, want 2 and 1", holds, picks, hedges)
			}
			// Racing, the primary may still be out when the second copy
			// wins; held, it failed first.
			mu.Lock()
			for i, ctx := range ctxs {
				if ctx.Err() == nil || (context.Cause(ctx) == ErrLost && (holds || i == 1)) {
					t.Errorf("holds=%v: launch %d context has error %v, cause %v when Do returned",
						holds, i, ctx.Err(), context.Cause(ctx))
				}
			}
			mu.Unlock()
		}
	}
	waitFor(t, "goroutines to return to the baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestDoHealthyRoundCost holds what a round whose primary answers costs:
// no goroutine — Send runs on Do's caller's goroutine (compared by id, not
// by counting the process's goroutines, which earlier tests' stragglers
// are still leaving), and an armed hedge timer has none until it fires —
// and a fixed handful of allocations (the round's state, the launch's
// context, the timer).
func TestDoHealthyRoundCost(t *testing.T) {
	cases := []struct {
		name      string
		tracker   *Tracker
		maxAllocs float64
	}{
		{"unarmed", &Tracker{minSamples: 1 << 30}, 3},
		{"armed", armed(time.Minute), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inside string
			var launch context.Context
			call := Call[string, string]{
				Attempts: 1,
				Tracker:  tc.tracker,
				Pick:     func(string) (string, bool) { return "a", true },
				Send: func(ctx context.Context, _ string) (string, error) {
					if inside == "" { // the first round only: the rest count allocations
						inside, launch = goroutineID(), ctx
					}
					return "a", nil
				},
				Hedged: func(_, _ string) { t.Error("a healthy round hedged") },
			}
			caller := goroutineID()
			res, err := Do(context.Background(), call)
			if err != nil || res.Value != "a" {
				t.Fatalf("Do = %+v, %v", res, err)
			}
			if launch.Err() == nil {
				t.Error("the launch's context still live when Do returned")
			}
			if inside != caller {
				t.Errorf("Send ran on goroutine %s, Do's caller is goroutine %s", inside, caller)
			}
			allocs := testing.AllocsPerRun(200, func() { Do(context.Background(), call) })
			if allocs > tc.maxAllocs {
				t.Errorf("a healthy round allocates %.0f times, want at most %.0f", allocs, tc.maxAllocs)
			}
		})
	}
}

// goroutineID is the running goroutine's id, the second word of the
// "goroutine N [running]:" line runtime.Stack writes first.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}
