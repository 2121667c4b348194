package hedge

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Call is one hedged call over a set of interchangeable targets: the
// policy Do runs it under, and what only the caller knows.
type Call[T comparable, R any] struct {
	// Attempts bounds the rounds (at least 1); a round is one target,
	// or two when hedged. Backoff spaces the rounds. Tracker arms the
	// hedge and receives every successful launch's latency; it outlives
	// the call.
	Attempts int
	Backoff  Backoff
	Tracker  *Tracker

	// Pick returns the next target to try, never exclude (the zero T on
	// a round's first pick, the round's primary on its second); false
	// when there is none.
	Pick func(exclude T) (T, bool)
	// Send runs the call against one target under the launch's own
	// context, and marks the target healthy or failed as the caller
	// sees fit. Its value is complete when it returns: the launch's
	// context ends then. A launch still running when the round's other
	// launch answered has ErrLost as its context.Cause.
	//
	// Send must return soon after its context ends, as a net/http round
	// trip and body read made under it do: a round's primary runs on Do's
	// own goroutine. A Send that ignores cancellation delays Do's return
	// until it does, but never changes the answer — a second copy that
	// answered first still wins, and the late success is dropped.
	Send func(ctx context.Context, target T) (R, error)
	// Retried is called before round (2 and up) sleeps its backoff,
	// with the failure that ended the round before; Hedged when a round
	// launches its second copy.
	Retried func(round int, last error)
	Hedged  func(primary, secondary T)
}

// Result is a call's answer and how it was reached.
type Result[R any] struct {
	Value R
	// Round is the 1-based round that answered; Hedged reports that the
	// round's second launch did.
	Round  int
	Hedged bool
}

var (
	// ErrNoTarget ends a call whose Pick had nothing to offer.
	ErrNoTarget = errors.New("hedge: no target to pick")
	// ErrLost is the cancellation cause of a launch whose round was won
	// by the other launch.
	ErrLost = errors.New("hedge: the round's other launch answered first")
)

// Do runs the call until one launch succeeds: up to Attempts rounds,
// round n > 1 first sleeping Backoff's delay for n-1 floored at the
// Retry-After hint of the failure before it. A round sends to one
// picked target on the caller's goroutine and, when Tracker is armed,
// to a second, different one once the first has been out for
// Tracker.Delay() — on a goroutine of its own, started by the timer —
// or at once if the first has already failed. The first success wins:
// the other launch, if still running, is cancelled with ErrLost before
// Do returns, and a success it delivers after that is dropped; no launch
// context outlives Do. Every successful launch's latency is recorded. A
// round with no target to pick ends the call without spending the rounds
// left; the caller's context ending ends it with that error.
func Do[T comparable, R any](ctx context.Context, c Call[T, R]) (Result[R], error) {
	var last error
	for round := 1; round <= c.Attempts; round++ {
		if round > 1 {
			c.Retried(round, last)
			if err := c.Backoff.Sleep(ctx, round-1, RetryAfterHint(last)); err != nil {
				return Result[R]{}, fmt.Errorf("%w (last error: %v)", err, last)
			}
		}
		res, err := c.round(ctx)
		if err == nil {
			res.Round = round
			return res, nil
		}
		if err == ErrNoTarget {
			if last != nil {
				err = fmt.Errorf("%w (last error: %v)", err, last)
			}
			return Result[R]{}, err
		}
		last = err
		if ctx.Err() != nil {
			return Result[R]{}, fmt.Errorf("%w (last error: %v)", ctx.Err(), last)
		}
	}
	return Result[R]{}, fmt.Errorf("all %d attempts failed: %w", c.Attempts, last)
}

// round is one dispatch round; its error is the first launch failure —
// the context's error, when the caller's context ending failed it — or
// ErrNoTarget.
func (c *Call[T, R]) round(ctx context.Context) (Result[R], error) {
	var none T
	primary, ok := c.Pick(none)
	if !ok {
		return Result[R]{}, ErrNoTarget
	}
	r := &roundState[T, R]{c: *c, ctx: ctx, primary: primary}
	pctx, pcancel := context.WithCancelCause(ctx)
	r.pcancel = pcancel
	if delay, ok := c.Tracker.Delay(); ok {
		r.timer = time.AfterFunc(delay, r.fire)
	} else {
		r.tried = true // unarmed: the round has no second copy
	}
	val, err := c.send(pctx, primary)
	pcancel(nil) // the launch is over; a cause already set stays
	if r.timer != nil {
		// Whatever happens next, the wait is over.
		r.timer.Stop()
	}

	r.mu.Lock()
	if r.decided {
		// The second copy answered first: a success of this launch's is
		// dropped.
		r.mu.Unlock()
		return Result[R]{Value: (<-r.second).val, Hedged: true}, nil
	}
	if err == nil {
		r.decided = true
		scancel := r.scancel
		r.mu.Unlock()
		if scancel != nil {
			scancel(ErrLost)
		}
		return Result[R]{Value: val}, nil
	}
	if r.first == nil {
		r.first = err
	}
	if out := r.second; out != nil {
		// The timer has the second copy out: its outcome ends the round.
		r.mu.Unlock()
		if o := <-out; o.err == nil {
			return Result[R]{Value: o.val, Hedged: true}, nil
		}
		return Result[R]{}, r.first
	}
	// The primary failed with the timer still armed: the second copy goes
	// out now, on this goroutine, rather than after the wait.
	target, sctx, ok := r.pickSecond()
	first := r.first
	r.mu.Unlock()
	if !ok {
		return Result[R]{}, first
	}
	val, err = c.send(sctx, target)
	r.scancel(nil)
	if err != nil {
		return Result[R]{}, first
	}
	return Result[R]{Value: val, Hedged: true}, nil
}

// roundState is what a round's two launches share. The primary runs on
// the caller's goroutine; the second copy runs on the goroutine the hedge
// timer starts, or on the caller's once the primary has failed. mu orders
// them: the round is decided, and the second copy picked and announced
// (Pick, Hedged), under it — so Pick is never called concurrently.
type roundState[T comparable, R any] struct {
	c       Call[T, R]
	ctx     context.Context // the caller's
	primary T
	pcancel context.CancelCauseFunc
	timer   *time.Timer // nil when Tracker is unarmed

	mu      sync.Mutex
	decided bool                    // a launch has won the round
	tried   bool                    // the second copy has had its one chance
	first   error                   // the round's first launch failure
	scancel context.CancelCauseFunc // the second copy's, once launched
	second  chan outcome[R]         // its outcome, when the timer launched it
}

// outcome is what one launch's Send returned.
type outcome[R any] struct {
	val R
	err error
}

// fire is the hedge timer's callback: it runs the second copy on the
// timer's goroutine, unless the round is decided or the copy has had its
// chance. A success that decides the round cancels the primary with
// ErrLost; one that comes after the primary's is dropped.
func (r *roundState[T, R]) fire() {
	r.mu.Lock()
	target, ctx, ok := r.pickSecond()
	if ok {
		r.second = make(chan outcome[R], 1)
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	val, err := r.c.send(ctx, target)
	r.scancel(nil)
	r.mu.Lock()
	lost := r.decided
	if err == nil {
		r.decided = true
	} else if r.first == nil {
		r.first = err
	}
	r.mu.Unlock()
	if lost {
		// The primary answered first; the caller is gone.
		return
	}
	if err == nil {
		r.pcancel(ErrLost)
	}
	r.second <- outcome[R]{val, err}
}

// pickSecond gives the round its one chance at a second copy, under r.mu:
// none once the round is decided or the caller's context has ended. It
// returns the target and the launch's context.
func (r *roundState[T, R]) pickSecond() (target T, ctx context.Context, ok bool) {
	if r.decided || r.tried || r.ctx.Err() != nil {
		return target, nil, false
	}
	r.tried = true
	if target, ok = r.c.Pick(r.primary); !ok || target == r.primary {
		return target, nil, false
	}
	r.c.Hedged(r.primary, target)
	ctx, r.scancel = context.WithCancelCause(r.ctx)
	return target, ctx, true
}

// send runs one launch, recording its latency when it succeeds.
func (c *Call[T, R]) send(ctx context.Context, target T) (R, error) {
	start := time.Now()
	val, err := c.Send(ctx, target)
	if err == nil {
		c.Tracker.Record(time.Since(start))
	}
	return val, err
}
