package hedge

import (
	"context"
	"errors"
	"fmt"
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
	// sees fit. A launch cancelled because the round's other launch
	// answered first has ErrLost as its context.Cause.
	Send func(ctx context.Context, target T) (R, error)
	// Discard, if set, is handed a success that arrived after the call
	// was decided, to release what it holds.
	Discard func(R)
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
	cancel context.CancelCauseFunc
}

// Release ends the winning launch's context, which Do leaves alive so a
// Value that still reads from the target (a streamed body) can. Call it
// once done with Value.
func (r Result[R]) Release() { r.cancel(nil) }

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
// picked target and, when Tracker is armed, to a second, different one
// once the first has been out for Tracker.Delay() — or at once if the
// first has already failed. The first success wins: its latency is
// recorded, the other launch is cancelled before Do returns and drained
// in the background, and the winner's context lives until Release. A
// round with no target to pick ends the call without spending the
// rounds left; the caller's context ending ends it with that error.
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

// round is one dispatch round; its error is the first launch failure,
// the context's, or ErrNoTarget.
func (c *Call[T, R]) round(ctx context.Context) (Result[R], error) {
	var none T
	primary, ok := c.Pick(none)
	if !ok {
		return Result[R]{}, ErrNoTarget
	}
	type outcome struct {
		val R
		err error
		idx int // 0 the primary, 1 the second copy
	}
	// A slot per launch: none blocks on a round that has returned.
	results := make(chan outcome, 2)
	var cancels [2]context.CancelCauseFunc // of the launches still out
	out := 0
	launch := func(idx int, target T) {
		lctx, cancel := context.WithCancelCause(ctx)
		cancels[idx] = cancel
		out++
		go func() {
			start := time.Now()
			val, err := c.Send(lctx, target)
			if err == nil {
				c.Tracker.Record(time.Since(start))
			}
			results <- outcome{val, err, idx}
		}()
	}
	// On the way out, whatever is still out is cancelled — with ErrLost
	// as the cause when the round was won — and drained in the background.
	var cause error
	defer func() {
		if out == 0 {
			return
		}
		for _, cancel := range cancels {
			if cancel != nil {
				cancel(cause)
			}
		}
		go func(n int) {
			for ; n > 0; n-- {
				if o := <-results; o.err == nil && c.Discard != nil {
					c.Discard(o.val)
				}
			}
		}(out)
	}()

	launch(0, primary)
	var timer <-chan time.Time
	if delay, ok := c.Tracker.Delay(); ok {
		t := time.NewTimer(delay)
		defer t.Stop()
		timer = t.C
	}
	// hedge launches the round's second copy; it is tried once.
	hedge := func() bool {
		timer = nil
		secondary, ok := c.Pick(primary)
		if !ok || secondary == primary {
			return false
		}
		c.Hedged(primary, secondary)
		launch(1, secondary)
		return true
	}
	var first error
	for {
		select {
		case <-ctx.Done():
			return Result[R]{}, ctx.Err()
		case <-timer:
			hedge()
		case o := <-results:
			out--
			cancel := cancels[o.idx]
			cancels[o.idx] = nil
			if o.err == nil {
				cause = ErrLost
				return Result[R]{Value: o.val, Hedged: o.idx == 1, cancel: cancel}, nil
			}
			cancel(nil)
			if first == nil {
				first = o.err
			}
			// The primary failed with the timer still armed: the second
			// copy goes out now rather than after the wait.
			if out == 0 && (timer == nil || !hedge()) {
				return Result[R]{}, first
			}
		}
	}
}
