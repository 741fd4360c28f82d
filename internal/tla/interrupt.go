package tla

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cancellation: a multi-hour exploration must be stoppable — by a ^C, a CI
// job timeout, or a context deadline — and an interrupted run
// must return what it found (Result.Interrupted with the states, depth and
// counters so far, plus a checkpoint when Options.CheckpointDir is set)
// instead of nothing. The engine polls a single atomic stop flag at
// cooperative stop points: between levels, and between frontier states
// during expansion.

// ErrInterrupted is the named error an interrupted run wraps:
// errors.Is(err, ErrInterrupted) reports that Options.Context was canceled
// or its deadline passed, and the Result still carries the partial
// exploration (Result.Interrupted is set).
var ErrInterrupted = errors.New("tla: run interrupted")

// stopper adapts a run's Context to the engines' cooperative stop flags. A
// watcher goroutine arms the flag (and an optional engine-side notify hook)
// the moment the context fires; close releases the watcher. A nil *stopper
// (no context) is valid and never stops, so the hot paths pay one
// nil-check when cancellation is not configured.
type stopper struct {
	fired atomic.Bool
	mu    sync.Mutex
	cause error
	done  chan struct{}
}

// newStopper builds the stopper for ctx (Options.Context or
// TraceOptions.Context), arming notify (and its own fired flag) when ctx
// fires. Returns nil for a nil ctx.
func newStopper(ctx context.Context, notify func()) *stopper {
	if ctx == nil {
		return nil
	}
	st := &stopper{done: make(chan struct{})}
	fire := func() {
		st.mu.Lock()
		st.cause = context.Cause(ctx)
		st.mu.Unlock()
		st.fired.Store(true)
		if notify != nil {
			notify()
		}
	}
	// An already-canceled context fires synchronously: the run observes the
	// stop at its very first poll instead of racing the watcher goroutine.
	select {
	case <-ctx.Done():
		fire()
		return st
	default:
	}
	go func() {
		select {
		case <-ctx.Done():
			fire()
		case <-st.done:
		}
	}()
	return st
}

// stopped reports whether the run should wind down.
func (st *stopper) stopped() bool { return st != nil && st.fired.Load() }

// close releases the watcher goroutine.
func (st *stopper) close() {
	if st != nil {
		close(st.done)
	}
}

// err is the error an interrupted run returns: ErrInterrupted, annotated
// with the context's cause when it adds information (a deadline, a custom
// cancel cause).
func (st *stopper) err() error {
	st.mu.Lock()
	cause := st.cause
	st.mu.Unlock()
	if cause != nil && !errors.Is(cause, context.Canceled) {
		return fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	return ErrInterrupted
}
