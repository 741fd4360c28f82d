package tla

import (
	"context"
	"errors"
	"fmt"
)

// Cancellation: a multi-hour exploration must be stoppable — by a ^C, a CI
// job timeout, or a context deadline — and return what it found (the
// partial Result, plus a checkpoint when Options.CheckpointDir is set).
// The checkers ask the run's context itself where they stop — the engine
// at each level boundary and after each expansion, the trace checker
// between observations — so a cancel seen there stops the run there.
// Mid-expansion the engine polls its stop flag, which context.AfterFunc
// sets once the context fires; no goroutine runs before that.

// ErrInterrupted is the named error an interrupted run wraps:
// errors.Is(err, ErrInterrupted) reports that Options.Context was canceled
// or its deadline passed, and the Result still carries the partial
// exploration (Result.Interrupted is set).
var ErrInterrupted = errors.New("tla: run interrupted")

// canceled reports whether ctx (Options.Context or TraceOptions.Context)
// has been canceled or has passed its deadline. A nil ctx never is.
func canceled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// interruptError is the error a run interrupted by ctx returns:
// ErrInterrupted, annotated with the context's cause when it adds
// information (a deadline, a custom cancel cause).
func interruptError(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	return ErrInterrupted
}
