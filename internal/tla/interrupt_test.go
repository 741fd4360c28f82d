package tla

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// unboundedSpec is counterSpec with an effectively infinite bound: a run
// over it terminates only by cancellation, so interruption tests never race
// a naturally completing exploration.
func unboundedSpec() *Spec[counterState] { return counterSpec(1 << 30) }

// cancelingSpec wraps every action of spec to cancel ctx after the given
// number of Next calls — a deterministic mid-run interrupt, no timers.
func cancelingSpec(spec *Spec[counterState], cancel context.CancelFunc, after int64) *Spec[counterState] {
	var calls atomic.Int64
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s counterState) []counterState {
			if calls.Add(1) >= after {
				cancel()
			}
			return next(s)
		}
	}
	return spec
}

// assertInterrupted asserts the partial-result contract of an interrupted
// run: Result.Interrupted, an error wrapping ErrInterrupted, no violation.
func assertInterrupted(t *testing.T, label string, res *Result[counterState], err error) {
	t.Helper()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("%s: err = %v, want errors.Is(ErrInterrupted)", label, err)
	}
	if res == nil {
		t.Fatalf("%s: interrupted run returned no partial result", label)
	}
	if !res.Interrupted {
		t.Fatalf("%s: Result.Interrupted not set", label)
	}
	if res.Violation != nil {
		t.Fatalf("%s: interrupted run reports a violation: %v", label, res.Violation)
	}
}

// TestContextCancelInterrupts cancels mid-run, from inside a spec callback:
// the run must wind down cooperatively and return the partial counters
// instead of nothing.
func TestContextCancelInterrupts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		ctx, cancel := context.WithCancel(context.Background())
		spec := cancelingSpec(unboundedSpec(), cancel, 500)
		res, err := Check(spec, Options{Workers: workers, Context: ctx})
		cancel()
		assertInterrupted(t, label, res, err)
		if res.Distinct == 0 {
			t.Fatalf("%s: interrupted run counted no states before the stop", label)
		}
	}
}

// TestPreCanceledContext: a context canceled before Check even starts stops
// the run at its first level boundary.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Check(unboundedSpec(), Options{Context: ctx})
	assertInterrupted(t, "pre-canceled", res, err)
}

// TestDeadlineInterrupts bounds an unbounded exploration in wall-clock
// time through a context deadline; the interruption error names the
// deadline cause. A deadline already past stops the run at its first poll.
func TestDeadlineInterrupts(t *testing.T) {
	for _, d := range []time.Duration{30 * time.Millisecond, -time.Hour} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		res, err := Check(unboundedSpec(), Options{Workers: 2, Context: ctx})
		cancel()
		assertInterrupted(t, fmt.Sprintf("deadline %s", d), res, err)
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline %s: err = %v, want it to wrap both ErrInterrupted and DeadlineExceeded", d, err)
		}
	}
}

// TestInterruptUnderSpillAndArena: the cooperative stop must unwind through
// the disk-backed stores too, leaving a valid partial result (the leak
// check for their temp files lives in fault_test.go).
func TestInterruptUnderSpillAndArena(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := cancelingSpec(unboundedSpec(), cancel, 2000)
	res, err := Check(spec, Options{Workers: 4, MemoryBudgetBytes: 1, Context: ctx})
	cancel()
	assertInterrupted(t, "spill+arena", res, err)
	if res.Distinct == 0 {
		t.Fatal("no states before the stop")
	}
}

// cancelObs is a trace observation that cancels its context after a given
// number of Matches calls — the deterministic mid-trace interrupt.
type cancelObs struct {
	want   counterState
	cancel context.CancelFunc
	after  int64
	calls  *atomic.Int64
}

func (o cancelObs) Matches(s counterState) bool {
	if o.calls.Add(1) >= o.after {
		o.cancel()
	}
	return s == o.want
}

func (o cancelObs) String() string { return o.want.Key() }

// TestTraceCheckInterrupts pins the trace checker's half of the contract:
// an interrupted trace check reports Interrupted with FailedStep -1 — the
// trace did not diverge, it was not finished.
func TestTraceCheckInterrupts(t *testing.T) {
	spec := counterSpec(1 << 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	trace := make([]Observation[counterState], 40)
	for i := range trace {
		trace[i] = cancelObs{want: counterState{A: i, B: 0}, cancel: cancel, after: 30, calls: &calls}
	}
	res, err := CheckTraceWith(spec, trace, TraceOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !res.Interrupted || res.OK {
		t.Fatalf("result = %+v, want Interrupted and !OK", res)
	}
	if res.FailedStep != -1 {
		t.Fatalf("FailedStep = %d, want -1 (interrupted, not diverged)", res.FailedStep)
	}
	if res.Steps == 0 {
		t.Fatal("no observations matched before the stop")
	}
}

// TestTraceStopAtStepIsExact: the trace checker asks its context between
// observations, after Progress, so a cancel inside Progress(Step: i) stops
// the check with exactly i observations matched, at any worker count.
func TestTraceStopAtStepIsExact(t *testing.T) {
	spec := counterSpec(1 << 30)
	trace := make([]Observation[counterState], 12)
	for i := range trace {
		trace[i] = full(i, 0)
	}
	for _, workers := range []int{1, 2, 4} {
		for step := 1; step < len(trace); step++ {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := CheckTraceWith(spec, trace, TraceOptions{
				Workers:       workers,
				Context:       ctx,
				ProgressEvery: time.Nanosecond,
				Progress: func(p TraceProgress) {
					if p.Step >= step {
						cancel()
					}
				},
			})
			cancel()
			if !errors.Is(err, ErrInterrupted) || !res.Interrupted || res.FailedStep != -1 || res.Steps != step {
				t.Fatalf("workers=%d, cancel at step %d: err = %v, result %+v; want interrupted, FailedStep -1, Steps %d",
					workers, step, err, res, step)
			}
		}
	}
}

// TestContextStartsNoGoroutine: a live context costs a run no goroutine.
// The engine asks ctx.Err() at its boundaries, and the context.AfterFunc
// that sets its stop flag runs nothing until the context fires. The count
// is read inside Progress, mid-run, against the count just before Check. A
// goroutine an earlier test left winding down can only lower it, so the
// comparison is retried after a pause; a goroutine the run starts fails
// every try.
func TestContextStartsNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var before, during int
	for try := 0; try < 3; try++ {
		before, during = runtime.NumGoroutine(), -1
		opts := Options{Workers: 1, Context: ctx, ProgressEvery: time.Nanosecond, Progress: func(Progress) {
			during = max(during, runtime.NumGoroutine())
		}}
		if _, err := Check(counterSpec(3), opts); err != nil {
			t.Fatal(err)
		}
		if during == before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before Check, %d inside Progress; want no new goroutine", before, during)
}

// TestOptionsValidateRobustness extends the Validate contract to the
// robustness options: inconsistent checkpoint configurations are rejected
// up front with ErrInvalidOptions.
func TestOptionsValidateRobustness(t *testing.T) {
	bad := []Options{
		{CheckpointEvery: -1},
		{CheckpointEvery: 3}, // no CheckpointDir
	}
	for _, opts := range bad {
		if err := opts.Validate(); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := Check(counterSpec(3), opts); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Check with %+v = %v, want ErrInvalidOptions", opts, err)
		}
	}
	good := []Options{
		{Context: context.Background()},
		{CheckpointDir: t.TempDir()}, // arena retention without a budget
		{CheckpointDir: t.TempDir(), CheckpointEvery: 5, MemoryBudgetBytes: 1},
		{CheckpointDir: "ck", CollisionFree: true}, // the keys are rebuilt from the arena
	}
	for _, opts := range good {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}
