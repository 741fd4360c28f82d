package tla

import (
	"context"
	"errors"
	"fmt"
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
				// Give the stop watcher time to arm before the engine's next
				// poll; canceling alone would race it on fast specs.
				time.Sleep(2 * time.Millisecond)
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

// TestContextCancelInterrupts cancels mid-run, from inside a spec callback,
// on both schedulers: the run must wind down cooperatively and return the
// partial counters instead of nothing.
func TestContextCancelInterrupts(t *testing.T) {
	for _, sched := range []Schedule{ScheduleLevelSync, ScheduleWorkSteal} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("sched=%v/workers=%d", sched, workers)
			ctx, cancel := context.WithCancel(context.Background())
			spec := cancelingSpec(unboundedSpec(), cancel, 500)
			res, err := Check(spec, Options{Schedule: sched, Workers: workers, Context: ctx})
			cancel()
			assertInterrupted(t, label, res, err)
			if res.Distinct == 0 {
				t.Fatalf("%s: interrupted run counted no states before the stop", label)
			}
		}
	}
}

// TestPreCanceledContext: a context canceled before Check even starts stops
// the run at its first poll — synchronously, no watcher race.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sched := range []Schedule{ScheduleLevelSync, ScheduleWorkSteal} {
		res, err := Check(unboundedSpec(), Options{Schedule: sched, Context: ctx})
		assertInterrupted(t, fmt.Sprintf("sched=%v", sched), res, err)
	}
}

// TestDeadlineInterrupts bounds an unbounded exploration in wall-clock
// time; the interruption error names the deadline cause.
func TestDeadlineInterrupts(t *testing.T) {
	res, err := Check(unboundedSpec(), Options{Workers: 2, Deadline: time.Now().Add(30 * time.Millisecond)})
	assertInterrupted(t, "deadline", res, err)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline interruption err = %v, want it to wrap both ErrInterrupted and DeadlineExceeded", err)
	}
}

// TestInterruptUnderSpillAndArena: the cooperative stop must unwind through
// the disk-backed stores too, leaving a valid partial result (the leak
// check for their temp files lives in fault_test.go).
func TestInterruptUnderSpillAndArena(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := cancelingSpec(unboundedSpec(), cancel, 2000)
	res, err := Check(spec, Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, Context: ctx})
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
		// Give the stop watcher time to arm before the checker's next
		// between-observations poll; canceling alone would race it.
		time.Sleep(2 * time.Millisecond)
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

// TestOptionsValidateRobustness extends the Validate contract to the
// robustness options: deadlines in the past and inconsistent checkpoint
// configurations are rejected up front with ErrInvalidOptions.
func TestOptionsValidateRobustness(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	bad := []Options{
		{Deadline: past},
		{CheckpointEvery: -1},
		{CheckpointEvery: 3},  // no CheckpointDir
		{CheckpointDir: "ck"}, // no StateArena
		{ResumeFrom: "ck"},    // no StateArena
		{CheckpointDir: "ck", StateArena: true, CollisionFree: true}, // no fingerprints to persist
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
		{Deadline: time.Now().Add(time.Hour)},
		{Context: context.Background()},
		{CheckpointDir: t.TempDir(), StateArena: true},
		{CheckpointDir: t.TempDir(), StateArena: true, CheckpointEvery: 5, MemoryBudgetBytes: 1},
	}
	for _, opts := range good {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
	if err := (TraceOptions{Deadline: past}).Validate(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("TraceOptions.Validate(past deadline) = %v, want ErrInvalidOptions", err)
	}
}

// TestWorkStealFallsBackForCheckpointing: checkpoints are sealed at level
// boundaries, so a checkpointing run must resolve to level-sync.
func TestWorkStealFallsBackForCheckpointing(t *testing.T) {
	o := Options{Schedule: ScheduleWorkSteal, StateArena: true, CheckpointDir: "ck"}
	if got := o.effectiveSchedule(); got != ScheduleLevelSync {
		t.Fatalf("effectiveSchedule = %v, want level-sync fallback for checkpointing", got)
	}
}
