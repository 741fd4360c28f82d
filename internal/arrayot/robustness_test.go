package arrayot

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ot"
	"repro/internal/tla"
)

// testConfig is the small array_ot model the robustness tests explore.
func testConfig() Config {
	return Config{Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 1, Transformer: ot.NewTransformer(nil, false)}
}

// TestCancelInterrupts cancels mid-exploration of the array_ot spec: the
// run must wind down cooperatively with a partial result.
func TestCancelInterrupts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := Spec(DefaultConfig()) // 5 clients: large enough to interrupt reliably
	var calls atomic.Int64
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s State) []State {
			if calls.Add(1) >= 300 {
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
			return next(s)
		}
	}
	res, err := tla.Check(spec, tla.Options{Workers: 4, Context: ctx})
	cancel()
	if !errors.Is(err, tla.ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	if !res.Interrupted || res.Distinct == 0 {
		t.Fatalf("partial result = %+v, want Interrupted with states counted", res)
	}
}

// TestSpecPanicIsolatedOnRealSpec injects a panic into an array_ot action —
// the repository's heaviest states and encodings — and requires the
// engine to recover it as a structured tla.ErrSpecPanic with a
// non-empty decoded trace, instead of crashing the worker pool.
func TestSpecPanicIsolatedOnRealSpec(t *testing.T) {
	spec := Spec(testConfig())
	var calls atomic.Int64
	i := len(spec.Actions) - 1
	next := spec.Actions[i].Next
	spec.Actions[i].Next = func(s State) []State {
		if calls.Add(1) == 20 {
			panic("injected spec bug")
		}
		return next(s)
	}
	res, err := tla.Check(spec, tla.Options{Workers: 4})
	if !errors.Is(err, tla.ErrSpecPanic) {
		t.Fatalf("err = %v, want a recovered spec panic", err)
	}
	var sp *tla.SpecPanic[State]
	if !errors.As(err, &sp) {
		t.Fatalf("err type = %T, want *tla.SpecPanic", err)
	}
	if len(sp.Trace) == 0 {
		t.Fatalf("recovered panic carries no trace")
	}
	if sp.Stack == "" {
		t.Fatalf("recovered panic carries no stack")
	}
	if res == nil || res.Violation != nil {
		t.Fatalf("partial result = %+v, want one without a violation", res)
	}
}
