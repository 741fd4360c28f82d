package tla

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Fault-injection tests for the durable-I/O contract (fs.go): transient
// errors are retried, persistent failures of optional spill writes degrade
// the run to resident retention under Result.DegradedMemory, and persistent
// failures of required reads fail the run explicitly. Every degraded or
// retried run must produce counters identical to a fault-free oracle — the
// verdict is never wrong, only the memory budget stops being honoured.

// transientErr builds an injectable error the retry classifier treats as
// transient.
func transientErr() error { return fmt.Errorf("injected flake: %w", ErrTransientIO) }

// TestInjectedFaults drives the spilling visited store and the state arena
// through the fault taxonomy, comparing every surviving run against a
// fault-free oracle with the same options.
func TestInjectedFaults(t *testing.T) {
	const max = 24 // 325 states over 48 BFS levels: spills every level at budget 1
	base := Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true}
	oracle, err := Check(counterSpec(max), base)
	if err != nil {
		t.Fatalf("oracle run failed: %v", err)
	}

	tests := []struct {
		name     string
		faults   []Fault
		degraded bool  // run must report DegradedMemory
		wantErr  error // non-nil: run must fail wrapping this error
	}{
		{
			name:     "enospc-at-arena-segment-seal",
			faults:   []Fault{{Op: FaultWrite, Path: "tla-arena-", Err: syscall.ENOSPC}},
			degraded: true,
		},
		{
			name:     "enospc-torn-arena-write",
			faults:   []Fault{{Op: FaultWrite, Path: "tla-arena-", Err: syscall.ENOSPC, Short: true}},
			degraded: true,
		},
		{
			name:     "enospc-at-arena-create",
			faults:   []Fault{{Op: FaultCreate, Path: "tla-arena-", Err: syscall.ENOSPC}},
			degraded: true,
		},
		{
			name:     "enospc-at-spill-run-seal",
			faults:   []Fault{{Op: FaultWrite, Path: "run-", Err: syscall.ENOSPC}},
			degraded: true,
		},
		{
			name:     "enospc-at-spill-mkdir",
			faults:   []Fault{{Op: FaultMkdir, Path: "tla-spill-", Err: syscall.ENOSPC}},
			degraded: true,
		},
		{
			// Two flaky writes while sealing a run: retried with backoff,
			// the third attempt lands, nothing degrades.
			name:   "transient-write-at-run-seal",
			faults: []Fault{{Op: FaultWrite, Path: "run-", Err: transientErr(), Times: 2}},
		},
		{
			// Two flaky reads during the per-level merge-join: the join is
			// idempotent, so the retry re-streams the run and the answer is
			// exact.
			name:   "transient-read-during-merge-join",
			faults: []Fault{{Op: FaultRead, Path: "run-", Err: transientErr(), Times: 2}},
		},
		{
			// A sealed run the verdict depends on becomes unreadable: the
			// run fails explicitly — silently skipping the merge-join could
			// prune the state space and mask a violation.
			name:    "persistent-read-during-merge-join",
			faults:  []Fault{{Op: FaultRead, Path: "run-", Err: syscall.EIO}},
			wantErr: syscall.EIO,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ffs := NewFaultFS(nil)
			for _, f := range tc.faults {
				ffs.Inject(f)
			}
			opts := base
			opts.FS = ffs
			res, err := Check(counterSpec(max), opts)
			if len(ffs.Fired()) == 0 {
				t.Fatalf("injected fault never fired — the test exercises nothing")
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want errors.Is(%v)", err, tc.wantErr)
				}
				if errors.Is(err, ErrInvariantViolated) {
					t.Fatalf("an I/O failure surfaced as a violation: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run failed: %v (faults fired: %v)", err, ffs.Fired())
			}
			if res.DegradedMemory != tc.degraded {
				t.Fatalf("DegradedMemory = %v, want %v", res.DegradedMemory, tc.degraded)
			}
			if res.Distinct != oracle.Distinct || res.Transitions != oracle.Transitions ||
				res.Depth != oracle.Depth || res.Terminal != oracle.Terminal {
				t.Fatalf("counters diverged from the fault-free oracle:\n got  %d/%d/%d/%d\n want %d/%d/%d/%d",
					res.Distinct, res.Transitions, res.Depth, res.Terminal,
					oracle.Distinct, oracle.Transitions, oracle.Depth, oracle.Terminal)
			}
		})
	}
}

// TestDegradedRunStillFindsViolation: the degradation path must not change
// the verdict — a violation beyond the failure point is still found, with
// the same shortest counterexample.
func TestDegradedRunStillFindsViolation(t *testing.T) {
	mk := func() *Spec[counterState] {
		spec := counterSpec(12)
		spec.Invariants = append(spec.Invariants, Invariant[counterState]{
			Name: "NoDeep",
			Check: func(s counterState) error {
				if s.A == 9 && s.B == 9 {
					return fmt.Errorf("reached %v", s)
				}
				return nil
			},
		})
		return spec
	}
	_, oerr := Check(mk(), Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true})
	if !errors.Is(oerr, ErrInvariantViolated) {
		t.Fatalf("oracle: err = %v, want a violation", oerr)
	}
	ffs := NewFaultFS(nil)
	ffs.Inject(Fault{Op: FaultWrite, Err: syscall.ENOSPC}) // every spill write fails
	res, err := Check(mk(), Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: ffs})
	if !errors.Is(err, ErrInvariantViolated) {
		t.Fatalf("degraded: err = %v, want a violation", err)
	}
	if !res.DegradedMemory {
		t.Fatal("degraded run does not report DegradedMemory")
	}
	var got, want *Violation[counterState]
	errors.As(err, &got)
	errors.As(oerr, &want)
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("degraded counterexample has %d states, oracle %d", len(got.Trace), len(want.Trace))
	}
	if got.Trace[len(got.Trace)-1] != want.Trace[len(want.Trace)-1] {
		t.Fatalf("degraded violation at %v, oracle at %v", got.Trace[len(got.Trace)-1], want.Trace[len(want.Trace)-1])
	}
	// Disarmed faults stop firing: the same FS serves a clean run again.
	ffs.Clear()
	res, err = Check(mk(), Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: ffs})
	if !errors.Is(err, ErrInvariantViolated) || res.DegradedMemory {
		t.Fatalf("after Clear: err = %v, DegradedMemory = %v, want a clean violating run", err, res.DegradedMemory)
	}
}

// TestDelayFaults: the latency fault kind. A Delay fault slows matching
// operations through the FaultFS Sleep hook instead of failing them, so
// slow-I/O behaviour is testable without spending wall-clock time: the
// fake sleeper here only accumulates the durations it was asked for.
func TestDelayFaults(t *testing.T) {
	const max = 24
	base := Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true}
	oracle, err := Check(counterSpec(max), base)
	if err != nil {
		t.Fatalf("oracle run failed: %v", err)
	}

	t.Run("delay-only-slows-never-fails", func(t *testing.T) {
		var mu sync.Mutex
		var slept time.Duration
		ffs := NewFaultFS(nil)
		ffs.Sleep = func(d time.Duration) {
			mu.Lock()
			slept += d
			mu.Unlock()
		}
		const perOp = 250 * time.Millisecond
		ffs.Inject(Fault{Op: FaultWrite, Path: "run-", Delay: perOp})
		opts := base
		opts.FS = ffs
		res, err := Check(counterSpec(max), opts)
		if err != nil {
			t.Fatalf("delayed run failed: %v", err)
		}
		fired := len(ffs.Fired())
		if fired == 0 {
			t.Fatal("delay fault never fired — the test exercises nothing")
		}
		if want := time.Duration(fired) * perOp; slept != want {
			t.Fatalf("fake sleeper saw %v across %d fired faults, want %v", slept, fired, want)
		}
		if res.DegradedMemory {
			t.Fatal("a pure latency fault degraded the run")
		}
		if res.Distinct != oracle.Distinct || res.Transitions != oracle.Transitions {
			t.Fatalf("counters diverged under latency: got %d/%d, want %d/%d",
				res.Distinct, res.Transitions, oracle.Distinct, oracle.Transitions)
		}
	})

	t.Run("delay-composes-with-error", func(t *testing.T) {
		// A slow transient flake: the engine must both serve the sleep and
		// then retry, converging to the oracle.
		var mu sync.Mutex
		var slept time.Duration
		ffs := NewFaultFS(nil)
		ffs.Sleep = func(d time.Duration) {
			mu.Lock()
			slept += d
			mu.Unlock()
		}
		ffs.Inject(Fault{Op: FaultWrite, Path: "run-", Err: transientErr(), Delay: time.Second, Times: 2})
		opts := base
		opts.FS = ffs
		res, err := Check(counterSpec(max), opts)
		if err != nil {
			t.Fatalf("slow-flake run failed: %v", err)
		}
		if slept != 2*time.Second {
			t.Fatalf("fake sleeper saw %v, want 2s (two fired slow flakes)", slept)
		}
		if res.DegradedMemory || res.Distinct != oracle.Distinct {
			t.Fatalf("slow flake changed the outcome: degraded=%v distinct=%d (oracle %d)",
				res.DegradedMemory, res.Distinct, oracle.Distinct)
		}
	})
}

// recordingFS records every temp file and directory the engine creates, so
// the leak test can assert they are all gone after the run — however the
// run ended.
type recordingFS struct {
	FS
	mu    sync.Mutex
	paths []string
}

func (r *recordingFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err == nil {
		r.mu.Lock()
		r.paths = append(r.paths, f.Name())
		r.mu.Unlock()
	}
	return f, err
}

func (r *recordingFS) MkdirTemp(dir, pattern string) (string, error) {
	d, err := r.FS.MkdirTemp(dir, pattern)
	if err == nil {
		r.mu.Lock()
		r.paths = append(r.paths, d)
		r.mu.Unlock()
	}
	return d, err
}

func (r *recordingFS) created() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.paths...)
}

// TestNoTempFileLeaks runs the disk-backed stores through every exit path —
// clean completion, degradation, interruption, a spec panic — and asserts
// the engine removed every temp file and directory it created.
func TestNoTempFileLeaks(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(fsys FS) error
	}{
		{"clean", func(fsys FS) error {
			_, err := Check(counterSpec(20), Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: fsys})
			return err
		}},
		{"degraded", func(fsys FS) error {
			ffs := NewFaultFS(fsys)
			ffs.Inject(Fault{Op: FaultWrite, Err: syscall.ENOSPC, After: 2})
			_, err := Check(counterSpec(20), Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: ffs})
			return err
		}},
		{"interrupted", func(fsys FS) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			spec := cancelingSpec(unboundedSpec(), cancel, 800)
			_, err := Check(spec, Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: fsys, Context: ctx})
			if !errors.Is(err, ErrInterrupted) {
				return fmt.Errorf("expected an interrupted run, got %v", err)
			}
			return nil
		}},
		{"spec-panic", func(fsys FS) error {
			_, err := Check(explodingSpec(12, counterState{A: 6, B: 3}),
				Options{Workers: 4, MemoryBudgetBytes: 1, StateArena: true, FS: fsys})
			if !errors.Is(err, ErrSpecPanic) {
				return fmt.Errorf("expected a recovered spec panic, got %v", err)
			}
			return nil
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rec := &recordingFS{FS: OSFS}
			if err := sc.run(rec); err != nil {
				t.Fatal(err)
			}
			created := rec.created()
			if len(created) == 0 {
				t.Fatal("run created no temp files — the scenario exercises nothing")
			}
			for _, p := range created {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("leaked %s (stat err: %v)", p, err)
				}
			}
		})
	}
}
