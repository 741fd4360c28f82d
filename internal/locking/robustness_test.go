package locking

import (
	"errors"
	"fmt"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/tla"
)

// TestDegradedSpillMatchesInMemory injects persistent and transient I/O
// faults into the spilling stores while checking the lock-manager spec: an
// ENOSPC-degraded run and a transiently-flaky-but-retried run must both be
// observationally identical to the clean run — same counters on the correct
// lock manager, and for the deliberately broken one
// (OmitCompatibilityCheck) the same Compatibility violation with a
// byte-identical shortest counterexample. Disk trouble may cost memory,
// never the verdict.
func TestDegradedSpillMatchesInMemory(t *testing.T) {
	traceKeys := func(v *tla.Violation[SpecState]) []string {
		if v == nil {
			return nil
		}
		keys := make([]string, len(v.Trace))
		for i, s := range v.Trace {
			keys[i] = s.Key()
		}
		return keys
	}
	faults := map[string]struct {
		fault    tla.Fault
		degraded bool
	}{
		"enospc-degrades": {tla.Fault{Op: tla.FaultWrite, Err: syscall.ENOSPC}, true},
		"transient-retries": {tla.Fault{
			Op: tla.FaultWrite, Path: "run-",
			Err: fmt.Errorf("flake: %w", tla.ErrTransientIO), Times: 2,
		}, false},
	}
	for _, omit := range []bool{false, true} {
		cfg := SpecConfig{Actors: 2, OmitCompatibilityCheck: omit}
		want, wantErr := tla.Check(Spec(cfg), tla.Options{Workers: 2, MemoryBudgetBytes: 1})
		for name, tc := range faults {
			desc := fmt.Sprintf("omit=%v/%s", omit, name)
			ffs := tla.NewFaultFS(nil)
			ffs.Inject(tc.fault)
			got, gotErr := tla.Check(Spec(cfg), tla.Options{Workers: 2, MemoryBudgetBytes: 1, FS: ffs})
			if len(ffs.Fired()) == 0 {
				t.Fatalf("%s: fault never fired", desc)
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: verdicts differ: clean err=%v faulted err=%v", desc, wantErr, gotErr)
			}
			if got.DegradedMemory != tc.degraded {
				t.Fatalf("%s: DegradedMemory = %v, want %v", desc, got.DegradedMemory, tc.degraded)
			}
			if want.Distinct != got.Distinct || want.Transitions != got.Transitions ||
				want.Depth != got.Depth || want.Terminal != got.Terminal {
				t.Fatalf("%s: counters differ:\n clean   %+v\n faulted %+v", desc, want, got)
			}
			if wantErr == nil {
				continue
			}
			if !errors.Is(gotErr, tla.ErrInvariantViolated) {
				t.Fatalf("%s: faulted run lost the violation: %v", desc, gotErr)
			}
			if !reflect.DeepEqual(traceKeys(want.Violation), traceKeys(got.Violation)) {
				t.Fatalf("%s: counterexamples differ:\n clean   %v\n faulted %v",
					desc, traceKeys(want.Violation), traceKeys(got.Violation))
			}
		}
	}
}
