package mbtcg

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/arrayot"
	"repro/internal/ot"
	"repro/internal/tla"
)

// TestGenerateViolationErrorIdentity: when the model check behind test
// generation finds an invariant violation (here the legacy ArraySwap
// non-termination of §5.1.3), the error GenerateResult returns must stay
// identifiable through its wrap — errors.Is sees tla.ErrInvariantViolated
// and errors.As recovers the Violation with its counterexample — so a
// caller can distinguish "the spec is broken" from I/O or parse failures.
// A violating run keeps its arena-backed graph for the caller, so the
// spilled case also checks that GenerateResult released the spill file.
func TestGenerateViolationErrorIdentity(t *testing.T) {
	cfg := arrayot.Config{
		Initial:      []int{1, 2, 3},
		Clients:      2,
		OpsPerClient: 1,
		IncludeSwap:  true,
		Transformer:  ot.NewTransformer(nil, true),
	}
	for _, tc := range []struct {
		name string
		opts tla.Options
	}{
		{"resident", tla.Options{Workers: 1}},
		{"arena-spill", tla.Options{Workers: 1, MemoryBudgetBytes: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dot := filepath.Join(t.TempDir(), "g.dot")
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			_, _, err := GenerateResult(cfg, dot, tc.opts)
			if err == nil {
				t.Fatal("expected the legacy-swap configuration to violate NoMergeFailure")
			}
			if !errors.Is(err, tla.ErrInvariantViolated) {
				t.Fatalf("errors.Is(err, ErrInvariantViolated) = false; err = %v", err)
			}
			if errors.Is(err, tla.ErrStateLimit) {
				t.Fatalf("violation error must not match ErrStateLimit: %v", err)
			}
			var v *tla.Violation[arrayot.State]
			if !errors.As(err, &v) {
				t.Fatalf("errors.As failed to recover the violation from %v", err)
			}
			if v.Invariant != "NoMergeFailure" || len(v.Trace) == 0 {
				t.Fatalf("recovered violation = %+v", v)
			}
			if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
				t.Fatalf("the run left %d files in TMPDIR (err=%v); first: %v", len(left), err, left)
			}
		})
	}
}

// TestGenerateReadFaultIsAnError: once the check is done, test generation
// reads the graph back from its spill file. A persistent read fault there
// is an error from GenerateResult, not a panic. Options.Progress's final
// delivery comes after the run's last read, so the fault is armed there.
func TestGenerateReadFaultIsAnError(t *testing.T) {
	cfg := arrayot.Config{Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 1, Transformer: ot.NewTransformer(nil, false)}
	fault := errors.New("injected read fault")
	ffs := tla.NewFaultFS(nil)
	t.Setenv("TMPDIR", t.TempDir())
	opts := tla.Options{Workers: 1, MemoryBudgetBytes: 1, FS: ffs, ProgressEvery: time.Hour, Progress: func(tla.Progress) {
		ffs.Inject(tla.Fault{Op: tla.FaultRead, Err: fault})
	}}
	cases, _, err := GenerateResult(cfg, filepath.Join(t.TempDir(), "g.dot"), opts)
	if !errors.Is(err, fault) || cases != nil {
		t.Fatalf("GenerateResult = %d cases, %v; want the injected read fault", len(cases), err)
	}
	if len(ffs.Fired()) == 0 {
		t.Fatal("no read reached the fault: the graph was not read from its spill file")
	}
}
