package locking

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tla"
)

var update = flag.Bool("update", false, "rewrite golden files")

// formatViolation renders a counterexample in the stable line-per-step
// form the golden files lock down.
func formatViolation(v *tla.Violation[SpecState]) string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %s violated: %v\n", v.Invariant, v.Err)
	for i, s := range v.Trace {
		act := "<init>"
		if i > 0 {
			act = v.TraceActs[i-1]
		}
		fmt.Fprintf(&b, "%2d %-8s %s\n", i, act, s.Key())
	}
	return b.String()
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("counterexample deviates from %s — a refactor reordered or lengthened the reported trace.\n got:\n%s\nwant:\n%s\n(re-run with -update only if the change is intended)",
			golden, got, want)
	}
}

// TestCompatibilityViolationGolden locks down the known shortest
// counterexample of the broken lock manager (OmitCompatibilityCheck): two
// actors acquiring incompatible modes on the Global resource. Future
// checker refactors must keep reporting exactly this trace; the parallel
// path's determinism guarantee makes the output worker-count independent.
func TestCompatibilityViolationGolden(t *testing.T) {
	res, err := tla.Check(Spec(SpecConfig{Actors: 2, OmitCompatibilityCheck: true}), tla.Options{})
	if err == nil || res.Violation == nil {
		t.Fatalf("the broken lock manager must violate Compatibility, got err=%v", err)
	}
	if res.Violation.Invariant != "Compatibility" {
		t.Fatalf("violated %s, want Compatibility", res.Violation.Invariant)
	}
	compareGolden(t, "compatibility_violation.golden", formatViolation(res.Violation))
}

// TestCompatibilityViolationArenaPaths pins the arena's counterexample
// reconstruction to the same golden trace: SpecState implements
// tla.BinaryDecoder, so states are decoded straight from their spilled
// encodings and must render byte-identically to the golden file — lifting
// the retention strategy out of the observable behaviour.
func TestCompatibilityViolationArenaPaths(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts tla.Options
	}{
		{"decode", tla.Options{StateArena: true, MemoryBudgetBytes: 1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			res, err := tla.Check(Spec(SpecConfig{Actors: 2, OmitCompatibilityCheck: true}), mode.opts)
			if err == nil || res.Violation == nil {
				t.Fatalf("the broken lock manager must violate Compatibility, got err=%v", err)
			}
			compareGolden(t, "compatibility_violation.golden", formatViolation(res.Violation))
		})
	}
}
