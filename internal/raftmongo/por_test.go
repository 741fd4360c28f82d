package raftmongo

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/tla"
)

// porOracleOpts is the unpruned sequential oracle every POR run is
// compared against.
var porOracleOpts = tla.Options{Workers: 1}

// assertTraceIsBehaviour replays a counterexample against the spec: the
// first state must be initial, every step must be producible by its named
// action, and the final state must violate the named invariant. POR
// counterexamples are real behaviours of the unpruned spec — just not
// necessarily shortest — so this must hold for every pruned violation.
func assertTraceIsBehaviour(t *testing.T, desc string, spec *tla.Spec[State], v *tla.Violation[State]) {
	t.Helper()
	if len(v.Trace) == 0 {
		t.Fatalf("%s: violation carries no trace", desc)
	}
	initOK := false
	for _, s := range spec.Init() {
		if s.Key() == v.Trace[0].Key() {
			initOK = true
			break
		}
	}
	if !initOK {
		t.Fatalf("%s: trace does not start in an initial state: %s", desc, v.Trace[0].Key())
	}
	for i, act := range v.TraceActs {
		var found bool
		for _, a := range spec.Actions {
			if a.Name != act {
				continue
			}
			for _, succ := range a.Next(v.Trace[i]) {
				if succ.Key() == v.Trace[i+1].Key() {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("%s: step %d (%s) is not a transition of the spec", desc, i, act)
		}
	}
	last := v.Trace[len(v.Trace)-1]
	for _, inv := range spec.Invariants {
		if inv.Name == v.Invariant {
			if inv.Check(last) == nil {
				t.Fatalf("%s: final trace state does not violate %s", desc, v.Invariant)
			}
			return
		}
	}
	t.Fatalf("%s: violated invariant %s not found in spec", desc, v.Invariant)
}

// TestPORMatchesOracle is the spec-level soundness lock for partial-order
// reduction on the paper's replica-set spec: across both variants,
// symmetry on/off, a tripwire invariant on/off, both schedulers and
// resident/spilled visited sets, a pruned run must reproduce the unpruned
// sequential oracle's verdict — same violation-ness, same violated
// invariant, a real counterexample trace — and, on clean runs, the same
// terminal count with no more distinct states than the oracle.
// (Transitions, Depth and the recorded graph describe the reduced space
// and are deliberately not compared.) Runs race-clean in CI's POR smoke.
func TestPORMatchesOracle(t *testing.T) {
	cfg := Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	for name, mk := range map[string]func(Config) *tla.Spec[State]{"V1": SpecV1, "V2": SpecV2} {
		for _, symmetric := range []bool{false, true} {
			for _, tripwire := range []bool{false, true} {
				c := cfg
				c.Symmetric = symmetric
				build := func() *tla.Spec[State] {
					spec := mk(c)
					if tripwire {
						spec.Invariants = append(spec.Invariants, tla.Invariant[State]{
							Name: "OplogNeverFull",
							Check: func(s State) error {
								for n, log := range s.Oplogs {
									if len(log) >= c.MaxLogLen {
										return fmt.Errorf("node %d oplog reached %d", n, len(log))
									}
								}
								return nil
							},
						})
					}
					return spec
				}
				want, wantErr := tla.Check(build(), porOracleOpts)
				// Work-stealing has no BFS levels, so it takes no memory
				// budget: three cells, not the full 2x2 grid.
				for _, cell := range []struct {
					schedule tla.Schedule
					budget   int64
				}{{tla.ScheduleLevelSync, 0}, {tla.ScheduleLevelSync, 1}, {tla.ScheduleWorkSteal, 0}} {
					schedule, budget := cell.schedule, cell.budget
					desc := fmt.Sprintf("%s/symmetric=%v/tripwire=%v/%s/budget=%d", name, symmetric, tripwire, schedule, budget)
					got, gotErr := tla.Check(build(), tla.Options{
						Workers:           4,
						Schedule:          schedule,
						MemoryBudgetBytes: budget,
						PartialOrder:      true,
					})
					if errors.Is(wantErr, tla.ErrInvariantViolated) != errors.Is(gotErr, tla.ErrInvariantViolated) {
						t.Fatalf("%s: verdicts differ: oracle err=%v por err=%v", desc, wantErr, gotErr)
					}
					if wantErr != nil {
						if want.Violation.Invariant != got.Violation.Invariant {
							t.Fatalf("%s: violated invariants differ: %s vs %s", desc, want.Violation.Invariant, got.Violation.Invariant)
						}
						assertTraceIsBehaviour(t, desc, build(), got.Violation)
						continue
					}
					if gotErr != nil {
						t.Fatalf("%s: por err=%v on a clean spec", desc, gotErr)
					}
					if got.Distinct > want.Distinct {
						t.Fatalf("%s: POR explored more states than the oracle: %d > %d", desc, got.Distinct, want.Distinct)
					}
					if got.Terminal != want.Terminal {
						t.Fatalf("%s: terminal counts differ (deadlock preservation): oracle=%d por=%d", desc, want.Terminal, got.Terminal)
					}
				}
			}
		}
	}
}

// TestPORReduction pins the acceptance bar: POR on the 3-node replica set
// must explore at least 3x fewer distinct states than the unpruned run,
// and it must compose with symmetry reduction for a larger combined cut.
// The 3x bar is carried by V1 — the paper's original RaftMongo spec, whose
// commit-point and election moves cluster cleanly per node. V2's extra
// term-gossip dimension makes more of its interleavings genuinely
// dependent (every term learn reads another node's term), so its cut is
// structurally shallower; it is pinned at a floor rather than the bar.
func TestPORReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-config state spaces in -short mode")
	}
	cfg := DefaultConfig
	measure := func(name string, mk func(Config) *tla.Spec[State], floor float64) {
		full, err := tla.Check(mk(cfg), tla.Options{})
		if err != nil {
			t.Fatalf("%s unpruned: %v", name, err)
		}
		por, err := tla.Check(mk(cfg), tla.Options{PartialOrder: true})
		if err != nil {
			t.Fatalf("%s por: %v", name, err)
		}
		ratio := float64(full.Distinct) / float64(por.Distinct)
		t.Logf("%s %d nodes: unpruned=%d por=%d (%.2fx, %d ample states, %d deferred transitions)",
			name, cfg.Nodes, full.Distinct, por.Distinct, ratio, por.AmpleStates, por.DeferredTransitions)
		if ratio < floor {
			t.Fatalf("%s POR reduction %.2fx below the %.1fx bar (unpruned=%d por=%d)", name, ratio, floor, full.Distinct, por.Distinct)
		}
	}
	measure("V1", SpecV1, 3)
	measure("V2", SpecV2, 2.5)

	sym := cfg
	sym.Symmetric = true
	symOnly, err := tla.Check(SpecV2(sym), tla.Options{})
	if err != nil {
		t.Fatalf("symmetry: %v", err)
	}
	both, err := tla.Check(SpecV2(sym), tla.Options{PartialOrder: true})
	if err != nil {
		t.Fatalf("symmetry+por: %v", err)
	}
	t.Logf("composed: symmetry=%d symmetry+por=%d (%.2fx on top of symmetry)",
		symOnly.Distinct, both.Distinct, float64(symOnly.Distinct)/float64(both.Distinct))
	if both.Distinct >= symOnly.Distinct {
		t.Fatalf("POR did not compose with symmetry: %d >= %d", both.Distinct, symOnly.Distinct)
	}
}
