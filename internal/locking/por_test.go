package locking

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/tla"
)

// TestPORMatchesOracle is the locking spec's POR soundness lock, mirroring
// the raftmongo grid: across actor counts, symmetry on/off, a symmetric
// tripwire invariant on/off, and resident/spilled visited sets, a
// release-pruned run must reproduce the unpruned sequential
// oracle's verdict — same violation-ness, same violated invariant — with
// no more distinct states and the same terminal count on clean runs.
func TestPORMatchesOracle(t *testing.T) {
	for _, actors := range []int{2, 3} {
		for _, symmetric := range []bool{false, true} {
			for _, tripwire := range []bool{false, true} {
				build := func() *tla.Spec[SpecState] {
					spec := Spec(SpecConfig{Actors: actors, Symmetric: symmetric})
					if tripwire {
						// Symmetric across actors and visible on a single
						// actor's row — the shape the release-deferral
						// contract (C2) requires.
						spec.Invariants = append(spec.Invariants, tla.Invariant[SpecState]{
							Name: "NoExclusiveOplog",
							Check: func(s SpecState) error {
								for a := range s.Held {
									if s.Held[a][2] == int8(X) {
										return fmt.Errorf("actor %d holds X on Oplog", a)
									}
								}
								return nil
							},
						})
					}
					return spec
				}
				want, wantErr := tla.Check(build(), tla.Options{Workers: 1})
				for _, budget := range []int64{0, 1} {
					desc := fmt.Sprintf("actors=%d/symmetric=%v/tripwire=%v/budget=%d", actors, symmetric, tripwire, budget)
					got, gotErr := tla.Check(build(), tla.Options{
						Workers:           4,
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
						continue
					}
					if gotErr != nil {
						t.Fatalf("%s: por err=%v on a clean spec", desc, gotErr)
					}
					if got.Distinct > want.Distinct {
						t.Fatalf("%s: POR explored more states than the oracle: %d > %d", desc, got.Distinct, want.Distinct)
					}
					if got.Terminal != want.Terminal {
						t.Fatalf("%s: terminal counts differ: oracle=%d por=%d", desc, want.Terminal, got.Terminal)
					}
				}
			}
		}
	}
}

// TestPORGoldenConfigDeclinesPruning pins the config gate: the broken lock
// manager (OmitCompatibilityCheck) must not declare independence, so a
// PartialOrder run on it is refused before exploring anything. This is the
// case where release-pruning would be unsound — the violating state is a
// joint holding reachable only through a deferred acquire — and the
// declaration's job is to refuse, not to try.
func TestPORGoldenConfigDeclinesPruning(t *testing.T) {
	cfg := SpecConfig{Actors: 2, OmitCompatibilityCheck: true}
	if Independence(cfg) != nil {
		t.Fatal("OmitCompatibilityCheck config must not declare independence")
	}
	if _, err := tla.Check(Spec(cfg), tla.Options{PartialOrder: true}); !errors.Is(err, tla.ErrInvalidOptions) {
		t.Fatalf("PartialOrder on the non-declaring config: err = %v, want ErrInvalidOptions", err)
	}
}

// TestPORReduction records the locking spec's cut — which is essentially
// nil, and deliberately so. The only deferrable moves are releases, and a
// release always steps *down* the holdings lattice to a state some acquire
// path already visited at a shallower BFS level; the cycle proviso's
// fresh-successor witness therefore never exists and the engine keeps
// every state fully expanded. That asymmetry (raftmongo's commit-point
// gossip prunes 3x+, locking prunes ~nothing) is a property of BFS ample
// sets worth pinning: POR pays off on forward-fresh independent moves,
// not on confluent down-moves. What this test guarantees is that the
// pruned run never explores MORE than the unpruned one, with or without
// symmetry — the no-win case must stay a no-op, not become a regression.
func TestPORReduction(t *testing.T) {
	cfg := SpecConfig{Actors: 3}
	full, err := tla.Check(Spec(cfg), tla.Options{})
	if err != nil {
		t.Fatalf("unpruned: %v", err)
	}
	por, err := tla.Check(Spec(cfg), tla.Options{PartialOrder: true})
	if err != nil {
		t.Fatalf("por: %v", err)
	}
	t.Logf("locking %d actors: unpruned=%d por=%d (%.2fx, %d ample states)",
		cfg.Actors, full.Distinct, por.Distinct, float64(full.Distinct)/float64(por.Distinct), por.AmpleStates)
	if por.Distinct > full.Distinct {
		t.Fatalf("POR explored more states than the unpruned run: %d > %d", por.Distinct, full.Distinct)
	}

	sym := cfg
	sym.Symmetric = true
	symOnly, err := tla.Check(Spec(sym), tla.Options{})
	if err != nil {
		t.Fatalf("symmetry: %v", err)
	}
	both, err := tla.Check(Spec(sym), tla.Options{PartialOrder: true})
	if err != nil {
		t.Fatalf("symmetry+por: %v", err)
	}
	t.Logf("composed: symmetry=%d symmetry+por=%d", symOnly.Distinct, both.Distinct)
	if both.Distinct > symOnly.Distinct {
		t.Fatalf("POR under symmetry explored more states: %d > %d", both.Distinct, symOnly.Distinct)
	}
}
