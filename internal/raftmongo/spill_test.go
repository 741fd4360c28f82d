package raftmongo

import (
	"fmt"
	"testing"

	"repro/internal/tla"
)

// TestSpillReproducesInMemoryRun is the acceptance check for the
// disk-spilling fingerprint store on the paper's replica-set spec: a
// forced-spill exploration (one-byte budget, so every BFS level seals a
// sorted run and every later level merge-joins against all of them) must
// reproduce the in-memory verdict exactly — same state counts on the clean
// configurations, same invariant and same shortest-counterexample length
// when a symmetric tripwire makes the spec fail — with and without
// symmetry reduction.
func TestSpillReproducesInMemoryRun(t *testing.T) {
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
								for n, log := range s.Oplogs[:s.Nodes] {
									if log.Len() >= c.MaxLogLen {
										return fmt.Errorf("node %d oplog reached %d", n, log.Len())
									}
								}
								return nil
							},
						})
					}
					return spec
				}
				desc := fmt.Sprintf("%s/symmetric=%v/tripwire=%v", name, symmetric, tripwire)
				mem, memErr := tla.Check(build(), tla.Options{Workers: 4})
				spill, spillErr := tla.Check(build(), tla.Options{Workers: 4, MemoryBudgetBytes: 1})
				if (memErr == nil) != (spillErr == nil) {
					t.Fatalf("%s: verdicts differ: mem err=%v spill err=%v", desc, memErr, spillErr)
				}
				if mem.Distinct != spill.Distinct || mem.Transitions != spill.Transitions ||
					mem.Depth != spill.Depth || mem.Terminal != spill.Terminal {
					t.Fatalf("%s: counters differ:\n mem   %+v\n spill %+v", desc, mem, spill)
				}
				if memErr == nil {
					continue
				}
				mv, sv := mem.Violation, spill.Violation
				if mv == nil || sv == nil {
					t.Fatalf("%s: missing violation: mem=%v spill=%v", desc, mv, sv)
				}
				if mv.Invariant != sv.Invariant {
					t.Fatalf("%s: violated invariants differ: %s vs %s", desc, mv.Invariant, sv.Invariant)
				}
				if len(mv.Trace) != len(sv.Trace) {
					t.Fatalf("%s: counterexample lengths differ: %d vs %d", desc, len(mv.Trace)-1, len(sv.Trace)-1)
				}
			}
		}
	}
}
