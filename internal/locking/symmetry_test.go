package locking

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tla"
)

// TestActorOrbitsVisitOrbitMinimum checks ActorOrbits against the
// brute-force oracle on random holdings of 2..5 actors: applied as the
// checker's codec applies it — the least encoding among the visited
// states, s's own when none is visited — the visitor must give the least
// encoding over s and its ActorPermutations images, and visit just once.
func TestActorOrbitsVisitOrbitMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	visit := ActorOrbits()
	for i := 0; i < 300; i++ {
		s := SpecState{N: uint8(2 + rng.Intn(4))}
		for a := range int(s.N) {
			for lvl := 0; lvl < 3; lvl++ {
				s.Held[a][lvl] = int8(rng.Intn(6) - 1)
			}
		}
		want := s.AppendBinary(nil)
		for _, img := range ActorPermutations(s) {
			if enc := img.AppendBinary(nil); bytes.Compare(enc, want) < 0 {
				want = enc
			}
		}
		var got []byte
		visits := 0
		visit(s, func(img SpecState) {
			if enc := img.AppendBinary(nil); visits == 0 || bytes.Compare(enc, got) < 0 {
				got = enc
			}
			visits++
		})
		if visits != 1 || !bytes.Equal(got, want) {
			t.Fatalf("case %d (%s): %d visits, least %x; want 1 visit, the orbit minimum %x", i, s.Key(), visits, got, want)
		}
	}
}

// TestSymmetryReductionSound checks the actor-permutation symmetry is
// sound on the locking spec: for every small configuration — including the
// deliberately broken lock manager whose Compatibility invariant fails —
// checking with and without Symmetric yields the identical verdict (clean
// vs violated, same invariant) and identical shortest-counterexample
// lengths, while the clean runs explore strictly fewer states.
func TestSymmetryReductionSound(t *testing.T) {
	for _, actors := range []int{2, 3} {
		for _, omit := range []bool{false, true} {
			run := func(sym bool) (*tla.Result[SpecState], error) {
				cfg := SpecConfig{Actors: actors, Symmetric: sym, OmitCompatibilityCheck: omit}
				return tla.Check(Spec(cfg), tla.Options{})
			}
			full, fullErr := run(false)
			red, redErr := run(true)
			if (fullErr == nil) != (redErr == nil) {
				t.Fatalf("actors=%d omit=%v: verdicts differ: full err=%v, symmetric err=%v",
					actors, omit, fullErr, redErr)
			}
			if fullErr == nil {
				if red.Distinct >= full.Distinct {
					t.Fatalf("actors=%d: symmetry did not reduce the space (%d vs %d)",
						actors, red.Distinct, full.Distinct)
				}
				t.Logf("actors=%d: %d states -> %d under symmetry", actors, full.Distinct, red.Distinct)
				continue
			}
			fv, rv := full.Violation, red.Violation
			if fv.Invariant != rv.Invariant {
				t.Fatalf("actors=%d omit=%v: violated invariants differ: %s vs %s",
					actors, omit, fv.Invariant, rv.Invariant)
			}
			if len(fv.Trace) != len(rv.Trace) {
				t.Fatalf("actors=%d omit=%v: counterexample lengths differ: %d vs %d",
					actors, omit, len(fv.Trace)-1, len(rv.Trace)-1)
			}
		}
	}
}
