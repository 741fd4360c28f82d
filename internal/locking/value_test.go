package locking

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tla"
)

// reachable returns every state a check of spec discovers, in discovery
// order: the whole reachable set, or the states found up to a violation.
func reachable(t *testing.T, spec *tla.Spec[SpecState]) []SpecState {
	t.Helper()
	res, err := tla.Check(spec, tla.Options{RecordGraph: true})
	if err != nil && res.Violation == nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	out := make([]SpecState, res.Graph.Len())
	for id := range out {
		out[id] = res.Graph.StateAt(id)
	}
	return out
}

// TestSuccessorsNeverMutate: Acquire and Release copy their state, so a
// Next call leaves s's encoding byte-identical, and every successor is s
// with exactly one (actor, level) cell changed — the same actor count, and
// no write past it. Run on the states a check of the correct and of the
// buggy lock manager discovers.
func TestSuccessorsNeverMutate(t *testing.T) {
	for _, cfg := range []SpecConfig{{Actors: 3}, {Actors: 3, OmitCompatibilityCheck: true}} {
		spec := Spec(cfg)
		for _, s := range reachable(t, spec) {
			before := s.AppendBinary(nil)
			for _, a := range spec.Actions {
				for _, succ := range a.Next(s) {
					if succ.N != s.N {
						t.Fatalf("%s: %s from %s changes the actor count to %d", a.Name, succ.Key(), s.Key(), succ.N)
					}
					changed := 0
					for actor := range MaxActors {
						for lvl := range 3 {
							if succ.Held[actor][lvl] != s.Held[actor][lvl] {
								changed++
							}
						}
					}
					if changed != 1 {
						t.Fatalf("%s: %s from %s changes %d cells, want 1", a.Name, succ.Key(), s.Key(), changed)
					}
				}
				if after := s.AppendBinary(nil); !bytes.Equal(after, before) {
					t.Fatalf("%s mutated its state: %x became %x", a.Name, before, after)
				}
			}
		}
	}
}

// TestPaddingRowsStayZero: every way a state comes into being — Init,
// DecodeBinary, Acquire and Release, an ActorOrbits image, an
// ActorPermutations image — leaves the rows at index N and above zero, so
// == on states agrees with Key() equality: collected over all of them,
// the distinct values and the distinct keys are equally many. The orbit
// visitor is shared across actor counts, largest first, so an image built
// after a wider state shows any row the wider one left behind.
func TestPaddingRowsStayZero(t *testing.T) {
	byValue := map[SpecState]bool{}
	byKey := map[string]bool{}
	see := func(s SpecState) {
		t.Helper()
		assertPadded(t, s)
		byValue[s] = true
		byKey[s.Key()] = true
	}
	orbit := ActorOrbits()
	for _, actors := range []int{4, 3, 2, 0} {
		spec := Spec(SpecConfig{Actors: actors})
		for _, s := range spec.Init() {
			see(s)
		}
		for _, s := range reachable(t, spec) {
			see(s)
			dec, err := SpecState{}.DecodeBinary(s.AppendBinary(nil))
			if err != nil {
				t.Fatal(err)
			}
			if dec != s {
				t.Fatalf("DecodeBinary(AppendBinary(%s)) = %s, not == the state", s.Key(), dec.Key())
			}
			for _, a := range spec.Actions {
				for _, succ := range a.Next(s) {
					see(succ)
				}
			}
			orbit(s, see)
			if actors <= 3 {
				for _, img := range ActorPermutations(s) {
					see(img)
				}
			}
		}
	}
	if len(byValue) != len(byKey) {
		t.Fatalf("%d distinct values but %d distinct keys: == disagrees with Key()", len(byValue), len(byKey))
	}
	t.Logf("%d distinct states, == agrees with Key()", len(byValue))
}

// TestSpecRejectsTooManyActors: SpecState holds at most MaxActors rows, so
// a larger config panics at construction, naming the bound, instead of
// writing past the array on the first Init.
func TestSpecRejectsTooManyActors(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "MaxActors") {
			t.Fatalf("Spec(Actors: MaxActors+1) panicked with %q, want a message naming MaxActors", msg)
		}
	}()
	Spec(SpecConfig{Actors: MaxActors + 1})
}
