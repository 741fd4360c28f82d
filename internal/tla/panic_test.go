package tla

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// explodingSpec is counterSpec plus one extra action whose Next panics when
// it sees the given state. The panic site is mid-exploration — several
// levels deep — so a recovered panic has a real trace to decode.
func explodingSpec(max int, at counterState) *Spec[counterState] {
	spec := counterSpec(max)
	spec.Actions = append(spec.Actions, Action[counterState]{
		Name: "Explode",
		Next: func(s counterState) []counterState {
			if s == at {
				panic(fmt.Sprintf("boom at %v", at))
			}
			return nil
		},
	})
	return spec
}

// assertSpecPanic asserts that err is a recovered spec panic whose Op
// mentions opWant, and returns the structured SpecPanic.
func assertSpecPanic[S State](t *testing.T, label string, err error, opWant string) *SpecPanic[S] {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: run succeeded, want a recovered spec panic", label)
	}
	if !errors.Is(err, ErrSpecPanic) {
		t.Fatalf("%s: err = %v, want errors.Is(ErrSpecPanic)", label, err)
	}
	var sp *SpecPanic[S]
	if !errors.As(err, &sp) {
		t.Fatalf("%s: err type = %T, want *SpecPanic", label, err)
	}
	if !strings.Contains(sp.Op, opWant) {
		t.Fatalf("%s: panic attributed to %q, want op containing %q", label, sp.Op, opWant)
	}
	if sp.Stack == "" {
		t.Fatalf("%s: recovered panic carries no stack", label)
	}
	if msg := sp.Error(); !strings.Contains(msg, "panicked") || !strings.Contains(msg, sp.Op) {
		t.Fatalf("%s: unhelpful panic message %q", label, msg)
	}
	return sp
}

// TestSpecPanicInNext pins the tentpole contract at several worker counts, with and without the arena: a panicking Next
// yields a structured ErrSpecPanic carrying a non-empty decoded trace to
// the state being expanded — not a crashed process — and the partial
// Result survives with no Violation.
func TestSpecPanicInNext(t *testing.T) {
	at := counterState{A: 3, B: 1} // depth 4: a real trace to decode
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{0, bigBudget} {
			label := fmt.Sprintf("workers=%d/budget=%d", workers, budget)
			res, err := Check(explodingSpec(8, at), Options{Workers: workers, MemoryBudgetBytes: budget})
			sp := assertSpecPanic[counterState](t, label, err, `action "Explode"`)
			if len(sp.Trace) == 0 {
				t.Fatalf("%s: recovered panic has an empty trace", label)
			}
			if got := sp.Trace[len(sp.Trace)-1]; got != at {
				t.Fatalf("%s: trace ends at %v, want the expanding state %v", label, got, at)
			}
			if len(sp.TraceActs) != len(sp.Trace)-1 {
				t.Fatalf("%s: %d actions for %d trace states", label, len(sp.TraceActs), len(sp.Trace))
			}
			if res == nil {
				t.Fatalf("%s: no partial result alongside the panic verdict", label)
			}
			if res.Violation != nil {
				t.Fatalf("%s: panic run reports a violation: %v", label, res.Violation)
			}
			if res.Distinct == 0 {
				t.Fatalf("%s: partial result counted no states", label)
			}
		}
	}
}

// TestSpecPanicInInvariant covers the invariant path, inline at one worker
// and in the merge's parallel settle pass at four: the trace must end at
// the exact state whose invariant check panicked.
func TestSpecPanicInInvariant(t *testing.T) {
	at := counterState{A: 2, B: 1}
	mk := func() *Spec[counterState] {
		spec := counterSpec(6)
		spec.Invariants = append(spec.Invariants, Invariant[counterState]{
			Name: "Fragile",
			Check: func(s counterState) error {
				if s == at {
					var m map[string]int
					m["nil map write"] = 1 // a realistic spec bug
				}
				return nil
			},
		})
		return spec
	}
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("workers=%d", workers)
		_, err := Check(mk(), Options{Workers: workers})
		sp := assertSpecPanic[counterState](t, label, err, `invariant "Fragile"`)
		if len(sp.Trace) == 0 {
			t.Fatalf("%s: empty trace", label)
		}
		if got := sp.Trace[len(sp.Trace)-1]; got != at {
			t.Fatalf("%s: trace ends at %v, want %v", label, got, at)
		}
	}
}

// TestSpecPanicInInitAndConstraint: a panic before any state exists (Init)
// is attributed with an empty trace; a panicking constraint is attributed
// to the constraint.
func TestSpecPanicInInitAndConstraint(t *testing.T) {
	init := counterSpec(4)
	init.Init = func() []counterState { panic("no initial states today") }
	sp := assertSpecPanic[counterState](t, "init",
		func() error { _, err := Check(init, Options{}); return err }(), "Init")
	if len(sp.Trace) != 0 {
		t.Fatalf("init panic decoded a trace of %d states from nothing", len(sp.Trace))
	}

	cons := counterSpec(4)
	cons.Constraint = func(s counterState) bool {
		if s == (counterState{A: 2, B: 0}) {
			panic("constraint bug")
		}
		return true
	}
	_, err := Check(cons, Options{Workers: 4})
	assertSpecPanic[counterState](t, "constraint", err, "Constraint")
}

// keyPanicState panics while encoding one specific state — the opEncode
// guard class (AppendBinary and SymmetryVisitor run inside the codec, on
// the expansion hot path).
type keyPanicState struct{ N int }

func (s keyPanicState) Key() string { return fmt.Sprintf("%d", s.N) }

func (s keyPanicState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s keyPanicState) AppendBinary(buf []byte) []byte {
	if s.N == 5 {
		panic("AppendBinary bug at N=5")
	}
	return append(buf, byte(s.N))
}

func TestSpecPanicInEncoding(t *testing.T) {
	spec := &Spec[keyPanicState]{
		Name: "KeyPanic",
		Init: func() []keyPanicState { return []keyPanicState{{0}} },
		Actions: []Action[keyPanicState]{
			{Name: "Inc", Next: func(s keyPanicState) []keyPanicState {
				if s.N >= 9 {
					return nil
				}
				return []keyPanicState{{s.N + 1}}
			}},
		},
	}
	_, err := Check(spec, Options{Workers: 2})
	if !errors.Is(err, ErrSpecPanic) {
		t.Fatalf("err = %v, want ErrSpecPanic", err)
	}
	var sp *SpecPanic[keyPanicState]
	if !errors.As(err, &sp) {
		t.Fatalf("err type = %T", err)
	}
	if !strings.Contains(sp.Op, "encoding") {
		t.Fatalf("op = %q, want the encoding class", sp.Op)
	}
}

// TestSpecPanicUnderSpillStore: the panic must unwind cleanly through the
// disk-spilling visited store too (workers panic while holding no store
// state; the store's Close still runs and removes its directory).
func TestSpecPanicUnderSpillStore(t *testing.T) {
	_, err := Check(explodingSpec(10, counterState{A: 4, B: 2}),
		Options{Workers: 4, MemoryBudgetBytes: 1})
	sp := assertSpecPanic[counterState](t, "spill", err, `action "Explode"`)
	if len(sp.Trace) == 0 {
		t.Fatal("empty trace under the spilling store")
	}
}

// panicObs is sumObs whose Matches panics on the states in boom.
type panicObs struct {
	sumObs
	boom []counterState
}

func (o panicObs) Matches(s counterState) bool {
	if slices.Contains(o.boom, s) {
		panic(fmt.Sprintf("boom at %v", s))
	}
	return o.sumObs.Matches(s)
}

// TestSpecPanicInTraceCheck: a trace check whose Init, Next, Matches or
// AppendBinary panics — at the first observation too — returns a
// *SpecPanic naming the callback and the observation, with the same result
// at one worker and at four — from the frontier state that comes first,
// though several chunks panic — instead of a raw panic or a crashed worker
// goroutine.
func TestSpecPanicInTraceCheck(t *testing.T) {
	// Observations 0..8 pin A+B; the frontier at observation 8 is the five
	// states (8,0) … (4,4), wide enough for four workers.
	trace := func(last Observation[counterState]) []Observation[counterState] {
		var tr []Observation[counterState]
		for k := 0; k < 9; k++ {
			tr = append(tr, sumObs(k))
		}
		return append(tr, last)
	}
	// (8,1) is a successor of frontier states 0 and 1, (5,4) of states 3
	// and 4: the panic of state 0 wins.
	matchesBoom := trace(panicObs{9, []counterState{{5, 4}, {8, 1}}})
	nextBoom := explodingSpec(20, counterState{A: 6, B: 2})
	// The first observation is checked against the initial states, not a
	// frontier, and its callbacks are guarded all the same.
	firstBoom := append([]Observation[counterState]{panicObs{0, []counterState{{0, 0}}}}, trace(sumObs(9))[1:]...)
	initBoom := counterSpec(20)
	initBoom.Init = func() []counterState { panic("boom in Init") }
	for _, tc := range []struct {
		name  string
		spec  *Spec[counterState]
		trace []Observation[counterState]
		op    string
		value string
		steps int
	}{
		{"Matches", counterSpec(20), matchesBoom, "Observation.Matches at observation 9", "boom at {8 1}", 9},
		{"Next", nextBoom, trace(sumObs(9)), `action "Explode".Next at observation 9`, "boom at {6 2}", 9},
		{"FirstMatches", counterSpec(20), firstBoom, "Observation.Matches at observation 0", "boom at {0 0}", 0},
		{"Init", initBoom, trace(sumObs(9)), "Init at observation 0", "boom in Init", 0},
	} {
		tracePanicsAlike(t, tc.name, tc.spec, tc.trace, tc.op, tc.value, tc.steps)
	}
	// Every state of step 1 panics when encoded, and a state is encoded
	// only to break a tie. From five lanes, four workers make five chunks:
	// lane 0's two successors are two matches in one chunk, which encodes
	// them; lanes 0 and 1 stepping are one match in each of two chunks,
	// whose lone matches are encoded for the merge, also when lane 2's
	// chunk then panics in Matches, since one worker meets the tie first.
	// Either way the first match's encoding panics, as at one worker. A
	// Matches panic on lane 1 comes before lane 2's step makes a tie, so it
	// is the step's panic, and lane 0's lone match is never encoded. With
	// only lane 1's step panicking when encoded, the chunk that makes the
	// tie also panics after it, in Matches on lane 11: one worker encodes
	// that chunk's match on meeting the tie, so the encoding's panic, held
	// by the chunk while its expansion went on, wins.
	const encoding = "state encoding (Key/AppendBinary/SymmetryVisitor) at observation 1"
	lanes := laneSpec([]int{0, 1, 2, 3, 4}, 1)
	lane1 := laneSpec([]int{0, 1, 2, 3, 4}, -1)
	for i := range lane1.Actions {
		next := lane1.Actions[i].Next
		lane1.Actions[i].Next = func(s laneState) []laneState {
			succs := next(s)
			for j := range succs {
				succs[j].Boom = succs[j].L == 1
			}
			return succs
		}
	}
	for _, tc := range []struct {
		name      string
		spec      *Spec[laneState]
		obs       Observation[laneState]
		op, value string
	}{
		{"EncodeTwoInOneChunk", lanes, laneObs{1, []int{0, 10}}, encoding, "AppendBinary bug at 1/0"},
		{"EncodeOneInEachOfTwoChunks", lanes, laneObs{1, []int{0, 1}}, encoding, "AppendBinary bug at 1/0"},
		{"EncodeBeforeALaterPanic", lanes, panicLaneObs{laneObs{1, []int{0, 1}}, 2}, encoding, "AppendBinary bug at 1/0"},
		{"PanicBeforeATie", lanes, panicLaneObs{laneObs{1, []int{0, 2}}, 1}, "Observation.Matches at observation 1", "boom on lane 1"},
		{"HeldEncodeInThePanickingChunk", lane1, panicLaneObs{laneObs{1, []int{0, 1}}, 11}, encoding, "AppendBinary bug at 1/1"},
	} {
		tracePanicsAlike(t, tc.name, tc.spec, []Observation[laneState]{laneObs{0, nil}, tc.obs}, tc.op, tc.value, 1)
	}
}

// panicLaneObs is laneObs whose Matches panics on lane boom.
type panicLaneObs struct {
	laneObs
	boom int
}

func (o panicLaneObs) Matches(s laneState) bool {
	if s.L == o.boom {
		panic(fmt.Sprintf("boom on lane %d", o.boom))
	}
	return o.laneObs.Matches(s)
}

// tracePanicsAlike checks trace against spec at one worker and at four and
// requires each run to end in the same *SpecPanic, raised in op with
// value, after steps matched observations.
func tracePanicsAlike[S State](t *testing.T, name string, spec *Spec[S], trace []Observation[S], op, value string, steps int) {
	t.Helper()
	var first *TraceResult
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("%s/workers=%d", name, workers)
		res, err := CheckTraceWith(spec, trace, TraceOptions{Workers: workers})
		sp := assertSpecPanic[S](t, label, err, op)
		if sp.Op != op || sp.Value != value {
			t.Fatalf("%s: panic %q in %q, want %q in %q", label, sp.Value, sp.Op, value, op)
		}
		if res == nil || res.OK || res.Steps != steps || res.FailedStep != -1 {
			t.Fatalf("%s: result %+v, want %d steps matched, not OK, no failed step", label, res, steps)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("%s: result %+v differs from one worker's %+v", label, res, first)
		}
	}
}
