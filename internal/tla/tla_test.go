package tla

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// counterState is a toy spec state: a bounded counter pair. It gives the
// checker a small, fully-understood state space to verify against. It
// encodes and decodes itself (two varints), so it runs under the arena.
type counterState struct{ A, B int }

func (s counterState) Key() string { return fmt.Sprintf("%d/%d", s.A, s.B) }

func (s counterState) AppendBinary(buf []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(buf, int64(s.A)), int64(s.B))
}

func (counterState) DecodeBinary(enc []byte) (counterState, error) {
	a, n := binary.Varint(enc)
	if n <= 0 {
		return counterState{}, fmt.Errorf("counterState: decode: bad A in %x", enc)
	}
	b, m := binary.Varint(enc[n:])
	if m <= 0 || n+m != len(enc) {
		return counterState{}, fmt.Errorf("counterState: decode: bad B in %x", enc)
	}
	return counterState{int(a), int(b)}, nil
}

// counterSpec counts A up to max, and B up to A. Reachable states: all
// (a, b) with 0 <= b <= a <= max.
func counterSpec(max int) *Spec[counterState] {
	return &Spec[counterState]{
		Name: "Counter",
		Init: func() []counterState { return []counterState{{0, 0}} },
		Actions: []Action[counterState]{
			{Name: "IncA", Next: func(s counterState) []counterState {
				if s.A >= max {
					return nil
				}
				return []counterState{{s.A + 1, s.B}}
			}},
			{Name: "IncB", Next: func(s counterState) []counterState {
				if s.B >= s.A {
					return nil
				}
				return []counterState{{s.A, s.B + 1}}
			}},
		},
		Invariants: []Invariant[counterState]{
			{Name: "BLeqA", Check: func(s counterState) error {
				if s.B > s.A {
					return fmt.Errorf("B=%d > A=%d", s.B, s.A)
				}
				return nil
			}},
		},
	}
}

func TestCheckCountsStates(t *testing.T) {
	for _, max := range []int{0, 1, 2, 5, 10} {
		res, err := Check(counterSpec(max), Options{})
		if err != nil {
			t.Fatalf("max=%d: %v", max, err)
		}
		want := (max + 1) * (max + 2) / 2 // all (a,b), 0<=b<=a<=max
		if res.Distinct != want {
			t.Errorf("max=%d: distinct = %d, want %d", max, res.Distinct, want)
		}
		if res.Terminal != 1 {
			t.Errorf("max=%d: terminal = %d, want 1", max, res.Terminal)
		}
	}
}

func TestCheckDepth(t *testing.T) {
	res, err := Check(counterSpec(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 8 { // A to 4 then B to 4: 8 steps to (4,4)
		t.Errorf("depth = %d, want 8", res.Depth)
	}
}

func TestInvariantViolationShortestCounterexample(t *testing.T) {
	spec := counterSpec(5)
	spec.Invariants = append(spec.Invariants, Invariant[counterState]{
		Name: "ANeverThree",
		Check: func(s counterState) error {
			if s.A == 3 {
				return errors.New("A reached 3")
			}
			return nil
		},
	})
	res, err := Check(spec, Options{})
	if err == nil {
		t.Fatal("expected violation")
	}
	var v *Violation[counterState]
	if !errors.As(err, &v) {
		t.Fatalf("error type = %T, want *Violation", err)
	}
	if v.Invariant != "ANeverThree" {
		t.Errorf("invariant = %q", v.Invariant)
	}
	if len(v.Trace) != 4 { // (0,0) (1,0) (2,0) (3,0) — BFS finds the shortest
		t.Fatalf("trace length = %d, want 4", len(v.Trace))
	}
	if got := v.Trace[len(v.Trace)-1]; got.A != 3 {
		t.Errorf("final state = %+v", got)
	}
	for _, a := range v.TraceActs {
		if a != "IncA" {
			t.Errorf("shortest counterexample should be all IncA, got %v", v.TraceActs)
		}
	}
	if res.Violation != v {
		t.Error("result does not carry the violation")
	}
}

func TestConstraintBoundsExploration(t *testing.T) {
	spec := counterSpec(100)
	spec.Constraint = func(s counterState) bool { return s.A <= 3 }
	res, err := Check(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// States with A <= 3 are fully explored; A == 4 states are reached
	// (constraint states are kept, successors skipped), so B can only be
	// as large as it was when A hit 4.
	if res.ConstraintCuts == 0 {
		t.Error("expected some constraint cuts")
	}
	for _, max := range []int{} {
		_ = max
	}
	if res.Distinct >= 101*102/2 {
		t.Errorf("constraint did not bound the space: %d states", res.Distinct)
	}
}

func TestMaxStatesAborts(t *testing.T) {
	_, err := Check(counterSpec(1000), Options{MaxStates: 50})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestGraphRecording(t *testing.T) {
	res, err := Check(counterSpec(2), Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g == nil {
		t.Fatal("no graph recorded")
	}
	if g.Len() != res.Distinct {
		t.Errorf("graph states = %d, distinct = %d", g.Len(), res.Distinct)
	}
	if len(g.Inits) != 1 || g.Inits[0] != 0 {
		t.Errorf("inits = %v", g.Inits)
	}
	term, err := g.TerminalStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(term) != 1 {
		t.Fatalf("terminal states = %v, want exactly one", term)
	}
	if got := g.StateAt(term[0]); got.A != 2 || got.B != 2 {
		t.Errorf("terminal state = %+v, want (2,2)", got)
	}
	// Edges are recorded in BFS order, so the first edge reaching a state
	// gives its shortest distance from the initial state.
	dist := make([]int, g.Len())
	for i := range dist {
		dist[i] = -1
	}
	dist[g.Inits[0]] = 0
	if err := g.ForEachEdge(func(e Edge) error {
		if dist[e.To] < 0 {
			dist[e.To] = dist[e.From] + 1
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if dist[term[0]] != 4 { // 4 steps from (0,0) to (2,2)
		t.Errorf("shortest path to the terminal state = %d steps, want 4", dist[term[0]])
	}
	names, err := g.ActionNames()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "IncA" || names[1] != "IncB" {
		t.Errorf("action names = %v", names)
	}
}

func TestCheckEventually(t *testing.T) {
	res, err := Check(counterSpec(3), Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every behaviour can reach the absorbing state (3,3).
	eventually := func(p func(counterState) bool) int {
		t.Helper()
		w, err := CheckEventuallyWithin(res.Graph, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	if w := eventually(func(s counterState) bool { return s.A == 3 && s.B == 3 }); w != -1 {
		t.Errorf("eventually (3,3) failed, witness %v", res.Graph.StateAt(w))
	}
	// But "eventually B > A" is unreachable, so every state is a witness.
	if w := eventually(func(s counterState) bool { return s.B > s.A }); w == -1 {
		t.Error("impossible eventually-property reported as holding")
	}
	// "Eventually A >= 2" fails for no state: all states can still bump A?
	// No: states with A == 3 have A >= 2 themselves. States are their own
	// witnesses when p already holds.
	if w := eventually(func(s counterState) bool { return s.A >= 2 || s.B <= s.A }); w != -1 {
		t.Errorf("tautology failed at %d", w)
	}
}

func TestCheckTraceFullObservations(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
		FullObservation[counterState]{counterState{1, 0}},
		FullObservation[counterState]{counterState{1, 1}},
		FullObservation[counterState]{counterState{2, 1}},
	}
	res, err := CheckTrace(spec, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Steps != 4 {
		t.Errorf("res = %+v", res)
	}
	for i, n := range res.FrontierSizes {
		if n != 1 {
			t.Errorf("frontier %d size = %d, want 1", i, n)
		}
	}
}

func TestCheckTraceDivergence(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
		FullObservation[counterState]{counterState{2, 0}}, // skips a step: not a behaviour
	}
	res, err := CheckTrace(spec, trace)
	if err == nil {
		t.Fatal("expected divergence")
	}
	var te *TraceError
	if !errors.As(err, &te) || te.Step != 1 {
		t.Fatalf("err = %v", err)
	}
	if res.FailedStep != 1 {
		t.Errorf("failed step = %d", res.FailedStep)
	}
}

func TestCheckTraceBadInitial(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{1, 1}},
	}
	_, err := CheckTrace(spec, trace)
	var te *TraceError
	if !errors.As(err, &te) || te.Step != 0 {
		t.Fatalf("err = %v, want step-0 trace error", err)
	}
}

// partialObs constrains only the A variable (optionally as a lower bound),
// leaving B unobserved — exercising Pressler's refinement idea that
// unlogged variables are existentially quantified.
type partialObs struct {
	a       int
	atLeast bool
}

func (o partialObs) Matches(s counterState) bool {
	if o.atLeast {
		return s.A >= o.a
	}
	return s.A == o.a
}

func (o partialObs) String() string { return fmt.Sprintf("A=%d(atLeast=%v)", o.a, o.atLeast) }

func TestCheckTracePartialObservations(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		partialObs{a: 0},
		partialObs{a: 1},                // (1,0)
		partialObs{a: 1, atLeast: true}, // (2,0) by IncA or (1,1) by IncB: frontier of 2
		partialObs{a: 2},                // both candidates step to (2,1): frontier merges back to 1
	}
	res, err := CheckTrace(spec, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontierSizes[2] != 2 || res.FrontierSizes[3] != 1 {
		t.Errorf("frontier sizes = %v, want [1 1 2 1]", res.FrontierSizes)
	}
}

func TestCheckTraceEmptyIsBehaviour(t *testing.T) {
	res, err := CheckTrace(counterSpec(1), nil)
	if err != nil || !res.OK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestCheckTraceStuttering(t *testing.T) {
	spec := counterSpec(2)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
		FullObservation[counterState]{counterState{0, 0}}, // stutter
		FullObservation[counterState]{counterState{1, 0}},
	}
	if _, err := CheckTrace(spec, trace); err == nil {
		t.Fatal("strict checker should reject stuttering")
	}
	res, err := CheckTraceWith(spec, trace, TraceOptions{Stuttering: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Errorf("res = %+v", res)
	}
	found := false
	for _, acts := range res.Explanations {
		for _, a := range acts {
			if a == "<stutter>" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no stutter explanation recorded")
	}
}

func TestWriteParseDOTRoundTrip(t *testing.T) {
	res, err := Check(counterSpec(3), Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Graph.WriteDOT(&buf, "Counter"); err != nil {
		t.Fatal(err)
	}
	dg, err := ParseDOT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Labels) != res.Distinct {
		t.Errorf("parsed %d nodes, want %d", len(dg.Labels), res.Distinct)
	}
	if len(dg.Edges) != res.Graph.NumEdges() {
		t.Errorf("parsed %d edges, want %d", len(dg.Edges), res.Graph.NumEdges())
	}
	if len(dg.Inits) != 1 || dg.Labels[dg.Inits[0]] != "0/0" {
		t.Errorf("inits = %v", dg.Inits)
	}
	// Labels must round-trip exactly.
	for id := 0; id < res.Graph.Len(); id++ {
		if key := res.Graph.KeyAt(id); dg.Labels[id] != key {
			t.Errorf("node %d label = %q, want %q", id, dg.Labels[id], key)
		}
	}
	term := dg.Terminal()
	if len(term) != 1 || dg.Labels[term[0]] != "3/3" {
		t.Errorf("terminal = %v", term)
	}
}

func TestParseDOTQuotedEscapes(t *testing.T) {
	in := `strict digraph G {
  0 [label="a\"b",style=filled];
  1 [label="c\\d"];
  0 -> 1 [label="Act"];
}`
	dg, err := ParseDOT(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dg.Labels[0] != `a"b` || dg.Labels[1] != `c\d` {
		t.Errorf("labels = %v", dg.Labels)
	}
	if len(dg.Edges) != 1 || dg.Edges[0].Action != "Act" {
		t.Errorf("edges = %v", dg.Edges)
	}
}

func TestParseDOTErrors(t *testing.T) {
	cases := []string{
		"0 -> x [label=\"A\"];",
		"0 -> 1 ;",
		`0 [nolabel];`,
		`0 -> 1 [label=unquoted];`,
		`0 [label="unterminated];`,
	}
	for _, c := range cases {
		if _, err := ParseDOT(strings.NewReader("strict digraph G {\n" + c + "\n}")); err == nil {
			t.Errorf("ParseDOT(%q) succeeded, want error", c)
		}
	}
}

// Property: checking a trace generated by a random walk of the spec always
// succeeds — every behaviour of the spec is accepted by its own trace
// checker (soundness of CheckTrace).
func TestQuickRandomWalkTracesAreBehaviours(t *testing.T) {
	spec := counterSpec(6)
	f := func(choices []bool) bool {
		s := counterState{0, 0}
		trace := []Observation[counterState]{FullObservation[counterState]{s}}
		for _, pickA := range choices {
			var succs []counterState
			if pickA {
				succs = spec.Actions[0].Next(s)
			}
			if len(succs) == 0 {
				succs = spec.Actions[1].Next(s)
			}
			if len(succs) == 0 {
				succs = spec.Actions[0].Next(s)
			}
			if len(succs) == 0 {
				break // deadlock (both counters maxed)
			}
			s = succs[0]
			trace = append(trace, FullObservation[counterState]{s})
		}
		res, err := CheckTrace(spec, trace)
		return err == nil && res.OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a trace with one corrupted interior state is rejected.
func TestQuickCorruptedTracesRejected(t *testing.T) {
	spec := counterSpec(6)
	f := func(n uint8) bool {
		steps := int(n%5) + 2
		s := counterState{0, 0}
		trace := []Observation[counterState]{FullObservation[counterState]{s}}
		for i := 0; i < steps; i++ {
			succs := spec.Actions[i%2].Next(s)
			if len(succs) == 0 {
				succs = spec.Actions[(i+1)%2].Next(s)
			}
			if len(succs) == 0 {
				break
			}
			s = succs[0]
			trace = append(trace, FullObservation[counterState]{s})
		}
		if len(trace) < 3 {
			return true
		}
		// Corrupt the middle state with an impossible jump.
		mid := len(trace) / 2
		trace[mid] = FullObservation[counterState]{counterState{50, 50}}
		_, err := CheckTrace(spec, trace)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGraphSuccessors(t *testing.T) {
	res, err := Check(counterSpec(2), Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	var succs []Edge // (0,0) -> only IncA
	if err := res.Graph.ForEachEdge(func(e Edge) error {
		if e.From == 0 {
			succs = append(succs, e)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(succs) != 1 || succs[0].Action != "IncA" {
		t.Fatalf("successors of init = %v", succs)
	}
}

func TestViolationErrorString(t *testing.T) {
	spec := counterSpec(3)
	spec.Invariants = append(spec.Invariants, Invariant[counterState]{
		Name:  "Never",
		Check: func(s counterState) error { return errors.New("boom") },
	})
	_, err := Check(spec, Options{})
	var v *Violation[counterState]
	if !errors.As(err, &v) {
		t.Fatal(err)
	}
	if got := v.Error(); !strings.Contains(got, "Never") || !strings.Contains(got, "boom") {
		t.Fatalf("error string: %q", got)
	}
}

func TestCheckTraceStutteringBadInitial(t *testing.T) {
	spec := counterSpec(2)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{2, 2}},
	}
	res, err := CheckTraceWith(spec, trace, TraceOptions{Stuttering: true})
	var te *TraceError
	if !errors.As(err, &te) || te.Step != 0 || res.FailedStep != 0 {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	// Empty traces are trivially behaviours under stuttering too.
	if res, err := CheckTraceWith(spec, nil, TraceOptions{Stuttering: true}); err != nil || !res.OK {
		t.Fatalf("empty: res=%+v err=%v", res, err)
	}
}

func TestCheckTraceStutteringDivergence(t *testing.T) {
	spec := counterSpec(2)
	trace := []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
		FullObservation[counterState]{counterState{2, 1}}, // unreachable in one step even with stutter
	}
	res, err := CheckTraceWith(spec, trace, TraceOptions{Stuttering: true})
	var te *TraceError
	if !errors.As(err, &te) || te.Step != 1 || res.FailedStep != 1 {
		t.Fatalf("err=%v res=%+v", err, res)
	}
}

func TestCheckNoInit(t *testing.T) {
	if _, err := Check(&Spec[counterState]{Name: "empty"}, Options{}); err == nil {
		t.Fatal("expected error for spec without Init")
	}
}

// TestInitViolation: an invariant an initial state violates ends the run
// before any expansion, with a one-state counterexample, at every worker
// count.
func TestInitViolation(t *testing.T) {
	for _, w := range []int{1, 4} {
		spec := counterSpec(4)
		spec.Invariants = append(spec.Invariants, Invariant[counterState]{
			Name:  "NoInit",
			Check: func(counterState) error { return errors.New("init rejected") },
		})
		res, err := Check(spec, Options{Workers: w})
		if !errors.Is(err, ErrInvariantViolated) {
			t.Fatalf("workers=%d: err = %v, want an invariant violation at the initial state", w, err)
		}
		if len(res.Violation.Trace) != 1 || res.Transitions != 0 {
			t.Fatalf("workers=%d: trace of %d states after %d transitions, want 1 after 0", w, len(res.Violation.Trace), res.Transitions)
		}
	}
}
