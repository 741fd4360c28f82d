package arrayot

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ot"
	"repro/internal/tla"
)

// successors returns every successor of s under every action of spec:
// ClientOp's and MergeAction's.
func successors(spec *tla.Spec[State], s State) []State {
	var out []State
	for _, a := range spec.Actions {
		out = append(out, a.Next(s)...)
	}
	return out
}

// deepCopy returns a state equal to s that shares no memory with it: the
// decode of its encoding.
func deepCopy(t *testing.T, s State) State {
	t.Helper()
	c, err := s.DecodeBinary(s.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// withSpareCapacity returns s rebuilt with every log, array and Performed
// in memory with room to grow: an action that appended in place would then
// write into memory another state can see, which the mutation check must
// catch.
func withSpareCapacity(s State) State {
	v := s.Net.View()
	ops := func(xs []ot.Op) []ot.Op { return append(make([]ot.Op, 0, len(xs)+3), xs...) }
	ints := func(xs []int) []int { return append(make([]int, 0, len(xs)+3), xs...) }
	w := ot.View{
		ServerLog:   ops(v.ServerLog),
		ServerState: ints(v.ServerState),
		ClientLog:   make([][]ot.Op, len(v.ClientLog)),
		ClientState: make([][]int, len(v.ClientState)),
		Progress:    append(make([]ot.Progress, 0, len(v.Progress)+3), v.Progress...),
	}
	for c := range v.ClientLog {
		w.ClientLog[c] = ops(v.ClientLog[c])
		w.ClientState[c] = ints(v.ClientState[c])
	}
	return State{Net: ot.NetworkFromView(s.Net.Transformer(), w), Performed: ints(s.Performed), MergeErr: s.MergeErr}
}

// assertSuccessorsNeverMutate pins the immutability contract of State (see
// tla.Action) for copy-on-write deployments: building successors never
// writes into the state they came from or into a sibling. The first
// generation must encode exactly as the successors of a deep copy of s do,
// which no sibling can have written into. It then expands s a second
// generation deep — so that Perform and Merge append to logs the first
// generation shares with s — and requires s and every first-generation
// successor to re-encode byte-identically.
func assertSuccessorsNeverMutate(t *testing.T, spec *tla.Spec[State], s State) {
	t.Helper()
	parent := s.AppendBinary(nil)
	want := successors(spec, deepCopy(t, s))
	encs := make([][]byte, len(want))
	for i, c := range want {
		encs[i] = c.AppendBinary(nil)
	}
	gen1 := successors(spec, s)
	check := func(when string) {
		t.Helper()
		if !bytes.Equal(s.AppendBinary(nil), parent) {
			t.Fatalf("%s mutated the parent:\n was %x\n now %s", when, parent, s.Key())
		}
		if len(gen1) != len(encs) {
			t.Fatalf("parent %s has %d successors, its deep copy %d", s.Key(), len(gen1), len(encs))
		}
		for i, c := range gen1 {
			if !bytes.Equal(c.AppendBinary(nil), encs[i]) {
				t.Fatalf("%s mutated a successor of %s:\n want %s\n got  %s", when, s.Key(), want[i].Key(), c.Key())
			}
		}
	}
	check("building the successors")
	for _, c := range gen1 {
		successors(spec, c)
	}
	check("building the second generation")
}

// randomWalk drives spec from its initial state through up to maxSteps
// random successor choices and returns the state reached.
func randomWalk(rng *rand.Rand, spec *tla.Spec[State], maxSteps int) State {
	s := spec.Init()[0]
	for steps := rng.Intn(maxSteps + 1); steps > 0; steps-- {
		succs := successors(spec, s)
		if len(succs) == 0 {
			break
		}
		s = succs[rng.Intn(len(succs))]
	}
	return s
}

// TestSuccessorsNeverMutate runs the mutation check over random reachable
// states of the paper's configuration and of two clients with two
// operations each (longer client logs, merges that rebase two ops), with
// and without spare capacity, and over a fixed sample of the paper
// configuration's reachable states.
func TestSuccessorsNeverMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	paper := Spec(DefaultConfig())
	twoOps := Spec(Config{Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 2})
	walks := 300
	if testing.Short() {
		walks = 60
	}
	for i := 0; i < walks; i++ {
		for _, spec := range []*tla.Spec[State]{paper, twoOps} {
			s := randomWalk(rng, spec, 8)
			assertSuccessorsNeverMutate(t, spec, s)
			assertSuccessorsNeverMutate(t, spec, withSpareCapacity(s))
		}
	}
	res, err := tla.Check(paper, tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	step := 97
	if testing.Short() {
		step = 499
	}
	for id := 0; id < res.Graph.Len(); id += step {
		assertSuccessorsNeverMutate(t, paper, res.Graph.StateAt(id))
	}
}
