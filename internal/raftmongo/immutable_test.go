package raftmongo

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tla"
)

// bothSpecs returns V1 and V2 under cfg: between them, every action.
func bothSpecs(cfg Config) []*tla.Spec[State] {
	return []*tla.Spec[State]{SpecV1(cfg), SpecV2(cfg)}
}

// successors returns every successor of s under every action of specs.
func successors(specs []*tla.Spec[State], s State) []State {
	var out []State
	for _, spec := range specs {
		for _, a := range spec.Actions {
			out = append(out, a.Next(s)...)
		}
	}
	return out
}

// assertSuccessorsNeverMutate pins the immutability contract of State (see
// tla.Action): building successors never writes into the state they came
// from or into a sibling. The first generation must encode exactly as the
// successors of a deep copy of s do, which no sibling can have written
// into. It then expands s a second generation deep — so that ClientWrite
// and AppendOplog run on logs the first generation already shares through
// capped slices — and requires s and every first-generation successor to
// re-encode byte-identically.
func assertSuccessorsNeverMutate(t *testing.T, specs []*tla.Spec[State], s State) {
	t.Helper()
	parent := s.AppendBinary(nil)
	want := successors(specs, deepCopy(s))
	encs := make([][]byte, len(want))
	for i, c := range want {
		encs[i] = c.AppendBinary(nil)
	}
	gen1 := successors(specs, s)
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
		successors(specs, c)
	}
	check("building the second generation")
}

// withSpareCapacity returns s with every oplog moved into an array with
// room to grow: an action that appended in place would then write into
// memory another state can see, which the mutation check must catch.
func withSpareCapacity(s State) State {
	logs := make([][]int, len(s.Oplogs))
	for i, log := range s.Oplogs {
		logs[i] = append(make([]int, 0, len(log)+2), log...)
	}
	s.Oplogs = logs
	return s
}

// TestSuccessorsNeverMutate runs the mutation check over random states of
// one to three nodes (the fuzz targets' generator, with and without spare
// oplog capacity) and over a fixed sample of the reachable states of the
// small configuration of both variants.
func TestSuccessorsNeverMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	specsByNodes := map[int][]*tla.Spec[State]{}
	for n := 1; n <= 3; n++ {
		specsByNodes[n] = bothSpecs(Config{Nodes: n, MaxTerm: 3, MaxLogLen: 3})
	}
	data := make([]byte, 64)
	for i := 0; i < 500; i++ {
		rng.Read(data)
		r := &fuzzReader{data: data}
		n := 1 + r.intn(3)
		s := stateFrom(r, n)
		assertSuccessorsNeverMutate(t, specsByNodes[n], s)
		assertSuccessorsNeverMutate(t, specsByNodes[n], withSpareCapacity(s))
	}
	specs := bothSpecs(smallCfg())
	for _, spec := range specs {
		res, err := tla.Check(spec, tla.Options{RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		step := 13
		if testing.Short() {
			step = 61
		}
		for id := 0; id < res.Graph.Len(); id += step {
			assertSuccessorsNeverMutate(t, specs, res.Graph.StateAt(id))
		}
	}
}

// TestNextAllocsPerSuccessor pins the cost of copy-on-write successors:
// over a fixed sample of reachable states of both variants, every action's
// Next allocates at most three times per successor it returns. A successor
// replaces one or two slices of its parent, plus its share of the action's
// result slice; a deep copy of the state costs 4 + n allocations.
func TestNextAllocsPerSuccessor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const maxAllocs = 3
	for _, spec := range bothSpecs(smallCfg()) {
		res, err := tla.Check(spec, tla.Options{RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		var sample []State
		for id := 0; id < res.Graph.Len(); id += 7 {
			sample = append(sample, res.Graph.StateAt(id))
		}
		succs := 0
		for _, s := range sample {
			succs += len(successors([]*tla.Spec[State]{spec}, s))
		}
		allocs := testing.AllocsPerRun(3, func() {
			for _, s := range sample {
				for _, a := range spec.Actions {
					a.Next(s)
				}
			}
		})
		perSucc := allocs / float64(succs)
		t.Logf("%s: %d states, %d successors, %.2f allocations per successor", spec.Name, len(sample), succs, perSucc)
		if perSucc > maxAllocs {
			t.Errorf("%s: Next allocates %.2f times per successor, want at most %d", spec.Name, perSucc, maxAllocs)
		}
	}
}
