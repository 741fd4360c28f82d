package raftmongo

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

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
// and AppendOplog run on oplog entries the first generation already
// shares — and requires s and every first-generation successor to
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

// withSharedLogs returns s with every oplog that is a prefix of another
// node's rebuilt as a view of that node's entries, so the nodes share
// entries the way AppendOplog makes them share: an action that edited an
// entry in place would then change another node's log, which the mutation
// check must catch.
func withSharedLogs(s State) State {
	for i := range s.NumNodes() {
		for j := range s.NumNodes() {
			if i != j && s.Oplogs[i].IsPrefixOf(s.Oplogs[j]) {
				s.Oplogs[i] = s.Oplogs[j].Prefix(s.Oplogs[i].Len())
			}
		}
	}
	return s
}

// TestSuccessorsNeverMutate runs the mutation check over random states of
// one to MaxNodes nodes (the fuzz targets' generator, with and without
// oplogs that share entries) and over a fixed sample of the reachable
// states of the small configuration of both variants.
func TestSuccessorsNeverMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	specsByNodes := map[int][]*tla.Spec[State]{}
	for n := 1; n <= MaxNodes; n++ {
		specsByNodes[n] = bothSpecs(Config{Nodes: n, MaxTerm: 3, MaxLogLen: 3})
	}
	data := make([]byte, 96)
	for i := 0; i < 500; i++ {
		rng.Read(data)
		r := &fuzzReader{data: data}
		n := 1 + r.intn(MaxNodes)
		s := stateFrom(r, n)
		assertSuccessorsNeverMutate(t, specsByNodes[n], s)
		assertSuccessorsNeverMutate(t, specsByNodes[n], withSharedLogs(s))
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
	for _, s := range longGapStates() {
		assertSuccessorsNeverMutate(t, specs, s)
		assertSuccessorsNeverMutate(t, specs, deepCopy(s))
	}
}

// longGapStates returns states in which a node trails another by at least
// twenty entries, so AppendOplog has long runs of successors to build: the
// reachable states of smallCfg have gaps of at most two.
func longGapStates() []State {
	log := func(n int) []int {
		out := make([]int, n)
		for k := range out {
			out[k] = 1 + k/10
		}
		return out
	}
	long := oplogOf(log(25)...)
	mk := func(roles []Role, terms []int16, cps []CommitPoint, logs []Oplog) State {
		s := NewState(len(roles))
		copy(s.Roles[:], roles)
		copy(s.Terms[:], terms)
		copy(s.CommitPoints[:], cps)
		copy(s.Oplogs[:], logs)
		return s
	}
	return []State{
		// node 0 leads with 25 entries; nodes 1 and 2 trail by 23 and 25
		mk([]Role{Leader, Follower, Follower}, []int16{3, 3, 3},
			[]CommitPoint{{Term: 1, Index: 2}, {}, {}},
			[]Oplog{long, long.Prefix(2), {}}),
		// node 1 leads; node 0 trails by 21, node 2 by 22 behind a divergent entry
		mk([]Role{Follower, Leader, Follower}, []int16{2, 3, 1},
			[]CommitPoint{{Term: 1, Index: 3}, {Term: 3, Index: 24}, {Term: 1, Index: 1}},
			[]Oplog{long.Prefix(4), oplogOf(log(25)...), oplogOf(append(log(3), 1, 1)...)}),
	}
}

// TestStateSize pins the size of a State: a result slice holds states by
// value, so a State no bigger than the four slice headers it replaced (96
// bytes) keeps results from growing.
func TestStateSize(t *testing.T) {
	if got := unsafe.Sizeof(State{}); got > 96 {
		t.Errorf("unsafe.Sizeof(State{}) = %d, want at most 96", got)
	}
}

// TestNextAllocsPerSuccessor pins the cost of value successors over a
// fixed sample of reachable states of both variants plus longGapStates.
// An action with no successors returns nil; otherwise its result is
// allocated once, at exactly its length (cap == len), and the only other
// allocation is the entry each ClientWrite successor appends — so an
// action never regrows its result however many successors a long gap
// yields, and copies no oplog.
func TestNextAllocsPerSuccessor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, spec := range bothSpecs(smallCfg()) {
		res, err := tla.Check(spec, tla.Options{RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		var sample []State
		for id := 0; id < res.Graph.Len(); id += 7 {
			sample = append(sample, res.Graph.StateAt(id))
		}
		sample = append(sample, longGapStates()...)
		succs, calls, writes, longest := 0, 0, 0, 0
		for _, s := range sample {
			for _, a := range spec.Actions {
				out := a.Next(s)
				if len(out) == 0 {
					if out != nil {
						t.Errorf("%s: %s returns an empty non-nil result for %s", spec.Name, a.Name, s)
					}
					continue
				}
				if cap(out) != len(out) {
					t.Errorf("%s: %s returns %d successors in a result of capacity %d for %s", spec.Name, a.Name, len(out), cap(out), s)
				}
				succs += len(out)
				calls++
				if a.Name == "ClientWrite" {
					writes += len(out)
				}
				longest = max(longest, len(out))
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, s := range sample {
				for _, a := range spec.Actions {
					a.Next(s)
				}
			}
		})
		want := float64(calls + writes)
		t.Logf("%s: %d states, %d successors (at most %d per call), %d non-empty calls, %d ClientWrite successors, %.0f allocations (%.2f per successor)",
			spec.Name, len(sample), succs, longest, calls, writes, allocs, allocs/float64(succs))
		if allocs > 1.01*want {
			t.Errorf("%s: Next allocates %.0f times for %d non-empty calls and %d ClientWrite successors, want at most 1.01 × %.0f", spec.Name, allocs, calls, writes, want)
		}
	}
}
