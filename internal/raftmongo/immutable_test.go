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
	for _, s := range longGapStates() {
		assertSuccessorsNeverMutate(t, specs, s)
		assertSuccessorsNeverMutate(t, specs, withSpareCapacity(s))
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
	long := log(25)
	return []State{
		{ // node 0 leads with 25 entries; nodes 1 and 2 trail by 23 and 25
			Roles:        []Role{Leader, Follower, Follower},
			Terms:        []int{3, 3, 3},
			CommitPoints: []CommitPoint{{Term: 1, Index: 2}, {}, {}},
			Oplogs:       [][]int{long, long[:2:2], {}},
		},
		{ // node 1 leads; node 0 trails by 21, node 2 by 22 behind a divergent entry
			Roles:        []Role{Follower, Leader, Follower},
			Terms:        []int{2, 3, 1},
			CommitPoints: []CommitPoint{{Term: 1, Index: 3}, {Term: 3, Index: 24}, {Term: 1, Index: 1}},
			Oplogs:       [][]int{long[:4:4], log(25), append(log(3), 1, 1)},
		},
	}
}

// freshSlices counts the distinct backing arrays the successors of parent
// hold that parent does not: the slices an action replaced. Siblings may
// share a replaced slice (BecomePrimaryByMagic's Roles), which counts once.
func freshSlices(parent State, succs []State) int {
	fresh := map[unsafe.Pointer]bool{}
	for _, c := range succs {
		for _, p := range arrays(c) {
			fresh[p] = true
		}
	}
	for _, p := range arrays(parent) {
		delete(fresh, p)
	}
	delete(fresh, nil)
	return len(fresh)
}

// arrays lists the backing arrays of s's slices, nil for a slice without.
func arrays(s State) []unsafe.Pointer {
	out := []unsafe.Pointer{arrayOf(s.Roles), arrayOf(s.Terms), arrayOf(s.CommitPoints), arrayOf(s.Oplogs)}
	for _, log := range s.Oplogs {
		out = append(out, arrayOf(log))
	}
	return out
}

func arrayOf[E any](s []E) unsafe.Pointer {
	if cap(s) == 0 {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(s))
}

// TestNextAllocsPerSuccessor pins the cost of copy-on-write successors over
// a fixed sample of reachable states of both variants plus longGapStates.
// An action with no successors returns nil; otherwise its result is
// allocated once, at exactly its length (cap == len), and the action
// allocates nothing else but the slices its successors replace — so it
// never regrows its result however many successors a long gap yields. That
// comes to at most three allocations per successor; a deep copy of the
// state costs 4 + n.
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
		sample = append(sample, longGapStates()...)
		succs, calls, fresh, longest := 0, 0, 0, 0
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
				fresh += freshSlices(s, out)
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
		perSucc := allocs / float64(succs)
		t.Logf("%s: %d states, %d successors (at most %d per call), %d non-empty calls, %d replaced slices, %.0f allocations (%.2f per successor)",
			spec.Name, len(sample), succs, longest, calls, fresh, allocs, perSucc)
		if perSucc > maxAllocs {
			t.Errorf("%s: Next allocates %.2f times per successor, want at most %d", spec.Name, perSucc, maxAllocs)
		}
		// One result per non-empty call on top of the replaced slices, and
		// nothing else: AllocsPerRun floors its mean over ten runs, which
		// forgives the runtime a stray allocation or nine, but a result
		// regrown on the long gaps adds several to every run.
		if want := float64(fresh + calls); allocs > want {
			t.Errorf("%s: Next allocates %.0f times for %d replaced slices in %d non-empty calls, want at most %.0f", spec.Name, allocs, fresh, calls, want)
		}
	}
}
