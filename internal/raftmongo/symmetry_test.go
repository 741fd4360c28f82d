package raftmongo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/race"
	"repro/internal/tla"
)

// TestSymmetryReducesStates is the acceptance check for the symmetry
// reduction: with interchangeable node ids declared, the checker must
// explore measurably fewer distinct states — at least a 1/3 cut for three
// nodes (the theoretical maximum is 3! = 6x) — and reach the same clean
// verdict on both specification variants.
func TestSymmetryReducesStates(t *testing.T) {
	base := Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	symCfg := base
	symCfg.Symmetric = true
	for name, mk := range map[string]func(Config) *tla.Spec[State]{"V1": SpecV1, "V2": SpecV2} {
		full, err := tla.Check(mk(base), tla.Options{})
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		red, err := tla.Check(mk(symCfg), tla.Options{})
		if err != nil {
			t.Fatalf("%s symmetric: %v", name, err)
		}
		if 3*red.Distinct > 2*full.Distinct {
			t.Fatalf("%s: symmetry explored %d of %d states — less than the 1/3 cut three interchangeable nodes must give",
				name, red.Distinct, full.Distinct)
		}
		t.Logf("%s: %d states -> %d under symmetry (%.2fx)", name, full.Distinct, red.Distinct,
			float64(full.Distinct)/float64(red.Distinct))
	}
}

// TestSymmetryReductionSound is the property test that the reduction never
// changes what the checker concludes: over randomized small
// configurations — half of them carrying a symmetric tripwire invariant
// that some behaviour violates — checking with and without Symmetry must
// yield identical verdicts (clean vs violated, same invariant) and, for
// violations, identical shortest-counterexample lengths. Node relabelling
// inside the reported trace is the one permitted difference.
func TestSymmetryReductionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		cfg := Config{Nodes: 2 + rng.Intn(2), MaxTerm: 1 + rng.Intn(2), MaxLogLen: 1 + rng.Intn(2)}
		mk, variant := SpecV1, "V1"
		if rng.Intn(2) == 1 {
			mk, variant = SpecV2, "V2"
		}
		lim := 0 // 0 = no tripwire
		if rng.Intn(2) == 0 {
			lim = 1 + rng.Intn(cfg.MaxLogLen)
		}
		run := func(symmetric bool) (*tla.Result[State], error) {
			c := cfg
			c.Symmetric = symmetric
			spec := mk(c)
			if lim > 0 {
				// Symmetric over node ids by construction: it quantifies
				// over all oplogs.
				spec.Invariants = append(spec.Invariants, tla.Invariant[State]{
					Name: "OplogShorterThanLimit",
					Check: func(s State) error {
						for n, log := range s.Oplogs[:s.Nodes] {
							if log.Len() >= lim {
								return fmt.Errorf("node %d oplog reached length %d", n, log.Len())
							}
						}
						return nil
					},
				})
			}
			return tla.Check(spec, tla.Options{})
		}
		full, fullErr := run(false)
		red, redErr := run(true)
		desc := fmt.Sprintf("case %d (%s %+v, tripwire lim=%d)", i, variant, cfg, lim)
		if (fullErr == nil) != (redErr == nil) {
			t.Fatalf("%s: verdicts differ: full err=%v, symmetric err=%v", desc, fullErr, redErr)
		}
		if fullErr == nil {
			if red.Distinct > full.Distinct {
				t.Fatalf("%s: symmetry explored more states (%d > %d)", desc, red.Distinct, full.Distinct)
			}
			continue
		}
		fv, rv := full.Violation, red.Violation
		if fv == nil || rv == nil {
			t.Fatalf("%s: missing violation: full=%+v symmetric=%+v", desc, fv, rv)
		}
		if fv.Invariant != rv.Invariant {
			t.Fatalf("%s: violated invariants differ: %s vs %s", desc, fv.Invariant, rv.Invariant)
		}
		if len(fv.Trace) != len(rv.Trace) {
			t.Fatalf("%s: counterexample lengths differ: %d vs %d", desc, len(fv.Trace)-1, len(rv.Trace)-1)
		}
	}
}

// randomState builds a bounded random replica-set state for the visitor
// property test.
func randomState(rng *rand.Rand, nodes int) State {
	s := NewState(nodes)
	for i := 0; i < nodes; i++ {
		if rng.Intn(4) == 0 {
			s.Roles[i] = Leader
		}
		s.Terms[i] = int16(rng.Intn(4))
		if rng.Intn(2) == 0 {
			s.CommitPoints[i] = CommitPoint{Term: int16(1 + rng.Intn(3)), Index: int16(1 + rng.Intn(3))}
		}
		log := make([]int, rng.Intn(4))
		for j := range log {
			log[j] = 1 + rng.Intn(3)
		}
		s.Oplogs[i] = oplogOf(log...)
	}
	return s
}

// orbitMinimum is the brute-force oracle of symmetry reduction: the least
// encoding among s and its NodePermutations images.
func orbitMinimum(s State) []byte {
	least := s.AppendBinary(nil)
	for _, img := range NodePermutations(s) {
		if enc := img.AppendBinary(nil); bytes.Compare(enc, least) < 0 {
			least = enc
		}
	}
	return least
}

// assertVisitsOrbitMinimum applies v to s as the checker's codec does —
// keeping the least encoding among the visited states, s's own when none
// is visited — and requires the result to be the oracle's orbit minimum,
// reached by visiting exactly one state.
func assertVisitsOrbitMinimum(t *testing.T, v tla.OrbitVisitor[State], s State) {
	t.Helper()
	var got []byte
	visits := 0
	v(s, func(img State) {
		if enc := img.AppendBinary(nil); visits == 0 || bytes.Compare(enc, got) < 0 {
			got = enc
		}
		visits++
	})
	if visits != 1 {
		t.Fatalf("%s: NodeOrbits visited %d states, want exactly the representative", s.Key(), visits)
	}
	if want := orbitMinimum(s); !bytes.Equal(got, want) {
		t.Fatalf("%s: NodeOrbits visited %x, want the orbit minimum %x", s.Key(), got, want)
	}
}

// TestNodeOrbitsVisitOrbitMinimum: on randomized states of 2..5 nodes,
// the one state NodeOrbits visits has the least encoding in the orbit.
func TestNodeOrbitsVisitOrbitMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	visit := NodeOrbits()
	for i := 0; i < 300; i++ {
		assertVisitsOrbitMinimum(t, visit, randomState(rng, 2+rng.Intn(4)))
	}
}

// TestNodeOrbitsCanonicalExhaustive checks the sorted representative
// against the oracle on every state of unreduced V2 at (3,2,2), then the
// quotient the checker builds from it: a symmetric run must explore
// exactly one state of every orbit the unreduced space reaches.
func TestNodeOrbitsCanonicalExhaustive(t *testing.T) {
	cfg := Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	full, err := tla.Check(SpecV2(cfg), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Distinct != 30498 {
		t.Fatalf("unreduced V2 at (3,2,2) has %d states, want 30498", full.Distinct)
	}
	visit := NodeOrbits()
	orbits := map[string]bool{}
	for id := 0; id < full.Graph.Len(); id++ {
		s := full.Graph.StateAt(id)
		assertVisitsOrbitMinimum(t, visit, s)
		orbits[string(orbitMinimum(s))] = true
	}
	cfg.Symmetric = true
	red, err := tla.Check(SpecV2(cfg), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	if red.Graph.Len() != len(orbits) {
		t.Fatalf("symmetric run explored %d states, want one per orbit: %d", red.Graph.Len(), len(orbits))
	}
	for id := 0; id < red.Graph.Len(); id++ {
		least := string(orbitMinimum(red.Graph.StateAt(id)))
		if !orbits[least] {
			t.Fatalf("symmetric run explored %s twice or outside the unreduced space", red.Graph.KeyAt(id))
		}
		delete(orbits, least)
	}
}

// FuzzNodeOrbitsCanonical checks NodeOrbits against the oracle on
// arbitrary states whose terms, commit points and oplog entries reach 128
// and beyond: there uvarint byte order and numeric order part ways, and
// only the byte order gives the least encoding.
func FuzzNodeOrbitsCanonical(f *testing.F) {
	f.Add([]byte{})
	// Two followers with terms 129 and 256: numerically in order, but
	// 256's uvarint (80 02) sorts before 129's (81 01).
	f.Add([]byte{1, 0, 5, 0, 0, 0, 0, 7, 0, 0, 0})
	// Three nodes tied up to their oplogs, which differ in an entry
	// beyond 127.
	f.Add([]byte{2, 1, 4, 4, 4, 2, 9, 8, 1, 4, 4, 4, 2, 8, 9, 1, 4, 4, 4, 1, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(5)
		// A small pool of values on both sides of each uvarint byte
		// boundary, so equal and near-equal fields across nodes are common.
		pool := []int16{0, 1, 2, 127, 128, 129, 255, 256, 16383, 16384, MaxValue}
		val := func() int16 { return pool[r.intn(len(pool))] }
		s := NewState(n)
		for i := 0; i < n; i++ {
			s.Roles[i] = Role(r.intn(2))
			s.Terms[i] = val()
			s.CommitPoints[i] = CommitPoint{Term: val(), Index: val()}
			log := make([]int, r.intn(4))
			for j := range log {
				log[j] = int(val())
			}
			s.Oplogs[i] = oplogOf(log...)
		}
		assertVisitsOrbitMinimum(t, NodeOrbits(), s)
	})
}

// TestCompareUvarintMatchesBytes: compareUvarint orders values exactly as
// bytes.Compare orders their uvarint encodings, across the byte
// boundaries where that order stops being numeric.
func TestCompareUvarintMatchesBytes(t *testing.T) {
	vals := []uint64{0, 1, 126, 127, 128, 129, 255, 256, 300, 16383, 16384, 16385, 1 << 21, 1<<63 + 5, ^uint64(0)}
	for _, a := range vals {
		for _, b := range vals {
			want := bytes.Compare(binary.AppendUvarint(nil, a), binary.AppendUvarint(nil, b))
			if got := compareUvarint(a, b); got != want {
				t.Errorf("compareUvarint(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestNodeOrbitsDoesNotAllocate pins the visitor's cost: sorting and
// building the representative allocate nothing, for a state already in
// order and for ones that are not, at three and at MaxNodes nodes.
func TestNodeOrbitsDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	visit := NodeOrbits()
	var sink State
	keep := func(s State) { sink = s }
	for _, s := range []State{
		{Nodes: 3, Roles: [MaxNodes]Role{Follower, Follower, Leader}, Terms: [MaxNodes]int16{1, 2, 2}, Oplogs: [MaxNodes]Oplog{oplogOf(1), oplogOf(1, 2), oplogOf(1, 2)}},
		{Nodes: 3, Roles: [MaxNodes]Role{Leader, Follower, Follower}, Terms: [MaxNodes]int16{2, 2, 1}, Oplogs: [MaxNodes]Oplog{oplogOf(1, 2), oplogOf(1, 2), oplogOf(1)}},
		{Nodes: 5, Terms: [MaxNodes]int16{3, 1, 2, 1, 3}, Oplogs: [MaxNodes]Oplog{oplogOf(1, 2, 3), oplogOf(1), oplogOf(1, 2), oplogOf(1), oplogOf(1, 2, 2)}},
	} {
		if got := testing.AllocsPerRun(100, func() { visit(s, keep) }); got != 0 {
			t.Errorf("%s: NodeOrbits allocates %.1f times per call", s.Key(), got)
		}
	}
	_ = sink
}
