package raftmongo

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/tla"
)

// fuzzReader doles out bytes from the fuzz input, returning zeros once the
// input is exhausted, so every input decodes to some state.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.next()) % n }

// stateFrom decodes an arbitrary n-node state — not necessarily reachable,
// which is the point: the BinaryState contract (encoding equality iff Key
// equality) must hold for any state the checker could ever be handed.
func stateFrom(r *fuzzReader, n int) State {
	s := State{
		Roles:        make([]Role, n),
		Terms:        make([]int, n),
		CommitPoints: make([]CommitPoint, n),
		Oplogs:       make([][]int, n),
	}
	for i := 0; i < n; i++ {
		s.Roles[i] = Role(r.intn(2))
		s.Terms[i] = r.intn(4)
		s.CommitPoints[i] = CommitPoint{Term: r.intn(4), Index: r.intn(4)}
		log := make([]int, r.intn(4))
		for j := range log {
			log[j] = r.intn(4)
		}
		s.Oplogs[i] = log
	}
	return s
}

// deepCopy returns a copy of s that shares no backing array with it and
// whose oplogs have no spare capacity.
func deepCopy(s State) State {
	c := State{
		Roles:        slices.Clone(s.Roles),
		Terms:        slices.Clone(s.Terms),
		CommitPoints: slices.Clone(s.CommitPoints),
		Oplogs:       make([][]int, len(s.Oplogs)),
	}
	for i, log := range s.Oplogs {
		c.Oplogs[i] = make([]int, len(log))
		copy(c.Oplogs[i], log)
	}
	return c
}

func assertEncodingAgreement(t *testing.T, a, b State) {
	t.Helper()
	binEq := bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
	keyEq := a.Key() == b.Key()
	if binEq != keyEq {
		t.Fatalf("AppendBinary equality (%v) disagrees with Key equality (%v):\n a = %s\n b = %s",
			binEq, keyEq, a.Key(), b.Key())
	}
}

// assertArenaRoundTrip pushes a state through the retained-state arena end
// to end: a one-state spec checked under Options.StateArena (with a
// one-byte budget, so the encoding is spilled to disk and read back) whose
// invariant always fails, forcing the arena's counterexample decoding. The
// decoded state must be semantically identical to the original — encode →
// arena → decode == original, riding the fuzz corpus.
func assertArenaRoundTrip(t *testing.T, s State) {
	t.Helper()
	spec := &tla.Spec[State]{
		Name: "arena-round-trip",
		Init: func() []State { return []State{s} },
		Invariants: []tla.Invariant[State]{{
			Name:  "AlwaysFails",
			Check: func(State) error { return errors.New("retrieve the trace") },
		}},
	}
	res, err := tla.Check(spec, tla.Options{Workers: 1, StateArena: true, MemoryBudgetBytes: 1})
	if !errors.Is(err, tla.ErrInvariantViolated) {
		t.Fatalf("arena round-trip check err = %v, want the forced violation", err)
	}
	if len(res.Violation.Trace) != 1 || res.Violation.Trace[0].Key() != s.Key() {
		t.Fatalf("arena round-trip corrupted the state:\n got  %v\n want %s", res.Violation.Trace, s.Key())
	}
}

// FuzzDecodeBinaryRoundTrip enforces the tla.BinaryDecoder contract on the
// replica-set spec state: DecodeBinary∘AppendBinary is the identity on
// Key(), works on a zero-value receiver, re-encodes byte-identically, and
// the decoded state shares no memory with the encoding buffer (the arena
// reuses it).
func FuzzDecodeBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(3)
		s := stateFrom(r, n)
		enc := s.AppendBinary(nil)
		dec, err := State{}.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("DecodeBinary(%x): %v", enc, err)
		}
		if dec.Key() != s.Key() {
			t.Fatalf("decode round-trip: got %s, want %s", dec.Key(), s.Key())
		}
		if !bytes.Equal(dec.AppendBinary(nil), enc) {
			t.Fatalf("re-encoding diverged from the original")
		}
		for i := range enc {
			enc[i] = 0xff
		}
		if dec.Key() != s.Key() {
			t.Fatalf("decoded state aliases the encoding buffer")
		}
	})
}

// FuzzDecodeBinaryArbitrary feeds DecodeBinary arbitrary bytes, as a
// corrupt spilled or checkpointed segment would: it must return an error
// or a state whose Key and AppendBinary run, never panic.
func FuzzDecodeBinaryArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add(stateFrom(&fuzzReader{data: []byte{3, 1, 2, 0, 1, 2, 3, 0, 1}}, 3).AppendBinary(nil))
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, enc []byte) {
		if s, err := (State{}).DecodeBinary(enc); err == nil {
			_ = s.Key()
			_ = s.AppendBinary(nil)
		}
	})
}

// FuzzBinaryKeyAgreement enforces the tla.BinaryState contract on the
// replica-set spec state: for any two states, the byte-packed encodings
// are equal if and only if the canonical Key() strings are. A violation
// means the checker's fast path merges (or splits) states the semantic
// identity would not — exactly the silent-wrong-answer class of bug the
// fuzzer exists to catch. The same corpus feeds the retained-state
// arena's round-trip property and the successor immutability check
// (TestSuccessorsNeverMutate).
func FuzzBinaryKeyAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(3)
		a := stateFrom(r, n)
		b := stateFrom(r, n)
		assertEncodingAgreement(t, a, b)
		// The equal direction, on distinct backing arrays: a deep copy
		// must encode identically under both schemes.
		assertEncodingAgreement(t, a, deepCopy(a))
		assertArenaRoundTrip(t, a)
		specs := bothSpecs(Config{Nodes: n, MaxTerm: 3, MaxLogLen: 3})
		assertSuccessorsNeverMutate(t, specs, a)
		assertSuccessorsNeverMutate(t, specs, withSpareCapacity(a))
	})
}
