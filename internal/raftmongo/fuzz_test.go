package raftmongo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
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
// equality) must hold for any state the checker could ever be handed. One
// oplog in eight is long (up to 66 entries), so the list walks of AppendOplog,
// the codec and the orbit comparison run past the short logs of the
// bounded configurations.
func stateFrom(r *fuzzReader, n int) State {
	s := NewState(n)
	for i := 0; i < n; i++ {
		s.Roles[i] = Role(r.intn(2))
		s.Terms[i] = int16(r.intn(4))
		s.CommitPoints[i] = CommitPoint{Term: int16(r.intn(4)), Index: int16(r.intn(4))}
		logLen := r.intn(4)
		if r.intn(8) == 0 {
			logLen = 3 + r.intn(64)
		}
		log := make([]int, logLen)
		for j := range log {
			log[j] = r.intn(4)
		}
		s.Oplogs[i] = oplogOf(log...)
	}
	return s
}

// oplogOf returns the oplog holding terms, oldest first.
func oplogOf(terms ...int) Oplog {
	l, err := Oplog{}.Extend(terms)
	if err != nil {
		panic(err)
	}
	return l
}

// equalTerms reports whether l holds exactly terms.
func equalTerms(l Oplog, terms []int) bool { return slices.Equal(l.Terms(), terms) }

// deepCopy returns a copy of s that shares no oplog entry with it.
func deepCopy(s State) State {
	for i := range s.NumNodes() {
		s.Oplogs[i] = oplogOf(s.Oplogs[i].Terms()...)
	}
	return s
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

// assertAppendKey checks the key half of the State contract on s:
// AppendKey keeps its buffer's prefix and appends exactly Key's bytes,
// and those are the bytes fmt formats field by field.
func assertAppendKey(t *testing.T, s State) {
	t.Helper()
	key := s.Key()
	const prefix = "prefix|"
	if got := s.AppendKey([]byte(prefix)); string(got) != prefix+key {
		t.Fatalf("AppendKey(%q) = %s, want the prefix and then Key() %s", prefix, got, key)
	}
	nodes := make([]string, s.NumNodes())
	for i := range nodes {
		var terms []string
		for _, term := range s.Oplogs[i].Terms() {
			terms = append(terms, strconv.Itoa(term))
		}
		cp := "NULL"
		if c := s.CommitPoints[i]; !c.IsNull() {
			cp = fmt.Sprintf("%d.%d", c.Term, c.Index)
		}
		nodes[i] = fmt.Sprintf("%s,%d,%s,%s", s.Roles[i], s.Terms[i], cp, strings.Join(terms, "."))
	}
	if want := strings.Join(nodes, "|"); key != want {
		t.Fatalf("Key() = %s, want %s", key, want)
	}
}

// assertArenaRoundTrip pushes a state through the retained-state arena end
// to end: a one-state spec checked under a one-byte budget (so the
// encoding is spilled to disk and read back) whose invariant always fails,
// forcing the arena's counterexample decoding. The decoded state must be
// semantically identical to the original — encode → arena → decode ==
// original, riding the fuzz corpus.
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
	res, err := tla.Check(spec, tla.Options{Workers: 1, MemoryBudgetBytes: 1})
	if !errors.Is(err, tla.ErrInvariantViolated) {
		t.Fatalf("arena round-trip check err = %v, want the forced violation", err)
	}
	if len(res.Violation.Trace) != 1 || res.Violation.Trace[0].Key() != s.Key() {
		t.Fatalf("arena round-trip corrupted the state:\n got  %v\n want %s", res.Violation.Trace, s.Key())
	}
}

// codecSeeds are the fuzz seeds the codec targets share: the first byte
// picks the node count (1 + b%MaxNodes), so the last two draw four and
// five nodes, one of them with long oplogs.
var codecSeeds = [][]byte{
	{},
	{2, 1, 2, 0, 1, 2, 3, 0, 1},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	{3, 1, 3, 2, 1, 2, 1, 0, 1, 1, 2, 3, 0, 1, 2, 0, 3, 1, 2, 1, 1, 2},
	{4, 1, 2, 1, 3, 8, 2, 0, 1, 3, 3, 1, 2, 3, 0, 1, 3, 1, 1, 2, 3, 0, 2, 2, 2, 3, 40, 1, 0, 1, 1, 1, 3},
}

// FuzzDecodeBinaryRoundTrip enforces the tla.BinaryDecoder contract on the
// replica-set spec state: DecodeBinary∘AppendBinary is the identity on
// Key(), works on a zero-value receiver, re-encodes byte-identically, and
// the decoded state shares no memory with the encoding buffer (the arena
// reuses it).
func FuzzDecodeBinaryRoundTrip(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(MaxNodes)
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
// or a state whose Key and AppendBinary run, never panic. It must return
// an error exactly when the bytes hold more than MaxNodes nodes or a
// number above MaxValue (int16), both of which referenceDecode spots, and
// a state it returns must survive its own round trip.
func FuzzDecodeBinaryArbitrary(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add(seed)
		r := &fuzzReader{data: seed}
		f.Add(stateFrom(r, 1+r.intn(MaxNodes)).AppendBinary(nil))
	}
	six := NewState(MaxNodes).AppendBinary(nil)
	f.Add(append(six, 0, 0, 0, 0, 0))                                // a sixth node
	f.Add([]byte{0, 0x80, 0x80, 0x02, 0, 0, 0})                      // term 32768
	f.Add([]byte{1, 1, 0xff, 0xff, 0x01, 0, 0})                      // commit-point term 32767
	f.Add([]byte{1, 1, 1, 0x80, 0x80, 0x02, 0})                      // commit-point index 32768
	f.Add([]byte{0, 0, 0, 0, 2, 0xff, 0xff, 0x01, 0x80, 0x80, 0x02}) // entry 32768
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, enc []byte) {
		s, err := (State{}).DecodeBinary(enc)
		nodes, valid := referenceDecode(enc)
		if valid != (err == nil) {
			t.Fatalf("DecodeBinary(%x) err = %v, want valid=%v (%d nodes)", enc, err, valid, nodes)
		}
		if err != nil {
			return
		}
		again, err := (State{}).DecodeBinary(s.AppendBinary(nil))
		if s.NumNodes() != nodes || err != nil || again.Key() != s.Key() {
			t.Fatalf("DecodeBinary(%x) = %s (%d nodes, want %d), which round-trips to %s, %v", enc, s.Key(), s.NumNodes(), nodes, again.Key(), err)
		}
	})
}

// referenceDecode walks enc as a sequence of node records the plain way —
// role byte, four uvarints, then as many uvarint entries as the last said
// — and reports the node count and whether the encoding is one a State can
// hold: well-formed, at most MaxNodes nodes, every number at most MaxValue.
func referenceDecode(enc []byte) (nodes int, ok bool) {
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(enc)
		if k <= 0 {
			return 0, false
		}
		enc = enc[k:]
		return v, v <= MaxValue
	}
	for ; len(enc) > 0; nodes++ {
		if enc[0] > byte(Leader) || nodes == MaxNodes {
			return nodes, false
		}
		enc = enc[1:]
		var logLen uint64
		for range 4 {
			v, ok := next()
			if !ok {
				return nodes, false
			}
			logLen = v
		}
		for range logLen {
			if _, ok := next(); !ok {
				return nodes, false
			}
		}
	}
	return nodes, true
}

// FuzzBinaryKeyAgreement enforces the tla.BinaryState contract on the
// replica-set spec state: for any two states, the byte-packed encodings
// are equal if and only if the canonical Key() strings are. A violation
// means the checker's fast path merges (or splits) states the semantic
// identity would not — exactly the silent-wrong-answer class of bug the
// fuzzer exists to catch. The same corpus feeds the retained-state
// arena's round-trip property and the successor immutability check
// (TestSuccessorsNeverMutate), and each state's AppendKey is held to its
// Key (assertAppendKey).
func FuzzBinaryKeyAgreement(f *testing.F) {
	for _, seed := range codecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(MaxNodes)
		a := stateFrom(r, n)
		b := stateFrom(r, n)
		assertAppendKey(t, a)
		assertAppendKey(t, b)
		assertEncodingAgreement(t, a, b)
		// The equal direction, on distinct oplog entries: a deep copy
		// must encode identically under both schemes.
		assertEncodingAgreement(t, a, deepCopy(a))
		assertArenaRoundTrip(t, a)
		assertSuccessorsNeverMutate(t, bothSpecs(Config{Nodes: n, MaxTerm: 3, MaxLogLen: 3}), a)
	})
}
