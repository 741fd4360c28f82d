package arrayot

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/ot"
	"repro/internal/tla"
)

// walk drives the array_ot specification through the given action choices
// and returns the state reached. Identical choice sequences reach
// structurally equal states backed by distinct Networks — which is what
// makes the equal direction of the encoding contract testable.
func walk(choices []byte) State {
	cfg := Config{Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 1, Transformer: ot.NewTransformer(nil, false)}
	spec := Spec(cfg)
	s := spec.Init()[0]
	for _, c := range choices {
		var succs []State
		for _, a := range spec.Actions {
			succs = append(succs, a.Next(s)...)
		}
		if len(succs) == 0 {
			break
		}
		s = succs[int(c)%len(succs)]
	}
	return s
}

// FuzzDecodeBinaryRoundTrip enforces the tla.BinaryDecoder contract on
// reachable array_ot states: DecodeBinary∘AppendBinary is the identity on
// Key(), both on a zero-value receiver (transformer recovered from the
// reference fallback, which is also what walk's deployment uses) and on a
// sample-state receiver, and the decoded state re-encodes byte-identically.
func FuzzDecodeBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{5, 9, 0, 2, 7, 16, 3, 3, 1})
	f.Fuzz(func(t *testing.T, choices []byte) {
		if len(choices) > 8 {
			choices = choices[:8]
		}
		s := walk(choices)
		enc := s.AppendBinary(nil)
		for _, recv := range []struct {
			name   string
			sample State
		}{{"zero", State{}}, {"sample", s}} {
			dec, err := recv.sample.DecodeBinary(enc)
			if err != nil {
				t.Fatalf("%s receiver: DecodeBinary: %v", recv.name, err)
			}
			if dec.Key() != s.Key() {
				t.Fatalf("%s receiver: decode round-trip:\n got  %s\n want %s", recv.name, dec.Key(), s.Key())
			}
			if !bytes.Equal(dec.AppendBinary(nil), enc) {
				t.Fatalf("%s receiver: re-encoding diverged from the original", recv.name)
			}
		}
	})
}

// corruptClientCount is a ten-byte encoding whose client count is a
// uvarint of about 2.9·10¹¹: sized from it, the deployment's slices
// exhausted memory before the first client was read.
var corruptClientCount = []byte("\x00\x00\xa0\xc1\x9d\xcfbQ\xad\x86")

// FuzzDecodeBinaryArbitrary feeds DecodeBinary arbitrary bytes, as a
// corrupt spilled or checkpointed segment would: it must return an error
// or a state whose Key and AppendBinary run, never panic or exhaust
// memory.
func FuzzDecodeBinaryArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add(walk([]byte{0, 1, 2, 3}).AppendBinary(nil))
	f.Add(corruptClientCount)
	f.Fuzz(func(t *testing.T, enc []byte) {
		if s, err := (State{}).DecodeBinary(enc); err == nil {
			_ = s.Key()
			_ = s.AppendBinary(nil)
		}
	})
}

// TestDecodeBinaryRejectsCorruptClientCount pins the bound on the client
// count: the corrupt prefix is an error, not an allocation.
func TestDecodeBinaryRejectsCorruptClientCount(t *testing.T) {
	if _, err := (State{}).DecodeBinary(corruptClientCount); err == nil {
		t.Fatal("DecodeBinary accepted a client count larger than its input")
	}
}

// FuzzBinaryKeyAgreement enforces the tla.BinaryState contract on
// reachable array_ot states: the byte-packed encoding and the JSON Key()
// must induce the same equality, and Key() must be byte-identical to
// json.Marshal of the state's dto and decode back through ParseKey.
// States are generated by random walks through the specification itself,
// so every log, progress vector and merge outcome the checker can
// encounter is in scope.
func FuzzBinaryKeyAgreement(f *testing.F) {
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0, 1, 2, 3}, []byte{0, 1, 2, 3})
	f.Add([]byte{5, 9, 0, 2, 7}, []byte{16, 3, 3, 1})
	f.Fuzz(func(t *testing.T, c1, c2 []byte) {
		if len(c1) > 8 {
			c1 = c1[:8]
		}
		if len(c2) > 8 {
			c2 = c2[:8]
		}
		a, a2 := walk(c1), walk(c1)
		b := walk(c2)
		checkKey(t, a)
		checkKey(t, b)
		// Replaying the same choices must reach the same state under both
		// encodings.
		if !bytes.Equal(a.AppendBinary(nil), a2.AppendBinary(nil)) || a.Key() != a2.Key() {
			t.Fatalf("replayed walk diverged:\n a  = %s\n a2 = %s", a.Key(), a2.Key())
		}
		binEq := bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
		keyEq := a.Key() == b.Key()
		if binEq != keyEq {
			t.Fatalf("AppendBinary equality (%v) disagrees with Key equality (%v):\n a = %s\n b = %s",
				binEq, keyEq, a.Key(), b.Key())
		}
		// Arena round-trip on the same corpus: a one-state spec checked
		// under a one-byte budget spills the encoding to disk and decodes
		// the counterexample back — the decoded state must be
		// semantically identical to the original.
		spec := &tla.Spec[State]{
			Name: "arena-round-trip",
			Init: func() []State { return []State{a} },
			Invariants: []tla.Invariant[State]{{
				Name:  "AlwaysFails",
				Check: func(State) error { return errors.New("retrieve the trace") },
			}},
		}
		res, err := tla.Check(spec, tla.Options{Workers: 1, MemoryBudgetBytes: 1})
		if !errors.Is(err, tla.ErrInvariantViolated) {
			t.Fatalf("arena round-trip check err = %v, want the forced violation", err)
		}
		if len(res.Violation.Trace) != 1 || res.Violation.Trace[0].Key() != a.Key() {
			t.Fatalf("arena round-trip corrupted the state:\n got  %v\n want %s", res.Violation.Trace, a.Key())
		}
	})
}
