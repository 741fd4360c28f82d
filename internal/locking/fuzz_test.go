package locking

import (
	"bytes"
	"testing"
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

// specStateFrom decodes an arbitrary n-actor state: each holding is -1
// (empty) or one of the four modes, with no discipline constraints — the
// encoding contract must hold for unreachable states too.
func specStateFrom(r *fuzzReader, n int) SpecState {
	held := make([][3]int8, n)
	for a := range held {
		for lvl := 0; lvl < 3; lvl++ {
			held[a][lvl] = int8(r.intn(5) - 1)
		}
	}
	return SpecState{Held: held}
}

func assertEncodingAgreement(t *testing.T, a, b SpecState) {
	t.Helper()
	binEq := bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
	keyEq := a.Key() == b.Key()
	if binEq != keyEq {
		t.Fatalf("AppendBinary equality (%v) disagrees with Key equality (%v):\n a = %s\n b = %s",
			binEq, keyEq, a.Key(), b.Key())
	}
}

// FuzzDecodeBinaryRoundTrip enforces the tla.BinaryDecoder contract on the
// locking spec state: DecodeBinary∘AppendBinary is the identity on Key(),
// works on a zero-value receiver, re-encodes byte-identically, and the
// decoded state shares no memory with the encoding buffer.
func FuzzDecodeBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 4, 3, 0, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(4)
		s := specStateFrom(r, n)
		enc := s.AppendBinary(nil)
		dec, err := SpecState{}.DecodeBinary(enc)
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
			enc[i] = 0
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
	f.Add([]byte{0, 1, 2, 3, 4, 0})
	f.Add([]byte{5, 0, 0})
	f.Fuzz(func(t *testing.T, enc []byte) {
		if s, err := (SpecState{}).DecodeBinary(enc); err == nil {
			_ = s.Key()
			_ = s.AppendBinary(nil)
		}
	})
}

// FuzzBinaryKeyAgreement enforces the tla.BinaryState contract on the
// locking spec state: byte-packed encodings are equal iff Key() strings
// are, on randomized (including unreachable) states.
func FuzzBinaryKeyAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 4, 3, 0, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(4)
		a := specStateFrom(r, n)
		b := specStateFrom(r, n)
		assertEncodingAgreement(t, a, b)
		assertEncodingAgreement(t, a, a.clone())
	})
}
