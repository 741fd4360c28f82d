package locking

import (
	"bytes"
	"fmt"
	"strings"
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
	s := SpecState{N: uint8(n)}
	for a := range n {
		for lvl := 0; lvl < 3; lvl++ {
			s.Held[a][lvl] = int8(r.intn(5) - 1)
		}
	}
	return s
}

// assertEncodingAgreement checks that AppendBinary equality and value
// equality (==) both agree with Key equality on a and b.
func assertEncodingAgreement(t *testing.T, a, b SpecState) {
	t.Helper()
	binEq := bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
	keyEq := a.Key() == b.Key()
	if binEq != keyEq || (a == b) != keyEq {
		t.Fatalf("AppendBinary equality (%v) or == (%v) disagrees with Key equality (%v):\n a = %s\n b = %s",
			binEq, a == b, keyEq, a.Key(), b.Key())
	}
}

// assertAppendKey checks the key half of the State contract on s:
// AppendKey keeps its buffer's prefix and appends exactly Key's bytes,
// and those are the bytes fmt formats row by row.
func assertAppendKey(t *testing.T, s SpecState) {
	t.Helper()
	key := s.Key()
	const prefix = "prefix|"
	if got := s.AppendKey([]byte(prefix)); string(got) != prefix+key {
		t.Fatalf("AppendKey(%q) = %s, want the prefix and then Key() %s", prefix, got, key)
	}
	rows := make([]string, s.N)
	for i, h := range s.Held[:s.N] {
		rows[i] = fmt.Sprintf("%d,%d,%d", h[0], h[1], h[2])
	}
	if want := strings.Join(rows, "|"); key != want {
		t.Fatalf("Key() = %s, want %s", key, want)
	}
}

// assertPadded fails unless every row of s at index N and above is zero,
// which is what makes == on states agree with Key equality.
func assertPadded(t *testing.T, s SpecState) {
	t.Helper()
	for a := int(s.N); a < MaxActors; a++ {
		if s.Held[a] != [3]int8{} {
			t.Fatalf("state %s (N=%d) has non-zero padding row %d: %v", s.Key(), s.N, a, s.Held[a])
		}
	}
}

// FuzzDecodeBinaryRoundTrip enforces the tla.BinaryDecoder contract on the
// locking spec state, for 0..MaxActors actors: DecodeBinary∘AppendBinary
// is the identity on the value (so on Key()), works on a zero-value
// receiver, re-encodes byte-identically, and the decoded state shares no
// memory with the encoding buffer.
func FuzzDecodeBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 4, 3, 0, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	// MaxActors actors, then 24 and 27 holding bytes.
	f.Add(append([]byte{MaxActors}, bytes.Repeat([]byte{1, 2, 3}, MaxActors)...))
	f.Add(append([]byte{MaxActors}, bytes.Repeat([]byte{4, 0, 2}, MaxActors+1)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := r.intn(MaxActors + 1)
		s := specStateFrom(r, n)
		enc := s.AppendBinary(nil)
		dec, err := SpecState{}.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("DecodeBinary(%x): %v", enc, err)
		}
		if dec != s {
			t.Fatalf("decode round-trip: got %s, want %s", dec.Key(), s.Key())
		}
		assertPadded(t, dec)
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
// corrupt spilled or checkpointed segment would: it must never panic, must
// refuse an encoding of more than MaxActors actors, and must otherwise
// return an error or a zero-padded state that re-encodes to the input.
func FuzzDecodeBinaryArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0})
	f.Add([]byte{5, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 1, 2}, MaxActors))   // 24 bytes: MaxActors actors
	f.Add(bytes.Repeat([]byte{0, 1, 2}, MaxActors+1)) // 27 bytes: one actor too many
	f.Fuzz(func(t *testing.T, enc []byte) {
		s, err := (SpecState{}).DecodeBinary(enc)
		if len(enc) > 3*MaxActors && err == nil {
			t.Fatalf("DecodeBinary accepted %d bytes, more than MaxActors (%d) actors", len(enc), MaxActors)
		}
		if err != nil {
			return
		}
		assertPadded(t, s)
		_ = s.Key()
		if got := s.AppendBinary(nil); !bytes.Equal(got, enc) {
			t.Fatalf("DecodeBinary(%x) re-encodes to %x", enc, got)
		}
	})
}

// FuzzBinaryKeyAgreement enforces the tla.BinaryState contract on the
// locking spec state: byte-packed encodings are equal iff Key() strings
// are, and so are values under ==, on randomized (including unreachable)
// states and on a state rebuilt from its own encoding; each state's
// AppendKey is held to its Key (assertAppendKey).
func FuzzBinaryKeyAgreement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 4, 3, 0, 0, 1})
	f.Add([]byte{4, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := 1 + r.intn(4)
		a := specStateFrom(r, n)
		b := specStateFrom(r, n)
		assertAppendKey(t, a)
		assertAppendKey(t, b)
		assertEncodingAgreement(t, a, b)
		rebuilt, err := SpecState{}.DecodeBinary(a.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		assertEncodingAgreement(t, a, rebuilt)
	})
}
