package tla

import "bytes"

// BinaryState is the byte half of the State contract: a state appends a
// compact encoding of itself to a buffer, and that encoding is the state's
// identity wherever the checker compares states. The visited set
// fingerprints it (and, keyed, compares it on a fingerprint hit), symmetry
// reduction orders orbit images by it, the arena stores it, and trace
// checking dedups its frontier on it. Key() is the same identity as a human
// label: what the recorded Graph's KeyAt, printed counterexamples and a DOT
// dump show (the dump appends it through AppendKey, which writes the same
// bytes).
//
// The encoding must agree with Key(): for any two states of the same
// specification, bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) must
// hold if and only if a.Key() == b.Key(), and so if and only if
// bytes.Equal(a.AppendKey(nil), b.AppendKey(nil)). (Length-prefixed or
// self-delimiting fields make an encoding injective; the FuzzBinaryKeyAgreement
// targets in the spec packages enforce the equivalence on randomized
// states.) AppendBinary must append to buf and return the extended slice,
// allocating only when buf lacks capacity; like Key, it is called from
// multiple goroutines on distinct states and must not mutate shared state.
// State embeds it; the named interface remains for callers that hold a
// state as an any.
type BinaryState interface {
	AppendBinary(buf []byte) []byte
}

// BinaryDecoder is the optional inverse of BinaryState: a spec state that
// can reconstruct a state value from an encoding AppendBinary produced.
// Every bundled specification implements it. The retained-state arena
// (a run under Options.MemoryBudgetBytes or with checkpoints) requires it:
// counterexamples, checkpoint resume and the recorded state graph's states
// (see Graph) are all decoded from the stored encodings, and Check rejects
// the arena for a state that cannot decode.
//
// The contract mirrors BinaryState's: for every state s of the
// specification, DecodeBinary(s.AppendBinary(nil)) must return a state
// with s.Key() — decode∘encode is the identity on Key (the
// FuzzDecodeBinaryRoundTrip targets in the spec packages enforce this on
// randomized states). The receiver is a sample state of the same
// specification, supplied so decoders can recover configuration an
// encoding deliberately omits (a transformer, a node count); the engine
// rebinds the decoder to a real initial state before first use, but
// DecodeBinary must also behave on the zero-value receiver. An encoding
// that decodes to no state of the spec returns an error. The caller may
// reuse enc's backing array after the call returns, so the returned state
// must not alias it. Like Key and AppendBinary it is called from multiple
// goroutines on distinct inputs and must not mutate shared state.
type BinaryDecoder[S State] interface {
	DecodeBinary(enc []byte) (S, error)
}

// Permutations calls visit with every non-identity permutation of
// {0, …, n-1}, each exactly once (Heap's algorithm; (n!)-1 calls). perm is
// reused between calls; visit must not retain it. It is the brute-force
// enumeration of a symmetry orbit over fully interchangeable identities:
// the oracle a spec's OrbitVisitor is tested against, never the checker's
// hot path.
func Permutations(n int, visit func(perm []int)) {
	perm, c := make([]int, n), make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			visit(perm)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// codec is the state-encoding strategy of one checking run: how a state is
// turned into the byte string the visited set dedups on — its AppendBinary
// encoding, or under symmetry the least encoding across its orbit. It
// carries two scratch buffers (plus the worker's orbit visitor and one
// pre-bound visit closure) so the hot path allocates nothing once the
// buffers have grown to the state size; codecs are therefore per-goroutine
// (workers clone, and each clone gets its own visitor from the spec's
// factory).
type codec[S State] struct {
	dec        func([]byte) (S, error) // non-nil iff S implements BinaryDecoder
	symFactory func() OrbitVisitor[S]  // non-nil iff the spec declares symmetry; per-clone source of sym
	sym        OrbitVisitor[S]         // this goroutine's orbit visitor
	visit      func(S)                 // pre-bound orbit-minimization step, allocated once per codec
	visited    bool                    // visit has run since canonical began: a holds a candidate
	a          []byte                  // scratch: least encoding visited so far
	b          []byte                  // scratch: orbit-candidate encoding
}

// newCodec builds the codec for spec. The decoder is bound to the
// zero-value receiver here and rebound to a real initial state by
// bindDecoder before the engine first decodes — decoders that need
// configuration off the receiver (arrayot's transformer) get it then.
func newCodec[S State](spec *Spec[S]) *codec[S] {
	c := &codec[S]{symFactory: spec.SymmetryVisitor}
	var zero S
	c.bindDecoder(zero)
	c.bindOrbit()
	return c
}

// bindDecoder (re)binds the codec's decode function to sample's receiver,
// when S implements BinaryDecoder. The engines call it with a real initial
// state as soon as Init has run, so decoders see the run's configuration
// rather than the zero value.
func (c *codec[S]) bindDecoder(sample S) {
	if d, ok := any(sample).(BinaryDecoder[S]); ok {
		c.dec = d.DecodeBinary
	}
}

// bindOrbit instantiates this codec's visitor and the visit closure it
// feeds. Binding once here keeps canonical free of per-state closure
// allocations.
func (c *codec[S]) bindOrbit() {
	if c.symFactory == nil {
		return
	}
	c.sym = c.symFactory()
	c.visit = func(t S) {
		if !c.visited {
			c.a, c.visited = c.encode(t, c.a[:0]), true
			return
		}
		c.b = c.encode(t, c.b[:0])
		if bytes.Compare(c.b, c.a) < 0 {
			c.a, c.b = c.b, c.a
		}
	}
}

// clone returns a codec with fresh scratch buffers and its own orbit
// visitor, for use by another goroutine.
func (c *codec[S]) clone() *codec[S] {
	n := &codec[S]{dec: c.dec, symFactory: c.symFactory}
	n.bindOrbit()
	return n
}

// encode appends s's plain encoding to buf. The call goes through the type
// constraint, not an interface, so a value-shaped state is not boxed and
// encoding allocates only when buf lacks capacity.
func (c *codec[S]) encode(s S, buf []byte) []byte { return s.AppendBinary(buf) }

// canonical returns the encoding the visited set dedups s under: without
// symmetry, encode(s); with symmetry, the lexicographically smallest
// encoding across s's orbit — so every member of an orbit maps to the same
// fingerprint and the checker explores one representative per orbit, TLC's
// SYMMETRY reduction. Under symmetry only the states the visitor visits
// are encoded (the least encoding wins), so a visitor that hands over the
// orbit's representative alone costs one encode, as without symmetry; a
// visitor that visits nothing leaves s's own encoding. The result aliases
// the codec's scratch buffers and is valid only until the next canonical
// or encode call on this codec.
func (c *codec[S]) canonical(s S) []byte {
	c.visited = false
	if c.sym != nil {
		c.sym(s, c.visit)
	}
	if !c.visited {
		c.a = c.encode(s, c.a[:0])
	}
	return c.a
}

// appendCanonical appends canonical(s) to buf and returns the extended
// slice. Without symmetry the state appends itself to buf, with no scratch
// copy in between.
func (c *codec[S]) appendCanonical(s S, buf []byte) []byte {
	if c.sym == nil {
		return c.encode(s, buf)
	}
	return append(buf, c.canonical(s)...)
}

// key returns the encoding the visited set dedups a state under, given the
// plain encoding an arena stores for it: enc itself without symmetry, and
// with symmetry the canonical encoding of enc's decoded state, which then
// aliases the codec's scratch buffers as canonical's result does.
func (c *codec[S]) key(enc []byte) ([]byte, error) {
	if c.sym == nil {
		return enc, nil
	}
	s, err := c.dec(enc)
	if err != nil {
		return nil, err
	}
	return c.canonical(s), nil
}
