package tla

import "bytes"

// BinaryState is the optional fast path of the checker's deduplication: a
// spec state that can append a compact byte encoding of itself to a buffer.
// When a specification's state type implements BinaryState, the checker
// fingerprints (and, in collision-free mode, dedups) the byte encoding
// directly, bypassing Key() string construction entirely on the hot path —
// the allocation-heavy fmt/sort work every Key() implementation pays per
// successor. Key() remains the semantic identity: it is still what the
// recorded Graph carries, what counterexamples print, and what a DOT dump
// labels its nodes with.
//
// The encoding must agree with Key(): for any two states of the same
// specification, bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil)) must
// hold if and only if a.Key() == b.Key(). (Length-prefixed or
// self-delimiting fields make an encoding injective; the FuzzBinaryKeyAgreement
// targets in the spec packages enforce the equivalence on randomized
// states.) AppendBinary must append to buf and return the extended slice,
// allocating only when buf lacks capacity; like Key, it is called from
// multiple goroutines on distinct states and must not mutate shared state.
type BinaryState interface {
	AppendBinary(buf []byte) []byte
}

// BinaryDecoder is the optional inverse of BinaryState: a spec state that
// can reconstruct a state value from an encoding AppendBinary produced.
// The retained-state arena (Options.StateArena, implied by checkpointing)
// requires it alongside BinaryState: counterexamples, checkpoint resume and
// the recorded state graph's states (see Graph) are all decoded from the
// stored encodings, and Check rejects the arena for a state that cannot
// decode.
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

// Permuter enumerates non-identity permutations, reusing its internal
// buffers across calls: the per-enumeration allocations of the plain
// Permutations function, amortized to zero. An OrbitVisitor closure keeps
// one Permuter next to its scratch state — a Permuter, like the visitor
// owning it, must not be shared between goroutines. The zero value is
// ready to use.
type Permuter struct {
	perm, c []int
}

// Visit calls visit with every non-identity permutation of {0, …, n-1},
// each exactly once (Heap's algorithm; (n!)-1 calls). perm is reused
// between calls and enumerations; visit must not retain it.
func (p *Permuter) Visit(n int, visit func(perm []int)) {
	if cap(p.perm) < n {
		p.perm = make([]int, n)
		p.c = make([]int, n)
	}
	perm, c := p.perm[:n], p.c[:n]
	for i := range perm {
		perm[i] = i
		c[i] = 0
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

// Permutations calls visit with every non-identity permutation of
// {0, …, n-1}, each exactly once. It is the enumeration under every
// symmetry orbit over fully interchangeable identities: a spec maps each
// permutation to the state with its identity-indexed variables relabelled.
// It allocates its scratch per call — orbit visitors on the checker's hot
// path hold a Permuter instead.
func Permutations(n int, visit func(perm []int)) {
	var p Permuter
	p.Visit(n, visit)
}

// codec is the state-encoding strategy of one checking run: how a state is
// turned into the byte string the visited set dedups on. It carries two
// scratch buffers and the state slot its encoder is bound to (plus the
// worker's orbit enumerator and one pre-bound visit closure) so the hot
// path allocates nothing once the buffers have grown to the state size;
// codecs are therefore per-goroutine (workers clone, and each clone gets
// its own slot and its own enumerator from the spec's factory).
type codec[S State] struct {
	bin        BinaryState             // non-nil iff S implements BinaryState; see bindBinary
	slot       *S                      // the state bin encodes, when bin is bound through a pointer
	dec        func([]byte) (S, error) // non-nil iff S also implements BinaryDecoder
	symFactory func() OrbitVisitor[S]  // non-nil iff the spec declares symmetry; per-clone source of sym
	sym        OrbitVisitor[S]         // this goroutine's orbit enumerator
	visit      func(S)                 // pre-bound orbit-minimization step, allocated once per codec
	a          []byte                  // scratch: current canonical (orbit-minimal) encoding
	b          []byte                  // scratch: orbit-candidate encoding
}

// newCodec builds the codec for spec under opts. The BinaryState check is
// performed once, when bindBinary binds the encoder. The decoder is bound
// to the zero-value receiver here and rebound to a real initial state by
// bindDecoder before the engine first decodes — decoders that need
// configuration off the receiver (arrayot's transformer) get it then.
func newCodec[S State](spec *Spec[S]) *codec[S] {
	c := &codec[S]{symFactory: spec.SymmetryVisitor}
	c.bindBinary()
	var zero S
	c.bindDecoder(zero)
	c.bindOrbit()
	return c
}

// bindBinary binds this codec's AppendBinary, when S implements
// BinaryState. Converting a state value to an interface allocates unless S
// is pointer-shaped, so the encoder is bound once to a pointer to a
// per-codec slot (a pointer's method set includes the value methods):
// encode copies the state into the slot and encodes through it, allocating
// nothing. Only when *S has no such method — S is itself a pointer type,
// whose interface conversion is free — is each state converted directly.
func (c *codec[S]) bindBinary() {
	slot := new(S)
	if b, ok := any(slot).(BinaryState); ok {
		c.bin, c.slot = b, slot
		return
	}
	if b, ok := any(*slot).(BinaryState); ok {
		c.bin = b
	}
}

// bindDecoder (re)binds the codec's decode function to sample's receiver,
// when S implements BinaryDecoder. The engines call it with a real initial
// state as soon as Init has run, so decoders see the run's configuration
// rather than the zero value.
func (c *codec[S]) bindDecoder(sample S) {
	if c.bin == nil {
		return
	}
	if d, ok := any(sample).(BinaryDecoder[S]); ok {
		c.dec = d.DecodeBinary
	}
}

// bindOrbit instantiates this codec's enumerator and the visit closure it
// feeds. Binding once here keeps canonical free of per-state closure
// allocations.
func (c *codec[S]) bindOrbit() {
	if c.symFactory == nil {
		return
	}
	c.sym = c.symFactory()
	c.visit = func(t S) {
		c.b = c.encode(t, c.b[:0])
		if bytes.Compare(c.b, c.a) < 0 {
			c.a, c.b = c.b, c.a
		}
	}
}

// clone returns a codec with fresh scratch buffers, its own encoder slot
// and its own orbit enumerator, for use by another goroutine.
func (c *codec[S]) clone() *codec[S] {
	n := &codec[S]{dec: c.dec, symFactory: c.symFactory}
	n.bindBinary()
	n.bindOrbit()
	return n
}

// encode appends the dedup encoding of s to buf: the byte-packed encoding
// on the fast path, the Key() bytes otherwise. The slot is zeroed after
// use so the codec does not keep the last state it encoded alive.
func (c *codec[S]) encode(s S, buf []byte) []byte {
	switch {
	case c.slot != nil:
		*c.slot = s
		buf = c.bin.AppendBinary(buf)
		var zero S
		*c.slot = zero
		return buf
	case c.bin != nil:
		return any(s).(BinaryState).AppendBinary(buf)
	}
	return append(buf, s.Key()...)
}

// canonical returns the encoding the visited set dedups s under: without
// symmetry, encode(s); with symmetry, the lexicographically smallest
// encoding across s's orbit — so every member of an orbit maps to the same
// fingerprint and the checker explores one representative per orbit, TLC's
// SYMMETRY reduction. The result aliases the codec's scratch buffers and is
// valid only until the next canonical or encode call on this codec.
func (c *codec[S]) canonical(s S) []byte {
	c.a = c.encode(s, c.a[:0])
	if c.sym == nil {
		return c.a
	}
	c.sym(s, c.visit)
	return c.a
}
