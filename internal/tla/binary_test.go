package tla

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/race"
)

// binState is a two-counter state implementing BinaryState. The encoding
// is fixed-width big-endian, so lexicographic comparison of encodings
// matches numeric (A, B) comparison — which makes the orbit-minimal
// assertions below exact.
type binState struct{ A, B uint16 }

func (s binState) Key() string { return fmt.Sprintf("%d/%d", s.A, s.B) }

func (s binState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s binState) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, s.A)
	return binary.BigEndian.AppendUint16(buf, s.B)
}

func (s binState) DecodeBinary(enc []byte) (binState, error) {
	if len(enc) != 4 {
		return binState{}, fmt.Errorf("binState: decode: length %d, want 4", len(enc))
	}
	return binState{A: binary.BigEndian.Uint16(enc), B: binary.BigEndian.Uint16(enc[2:])}, nil
}

// swapOrbit declares the two counters interchangeable: the orbit of s
// under the only non-identity permutation of {A, B}, as freshly allocated
// images — the materializing baseline the scratch-reusing visitor is
// compared against.
func swapOrbit(s binState) []binState { return []binState{{A: s.B, B: s.A}} }

// materializeOrbit adapts a materializing orbit function into the visitor
// API — the shape the removed Spec.Symmetry adapter had, kept in tests as
// the reference semantics. It visits s and every image, so the visited
// set contains the orbit's representative whichever member that is.
func materializeOrbit(orbit func(binState) []binState) func() OrbitVisitor[binState] {
	return func() OrbitVisitor[binState] {
		return func(s binState, visit func(binState)) {
			visit(s)
			for _, t := range orbit(s) {
				visit(t)
			}
		}
	}
}

// swapOrbits is the visitor-shaped equivalent of swapOrbit: s, then its
// image built in one scratch state reused across calls.
func swapOrbits() OrbitVisitor[binState] {
	var scratch binState
	return func(s binState, visit func(binState)) {
		visit(s)
		scratch.A, scratch.B = s.B, s.A
		visit(scratch)
	}
}

// binSpec is a two-dimensional counter walk, symmetric in its counters:
// from (a, b) either counter may be incremented up to max. The symmetric
// variant declares it through the materializing orbit wrapper;
// binSpecVisitor declares the same symmetry through the scratch-reusing
// canonicalizer API.
func binSpec(max uint16, symmetric bool) *Spec[binState] {
	spec := &Spec[binState]{
		Name: "bincounter",
		Init: func() []binState { return []binState{{}} },
		Actions: []Action[binState]{
			{Name: "IncA", Next: func(s binState) []binState {
				if s.A >= max {
					return nil
				}
				return []binState{{A: s.A + 1, B: s.B}}
			}},
			{Name: "IncB", Next: func(s binState) []binState {
				if s.B >= max {
					return nil
				}
				return []binState{{A: s.A, B: s.B + 1}}
			}},
		},
	}
	if symmetric {
		spec.SymmetryVisitor = materializeOrbit(swapOrbit)
	}
	return spec
}

func binSpecVisitor(max uint16) *Spec[binState] {
	spec := binSpec(max, false)
	spec.SymmetryVisitor = swapOrbits
	return spec
}

// TestSymmetryVisitorMatchesMaterializingOrbit pins the canonicalizer
// contract: the scratch-reusing visitor and a materializing orbit
// enumeration quotient the space identically — same counters, same graph,
// same counterexample — at every worker count.
func TestSymmetryVisitorMatchesMaterializingOrbit(t *testing.T) {
	mk := func(visitor bool) *Spec[binState] {
		spec := binSpec(25, !visitor)
		if visitor {
			spec.SymmetryVisitor = swapOrbits
		}
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow40",
			Check: func(s binState) error {
				if int(s.A)+int(s.B) >= 40 {
					return errors.New("sum reached 40")
				}
				return nil
			},
		}}
		return spec
	}
	for _, w := range []int{1, 4} {
		opts := Options{RecordGraph: true, Workers: w}
		want, wantErr := Check(mk(false), opts)
		got, gotErr := Check(mk(true), opts)
		assertResultsEqual(t, fmt.Sprintf("visitor-vs-orbit/workers=%d", w), want, got, wantErr, gotErr)
	}
}

// TestPermutations pins the oracle's orbit enumeration: (n!)-1 distinct
// non-identity permutations, each visited exactly once.
func TestPermutations(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 5, 4: 23} {
		seen := map[string]bool{}
		Permutations(n, func(perm []int) {
			if len(perm) != n {
				t.Fatalf("n=%d: perm length %d", n, len(perm))
			}
			identity := true
			for i, p := range perm {
				if p != i {
					identity = false
				}
			}
			if identity {
				t.Fatalf("n=%d: identity visited", n)
			}
			k := fmt.Sprint(perm)
			if seen[k] {
				t.Fatalf("n=%d: permutation %s visited twice", n, k)
			}
			seen[k] = true
		})
		if len(seen) != want {
			t.Fatalf("n=%d: visited %d permutations, want %d", n, len(seen), want)
		}
	}
}

// TestCodecSelectsBinaryPath pins the codec's one encoding path: a
// value-shaped and a pointer-shaped state are both encoded by their own
// AppendBinary.
func TestCodecSelectsBinaryPath(t *testing.T) {
	s := binState{A: 300, B: 7}
	if !bytes.Equal(newCodec(binSpec(5, false)).encode(s, nil), s.AppendBinary(nil)) {
		t.Fatal("value codec does not encode via AppendBinary")
	}
	if !bytes.Equal(newCodec(&Spec[*ptrState]{}).encode(&ptrState{s}, nil), s.AppendBinary(nil)) {
		t.Fatal("pointer codec does not encode via AppendBinary")
	}
}

// ptrState is a state whose methods have pointer receivers, so the spec's
// state type is *ptrState. It has no decoder.
type ptrState struct{ s binState }

func (p *ptrState) Key() string                    { return p.s.Key() }
func (p *ptrState) AppendKey(dst []byte) []byte    { return p.s.AppendKey(dst) }
func (p *ptrState) AppendBinary(buf []byte) []byte { return p.s.AppendBinary(buf) }

// ptrSwapOrbits is swapOrbits for *ptrState.
func ptrSwapOrbits() OrbitVisitor[*ptrState] {
	scratch := &ptrState{}
	return func(p *ptrState, visit func(*ptrState)) {
		visit(p)
		scratch.s.A, scratch.s.B = p.s.B, p.s.A
		visit(scratch)
	}
}

// TestEncodeDoesNotAllocate pins the codec's allocation contract: once its
// scratch buffers have grown, encoding a state and canonicalizing it, with
// and without symmetry, allocates nothing — for a value-shaped state
// (binState, which Go could not box without allocating: it is 4 bytes and
// its counters exceed 255) as for a pointer-shaped one. The codec calls
// AppendBinary through the type constraint, never through an interface.
func TestEncodeDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	s := binState{A: 300, B: 700}
	for name, c := range map[string]*codec[binState]{
		"value/plain":     newCodec(binSpec(5, false)),
		"value/symmetric": newCodec(binSpecVisitor(5)),
		"value/clone":     newCodec(binSpecVisitor(5)).clone(),
	} {
		assertEncodeAllocsNothing(t, name, c, s)
	}
	ptrSym := &Spec[*ptrState]{SymmetryVisitor: ptrSwapOrbits}
	for name, c := range map[string]*codec[*ptrState]{
		"pointer/plain":     newCodec(&Spec[*ptrState]{}),
		"pointer/symmetric": newCodec(ptrSym),
		"pointer/clone":     newCodec(ptrSym).clone(),
	} {
		assertEncodeAllocsNothing(t, name, c, &ptrState{s})
	}
}

// assertEncodeAllocsNothing warms c on s, then requires encode and
// canonical of s to allocate nothing.
func assertEncodeAllocsNothing[S State](t *testing.T, name string, c *codec[S], s S) {
	t.Helper()
	var buf []byte
	c.canonical(s) // grow the scratch buffers
	if got := testing.AllocsPerRun(100, func() { buf = c.encode(s, buf[:0]) }); got != 0 {
		t.Errorf("%s: encode allocates %.1f times per call", name, got)
	}
	if got := testing.AllocsPerRun(100, func() { c.canonical(s) }); got != 0 {
		t.Errorf("%s: canonical allocates %.1f times per call", name, got)
	}
}

// TestCanonicalIsOrbitMinimal pins the symmetry canonicalization: every
// member of an orbit maps to the lexicographically smallest encoding in
// the orbit, including through a cloned (fresh-scratch) codec.
func TestCanonicalIsOrbitMinimal(t *testing.T) {
	c := newCodec(binSpec(5, true))
	hi := binState{A: 9, B: 2}
	lo := binState{A: 2, B: 9}
	want := lo.AppendBinary(nil)
	if got := c.canonical(hi); !bytes.Equal(got, want) {
		t.Fatalf("canonical(%v) = %x, want the orbit minimum %x", hi, got, want)
	}
	e1 := append([]byte(nil), c.canonical(hi)...)
	e2 := append([]byte(nil), c.canonical(lo)...)
	if !bytes.Equal(e1, e2) {
		t.Fatalf("orbit members canonicalize differently: %x vs %x", e1, e2)
	}
	if got := c.clone().canonical(hi); !bytes.Equal(got, want) {
		t.Fatalf("cloned codec canonical(%v) = %x, want %x", hi, got, want)
	}
	// Without a symmetry set, canonical is just the encoding.
	plain := newCodec(binSpec(5, false))
	if got := plain.canonical(hi); !bytes.Equal(got, hi.AppendBinary(nil)) {
		t.Fatalf("symmetry-free canonical(%v) = %x", hi, got)
	}
}

// TestCanonicalKeepsLeastVisited pins the codec's side of the
// OrbitVisitor contract: canonical encodes only what the visitor visits
// and keeps the least of it, falls back to s's own encoding when nothing
// is visited, and a cloned codec, with its own visitor, agrees.
func TestCanonicalKeepsLeastVisited(t *testing.T) {
	s := binState{A: 5, B: 5}
	visits := map[binState][]binState{
		s:                {},
		{A: 9, B: 2}:     {{A: 7, B: 1}, {A: 2, B: 9}, {A: 3, B: 0}},
		{A: 300, B: 700}: {{A: 400, B: 1}},
	}
	want := map[binState]binState{s: s, {A: 9, B: 2}: {A: 2, B: 9}, {A: 300, B: 700}: {A: 400, B: 1}}
	spec := binSpec(5, false)
	spec.SymmetryVisitor = func() OrbitVisitor[binState] {
		return func(s binState, visit func(binState)) {
			for _, img := range visits[s] {
				visit(img)
			}
		}
	}
	c := newCodec(spec)
	for _, cod := range []*codec[binState]{c, c.clone()} {
		for in, rep := range want {
			if got := cod.canonical(in); !bytes.Equal(got, rep.AppendBinary(nil)) {
				t.Errorf("canonical(%v) = %x, want %v's encoding %x", in, got, rep, rep.AppendBinary(nil))
			}
		}
	}
}

// TestSymmetryParallelCrossCheck: the symmetry-reduced exploration must
// stay deterministic and worker-count independent like everything else.
func TestSymmetryParallelCrossCheck(t *testing.T) {
	crossCheck(t, "symmetric-counter", binSpec(30, true), Options{RecordGraph: true})
	crossCheck(t, "symmetric-counter-cf", binSpec(30, true), Options{CollisionFree: true})
	crossCheck(t, "symmetric-counter-visitor", binSpecVisitor(30), Options{RecordGraph: true})
	crossCheck(t, "symmetric-counter-visitor-spill", binSpecVisitor(30), Options{MemoryBudgetBytes: 1})
}

// TestSymmetryQuotientExact pins the quotient size: the two-counter walk
// to max has (max+1)² states, and its unordered quotient under counter
// exchange has exactly (max+1)(max+2)/2 — one representative per orbit.
// A symmetric tripwire invariant must be found at the same depth in both.
func TestSymmetryQuotientExact(t *testing.T) {
	const max = 20
	full, err := Check(binSpec(max, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Check(binSpec(max, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (max + 1) * (max + 1); full.Distinct != want {
		t.Fatalf("full space = %d states, want %d", full.Distinct, want)
	}
	if want := (max + 1) * (max + 2) / 2; red.Distinct != want {
		t.Fatalf("quotient = %d states, want %d", red.Distinct, want)
	}

	trip := func(symmetric bool) *Violation[binState] {
		spec := binSpec(max, symmetric)
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow7",
			Check: func(s binState) error {
				if s.A+s.B >= 7 {
					return errors.New("sum reached 7")
				}
				return nil
			},
		}}
		res, err := Check(spec, Options{})
		if err == nil || res.Violation == nil {
			t.Fatalf("tripwire not violated (err=%v)", err)
		}
		return res.Violation
	}
	fv, rv := trip(false), trip(true)
	if len(fv.Trace) != len(rv.Trace) {
		t.Fatalf("counterexample lengths differ under symmetry: %d vs %d", len(fv.Trace)-1, len(rv.Trace)-1)
	}
	if fv.Invariant != rv.Invariant {
		t.Fatalf("violated invariants differ: %s vs %s", fv.Invariant, rv.Invariant)
	}
}
