package locking

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/tla"
)

// This file is the stand-in for Locking.tla [27], the specification of
// aspects of the MongoDB Server's lock hierarchy that the paper names as
// the hypothetical second trace-checking target in §4.2.5. Its state
// variables (per-actor lock holdings) are disjoint from RaftMongo's
// (roles, terms, commit points, oplogs), which is the paper's argument
// that almost no MBTC infrastructure would carry over to a second
// specification.

// SpecConfig bounds the locking model.
type SpecConfig struct {
	Actors int
	// Symmetric declares the actors interchangeable (TLC's SYMMETRY
	// clause): all actors start empty-handed and every action quantifies
	// over all of them, so relabelling actors is a spec automorphism. The
	// checker then explores one representative per actor-permutation
	// orbit.
	Symmetric bool
	// OmitCompatibilityCheck models a buggy lock manager that grants
	// without consulting the compatibility matrix. The Compatibility
	// invariant then fails, with a known shortest counterexample — the
	// golden-file test locks it down (testdata/compatibility_violation.golden).
	OmitCompatibilityCheck bool
}

// MaxActors bounds SpecConfig.Actors: SpecState keeps its rows in a
// fixed array, so a state is a pointer-free value the checker copies
// instead of allocating, and that the garbage collector never scans.
const MaxActors = 8

// SpecState is a locking specification state: for each of its N actors,
// the mode it holds on each of the three hierarchy levels (or -1). Rows at
// index N and above are always zero, so == on two states is state
// equality; code reads only Held[:N].
type SpecState struct {
	N uint8
	// Held[a][level] is int8(mode) or -1, for a < N.
	Held [MaxActors][3]int8
}

// Key implements tla.State.
func (s SpecState) Key() string {
	var b strings.Builder
	for i, h := range s.Held[:s.N] {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d,%d,%d", h[0], h[1], h[2])
	}
	return b.String()
}

// AppendBinary implements tla.BinaryState: one byte per (actor, level)
// holding, mode shifted by one so the empty holding (-1) packs as 0. For a
// fixed actor count the encoding is fixed-width and positional, hence
// injective — it agrees with Key() by construction, and
// FuzzBinaryKeyAgreement checks the agreement on randomized states.
func (s SpecState) AppendBinary(buf []byte) []byte {
	for _, h := range s.Held[:s.N] {
		buf = append(buf, byte(h[0]+1), byte(h[1]+1), byte(h[2]+1))
	}
	return buf
}

// DecodeBinary implements tla.BinaryDecoder: the inverse of AppendBinary.
// Three bytes per actor, each byte mode+1 in 0..4; the actor count is the
// encoding length over three, at most MaxActors, so a zero-value receiver
// works.
func (s SpecState) DecodeBinary(enc []byte) (SpecState, error) {
	if len(enc)%3 != 0 {
		return SpecState{}, fmt.Errorf("locking: decode: length %d not a multiple of 3", len(enc))
	}
	if len(enc) > 3*MaxActors {
		return SpecState{}, fmt.Errorf("locking: decode: length %d holds more than MaxActors (%d) actors", len(enc), MaxActors)
	}
	out := SpecState{N: uint8(len(enc) / 3)}
	for i, b := range enc {
		if b > byte(X)+1 {
			return SpecState{}, fmt.Errorf("locking: decode: bad mode byte %d at offset %d", b, i)
		}
		out.Held[i/3][i%3] = int8(b) - 1
	}
	return out, nil
}

// ActorOrbits is the spec's symmetry declaration
// (tla.Spec.SymmetryVisitor): each call returns a visitor that hands the
// codec the orbit's representative and nothing else. An actor permutation
// just reorders the rows of Held, and every row encodes to three bytes, so
// the least encoding in the orbit has the rows in encoded-byte order: the
// visitor insertion-sorts the actor indices with compareRows and visits s
// itself when it is already sorted, otherwise the sorted image, a plain
// value built on the stack.
func ActorOrbits() tla.OrbitVisitor[SpecState] {
	return func(s SpecState, visit func(SpecState)) {
		var order [MaxActors]int
		n := int(s.N)
		for i := range n {
			order[i] = i
		}
		moved := false
		for i := 1; i < n; i++ {
			for j := i; j > 0 && compareRows(s.Held[order[j-1]], s.Held[order[j]]) > 0; j-- {
				order[j-1], order[j] = order[j], order[j-1]
				moved = true
			}
		}
		if !moved {
			visit(s)
			return
		}
		img := SpecState{N: s.N}
		for k, i := range order[:n] {
			img.Held[k] = s.Held[i]
		}
		visit(img)
	}
}

// compareRows orders two rows of Held as bytes.Compare orders their
// AppendBinary bytes, mode plus one per level.
func compareRows(a, b [3]int8) int {
	for l := range a {
		if c := cmp.Compare(byte(a[l]+1), byte(b[l]+1)); c != 0 {
			return c
		}
	}
	return 0
}

// ActorPermutations is the brute-force orbit of s: its (actors!)-1 images
// under the non-identity actor permutations. Its least encoding, s's own
// included, is the representative ActorOrbits visits.
//
// Deprecated: use ActorOrbits (Spec already does); this remains only as
// the oracle the visitor is tested against.
func ActorPermutations(s SpecState) []SpecState {
	var out []SpecState
	tla.Permutations(int(s.N), func(perm []int) {
		img := SpecState{N: s.N}
		for i, p := range perm {
			img.Held[p] = s.Held[i]
		}
		out = append(out, img)
	})
	return out
}

var resources = [3]Resource{Global, ReplState, Oplog}

// Spec returns the executable locking specification: actors acquire locks
// top-down (intent modes above, S/X at the leaf) and release bottom-up.
// The invariants are the MGL safety conditions.
func Spec(cfg SpecConfig) *tla.Spec[SpecState] {
	if cfg.Actors < 0 || cfg.Actors > MaxActors {
		panic(fmt.Sprintf("locking: SpecConfig.Actors = %d, want 0..MaxActors (%d)", cfg.Actors, MaxActors))
	}
	var sym func() tla.OrbitVisitor[SpecState]
	if cfg.Symmetric {
		sym = ActorOrbits
	}
	return &tla.Spec[SpecState]{
		Name:            "Locking",
		SymmetryVisitor: sym,
		Independence:    Independence(cfg),
		Init: func() []SpecState {
			s := SpecState{N: uint8(cfg.Actors)}
			for a := range cfg.Actors {
				s.Held[a] = [3]int8{-1, -1, -1}
			}
			return []SpecState{s}
		},
		Actions: []tla.Action[SpecState]{
			{Name: "Acquire", Next: func(s SpecState) []SpecState {
				// Count first, then fill a slice of exactly that length.
				// A successor is a copy of s with one cell changed: states
				// are values, so the result slice is the call's only
				// allocation.
				n := 0
				cfg.acquires(s, func(int, int, Mode) { n++ })
				if n == 0 {
					return nil
				}
				out, i := make([]SpecState, n), 0
				cfg.acquires(s, func(a, lvl int, mode Mode) {
					out[i] = s
					out[i].Held[a][lvl] = int8(mode)
					i++
				})
				return out
			}},
			{Name: "Release", Next: func(s SpecState) []SpecState {
				// Release bottom-up: deepest held lock first.
				n := 0
				for _, h := range s.Held[:s.N] {
					if deepest(h) >= 0 {
						n++
					}
				}
				if n == 0 {
					return nil
				}
				out, i := make([]SpecState, n), 0
				for a, h := range s.Held[:s.N] {
					if lvl := deepest(h); lvl >= 0 {
						out[i] = s
						out[i].Held[a][lvl] = -1
						i++
					}
				}
				return out
			}},
		},
		Invariants: []tla.Invariant[SpecState]{
			{Name: "Compatibility", Check: func(s SpecState) error {
				n := int(s.N)
				for lvl := 0; lvl < 3; lvl++ {
					for a := range n {
						for b := a + 1; b < n; b++ {
							ma, mb := s.Held[a][lvl], s.Held[b][lvl]
							if ma >= 0 && mb >= 0 && !Compatible(Mode(ma), Mode(mb)) {
								return fmt.Errorf("actors %d and %d hold %s/%s on %s",
									a, b, Mode(ma), Mode(mb), resources[lvl].Name)
							}
						}
					}
				}
				return nil
			}},
			{Name: "IntentAboveLeaf", Check: func(s SpecState) error {
				for a := range int(s.N) {
					for lvl := 1; lvl < 3; lvl++ {
						if s.Held[a][lvl] >= 0 && s.Held[a][lvl-1] < 0 {
							return fmt.Errorf("actor %d holds %s without a parent intent lock",
								a, resources[lvl].Name)
						}
					}
				}
				return nil
			}},
		},
	}
}

// acquires calls fn for every lock an actor may take next in s: at the
// level one past its deepest holding (top-down discipline), in a mode the
// intent discipline allows there and, unless the spec models the buggy
// manager, compatible with every other actor's holding.
func (cfg SpecConfig) acquires(s SpecState, fn func(actor, lvl int, mode Mode)) {
	for a := range int(s.N) {
		lvl := 0
		for lvl < 3 && s.Held[a][lvl] >= 0 {
			lvl++
		}
		if lvl == 3 {
			continue
		}
		for _, mode := range [...]Mode{IS, IX, S, X} {
			// Intent discipline: S/X at a level require IS/IX above,
			// which the top-down rule plus this mode filter enforce.
			if lvl < 2 && (mode == S || mode == X) {
				continue
			}
			if lvl > 0 {
				parent := Mode(s.Held[a][lvl-1])
				if (mode == X || mode == IX) && parent != IX {
					continue
				}
			}
			if !cfg.OmitCompatibilityCheck && !grantable(s, a, lvl, mode) {
				continue
			}
			fn(a, lvl, mode)
		}
	}
}

// deepest is the level of an actor's deepest holding, or -1.
func deepest(h [3]int8) int {
	lvl := 2
	for lvl >= 0 && h[lvl] < 0 {
		lvl--
	}
	return lvl
}

// grantable checks the compatibility matrix for a new grant in the spec
// state, mirroring Manager.TryAcquire.
func grantable(s SpecState, actor, lvl int, mode Mode) bool {
	for b := range int(s.N) {
		if b == actor {
			continue
		}
		if mb := s.Held[b][lvl]; mb >= 0 && !Compatible(Mode(mb), mode) {
			return false
		}
	}
	return true
}
