package repro

import (
	"testing"

	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// keyOnly holds a spec state as a field and forwards only Key, hiding the
// state's AppendBinary and DecodeBinary: the checker dedups it on Key()
// strings, the pre-BinaryState behaviour the encoding tests and
// BenchmarkParallelCheckEncoding compare the byte-packed path against.
type keyOnly[S tla.State] struct{ s S }

func (k keyOnly[S]) Key() string { return k.s.Key() }

// keyOnlySpec wraps spec — one without symmetry or independence — in
// keyOnly: the same state space, explored through the Key encoding path.
func keyOnlySpec[S tla.State](spec *tla.Spec[S]) *tla.Spec[keyOnly[S]] {
	wrap := func(ss []S) []keyOnly[S] {
		if len(ss) == 0 {
			return nil
		}
		out := make([]keyOnly[S], len(ss))
		for i, s := range ss {
			out[i] = keyOnly[S]{s}
		}
		return out
	}
	init := spec.Init
	k := &tla.Spec[keyOnly[S]]{Name: spec.Name, Init: func() []keyOnly[S] { return wrap(init()) }}
	for _, a := range spec.Actions {
		next := a.Next
		k.Actions = append(k.Actions, tla.Action[keyOnly[S]]{Name: a.Name, Next: func(s keyOnly[S]) []keyOnly[S] { return wrap(next(s.s)) }})
	}
	for _, inv := range spec.Invariants {
		check := inv.Check
		k.Invariants = append(k.Invariants, tla.Invariant[keyOnly[S]]{Name: inv.Name, Check: func(s keyOnly[S]) error { return check(s.s) }})
	}
	if c := spec.Constraint; c != nil {
		k.Constraint = func(s keyOnly[S]) bool { return c(s.s) }
	}
	return k
}

// counts is the part of a Result the encoding paths must agree on:
// distinct states, transitions, depth and terminal states.
type counts [4]int

func countsOf[S tla.State](res *tla.Result[S], err error) (counts, error) {
	if err != nil {
		return counts{}, err
	}
	return counts{res.Distinct, res.Transitions, res.Depth, res.Terminal}, nil
}

// TestBinaryEncodingAllocatesLess pins the acceptance criterion of the
// byte-packed state encoding: on the replica-set spec, a full exploration
// through the BinaryState fast path must allocate strictly less than the
// identical exploration of its key-only twin on canonical Key() strings.
// The key path is the binary path plus one fmt/strings.Builder
// construction per successor, so the gap is structural, not noise — but
// the assertion stays directional (strictly less), leaving the magnitude
// to BenchmarkParallelCheckEncoding.
func TestBinaryEncodingAllocatesLess(t *testing.T) {
	cfg := raftmongo.Config{Nodes: 2, MaxTerm: 2, MaxLogLen: 2}
	measure := func(check func() (counts, error)) float64 {
		return testing.AllocsPerRun(3, func() {
			c, err := check()
			if err != nil {
				t.Fatal(err)
			}
			if c[0] == 0 {
				t.Fatal("no states explored")
			}
		})
	}
	binary := measure(func() (counts, error) {
		return countsOf(tla.Check(raftmongo.SpecV1(cfg), tla.Options{Workers: 1}))
	})
	keys := measure(func() (counts, error) {
		return countsOf(tla.Check(keyOnlySpec(raftmongo.SpecV1(cfg)), tla.Options{Workers: 1}))
	})
	if binary >= keys {
		t.Fatalf("binary path allocated %.0f, key path %.0f — the fast path must allocate strictly less", binary, keys)
	}
	t.Logf("allocations per full check: binary=%.0f keys=%.0f (%.1fx)", binary, keys, keys/binary)
}

// TestSymmetryVisitorAllocatesLess pins the acceptance criterion of the
// canonicalizer API: on the symmetric replica-set spec, a full exploration
// through the orbit-visitor path (one scratch state per worker, images
// encoded in place) must allocate strictly less than the identical
// exploration through a materializing enumeration that visits s and the
// n!-1 permuted states built per successor encoded
// (raftmongo.NodePermutations, the oracle the visitor is tested against). The
// gap is structural — the materializing path's per-state allocations scale
// with the orbit, the visitor's do not — but the assertion stays
// directional, leaving the magnitude to BenchmarkSymmetryReduction.
func TestSymmetryVisitorAllocatesLess(t *testing.T) {
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 1, MaxLogLen: 2}
	measure := func(materializing bool) float64 {
		return testing.AllocsPerRun(3, func() {
			symCfg := cfg
			symCfg.Symmetric = true
			spec := raftmongo.SpecV1(symCfg)
			if materializing {
				spec.SymmetryVisitor = func() tla.OrbitVisitor[raftmongo.State] {
					return func(s raftmongo.State, visit func(raftmongo.State)) {
						visit(s)
						for _, img := range raftmongo.NodePermutations(s) {
							visit(img)
						}
					}
				}
			}
			res, err := tla.Check(spec, tla.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Distinct == 0 {
				t.Fatal("no states explored")
			}
		})
	}
	visitor := measure(false)
	orbit := measure(true)
	if visitor >= orbit {
		t.Fatalf("visitor path allocated %.0f, materializing orbit path %.0f — the canonicalizer must allocate strictly less", visitor, orbit)
	}
	t.Logf("allocations per symmetric check: visitor=%.0f orbit=%.0f (%.1fx)", visitor, orbit, orbit/visitor)
}

// TestEncodingPathsAgree cross-checks the two dedup encodings end to end:
// byte-packed explorations of the replica-set and locking specs and
// explorations of their key-only twins must report identical state
// counts, transitions, depths and terminal counts at 1 and 4 workers. A
// disagreement means an AppendBinary implementation broke the
// Key-agreement contract in a way the per-state fuzz targets did not
// catch.
func TestEncodingPathsAgree(t *testing.T) {
	check := func(name string, binary, keys func(tla.Options) (counts, error)) {
		t.Helper()
		var want counts
		for i, r := range []struct {
			path string
			run  func(tla.Options) (counts, error)
			opts tla.Options
		}{
			{"binary", binary, tla.Options{Workers: 1}},
			{"keys", keys, tla.Options{Workers: 1}},
			{"binary", binary, tla.Options{Workers: 4}},
			{"keys", keys, tla.Options{Workers: 4}},
			{"binary", binary, tla.Options{Workers: 4, CollisionFree: true}},
			{"binary", binary, tla.Options{Workers: 4, MemoryBudgetBytes: 1}},
		} {
			got, err := r.run(r.opts)
			if err != nil {
				t.Fatalf("%s: %s %+v: %v", name, r.path, r.opts, err)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: %s %+v: got %v, want %v", name, r.path, r.opts, got, want)
			}
		}
	}
	rcfg := raftmongo.Config{Nodes: 2, MaxTerm: 2, MaxLogLen: 2}
	check("raftmongo-v1",
		func(o tla.Options) (counts, error) { return countsOf(tla.Check(raftmongo.SpecV1(rcfg), o)) },
		func(o tla.Options) (counts, error) {
			return countsOf(tla.Check(keyOnlySpec(raftmongo.SpecV1(rcfg)), o))
		})
	lcfg := locking.SpecConfig{Actors: 2}
	check("locking",
		func(o tla.Options) (counts, error) { return countsOf(tla.Check(locking.Spec(lcfg), o)) },
		func(o tla.Options) (counts, error) { return countsOf(tla.Check(keyOnlySpec(locking.Spec(lcfg)), o)) })
}
