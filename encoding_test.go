package repro

import (
	"testing"

	"repro/internal/raftmongo"
	"repro/internal/tla"
)

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
