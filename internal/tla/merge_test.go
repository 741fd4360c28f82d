package tla

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// The level-sync merge settles each level in merge order — chunk, frontier
// position, emission position — with its claim and settle passes running
// in parallel. These tests pin what must not depend on the chunking: where
// a violation or the MaxStates limit cuts a level, and which of a state's
// occurrences (under symmetry, which member of its orbit) is retained.

// cutGrid is the four-counter grid (por_test.go), whose levels are full of
// states reached from several frontier states — duplicates across chunks —
// with two invariants that fire at two states of level 4, a constraint
// that cuts states mid-level, and the POR declaration. A first action, Dec,
// steps each non-zero counter back: every successor it emits is a state of
// the level before, so probe hits precede the candidate a level is cut at.
func cutGrid() *Spec[gridState] {
	spec := gridSpec(4, 3, -1)
	dec := Action[gridState]{Name: "Dec", Next: func(s gridState) []gridState {
		var succs []gridState
		for i := 0; i < int(s.n); i++ {
			if s.vals[i] > 0 {
				c := s
				c.vals[i]--
				succs = append(succs, c)
			}
		}
		return succs
	}}
	spec.Actions = append([]Action[gridState]{dec}, spec.Actions...)
	for _, bad := range []gridState{{vals: [4]int8{1, 1, 1, 1}, n: 4}, {vals: [4]int8{0, 2, 2, 0}, n: 4}} {
		spec.Invariants = append(spec.Invariants, Invariant[gridState]{
			Name: "Not" + bad.Key(),
			Check: func(s gridState) error {
				if s == bad {
					return fmt.Errorf("reached %s", bad.Key())
				}
				return nil
			},
		})
	}
	spec.Constraint = func(s gridState) bool { return s.vals[3] < 2 }
	return spec
}

// gridOrbit is the grid's full symmetry: every permutation of the counters,
// visited by brute force.
func gridOrbit() OrbitVisitor[gridState] {
	var img gridState
	return func(s gridState, visit func(gridState)) {
		visit(s)
		Permutations(int(s.n), func(perm []int) {
			img = s
			for i, j := range perm {
				img.vals[j] = s.vals[i]
			}
			visit(img)
		})
	}
}

// eraseGrid runs Check on a spec from build and erases the result like the
// lattice does.
func eraseGrid(t *testing.T, build func() *Spec[gridState], opts Options) latticeRun {
	t.Helper()
	return runLattice(t, func(bool) *Spec[gridState] { return build() }, opts, false)
}

// TestMergeCutParity lands a violation and the MaxStates limit mid-level —
// the first violation in discovery order, the limit before, at and after
// it, and the limit alone in a level without a violation — and requires
// every worker count, in keyed mode, fingerprint mode and under a budget,
// with and without a recorded graph, to report what a textbook BFS
// reports: counters, counterexample, and the recorded graph (whose DOT
// dump must also be byte-identical across worker counts). Without a graph
// a probe hit is no candidate, so the cut's transition count rests on the
// misses' skip counts. Under POR, which the reference does not model,
// every run must agree with the graph-recording Workers=1 run.
func TestMergeCutParity(t *testing.T) {
	clean := referenceBFS(cutGrid(), 0)
	if clean.violated == "" {
		t.Fatal("the grid's invariants never fire")
	}
	v := clean.distinct - 1 // the first violating state's id
	limits := []int{0, v - 3, v, v + 1, 22}
	// Every cut must land mid-level: ids are numbered level by level.
	noInv := cutGrid()
	noInv.Invariants = nil
	depths := referenceBFS(noInv, 0).depths
	for _, id := range append(limits[1:], v) {
		if depths[id-1] != depths[id] || depths[id] != depths[id+1] {
			t.Fatalf("a cut at state %d is not mid-level (depths %v)", id, depths[id-1:id+2])
		}
	}
	modes := []Options{
		{CollisionFree: true},
		{},
		{MemoryBudgetBytes: bigBudget},
		{MemoryBudgetBytes: 1},
	}
	for _, por := range []bool{false, true} {
		for _, limit := range limits {
			for _, mode := range modes {
				var ref referenceRun
				if !por {
					ref = referenceBFS(cutGrid(), limit)
				}
				var want latticeRun
				for _, graph := range []bool{true, false} {
					for _, w := range []int{1, 2, 3, 4, 8} {
						opts := mode
						opts.Workers, opts.MaxStates, opts.PartialOrder, opts.RecordGraph = w, limit, por, graph
						label := fmt.Sprintf("por=%t limit=%d %s", por, limit, latticeLabel(opts))
						got := eraseGrid(t, cutGrid, opts)
						if got.res == nil {
							t.Fatalf("%s: no result: %v", label, got.err)
						}
						if !por {
							if d := referenceMismatch(ref, got); d != "" {
								t.Fatalf("%s: %s", label, d)
							}
						}
						if graph && w == 1 {
							want = got
							continue
						}
						if g, o := got.res, want.res; g.Distinct != o.Distinct || g.Transitions != o.Transitions || g.Depth != o.Depth ||
							g.Terminal != o.Terminal || g.ConstraintCuts != o.ConstraintCuts || (got.err == nil) != (want.err == nil) {
							t.Fatalf("%s: result %+v (err %v), graph workers=1 %+v (err %v)", label, *g, got.err, *o, want.err)
						}
						if !slices.Equal(got.traceKeys, want.traceKeys) || !slices.Equal(got.traceActs, want.traceActs) {
							t.Fatalf("%s: counterexample %v, graph workers=1 %v", label, got.traceKeys, want.traceKeys)
						}
						if graph && !bytes.Equal(got.dot, want.dot) {
							t.Fatalf("%s: DOT differs from workers=1 (%d vs %d bytes)", label, len(got.dot), len(want.dot))
						}
					}
				}
			}
		}
	}
}

// TestSymmetricStatesMatchReferenceBFS: under symmetry the states of one orbit
// share an identity but not a key, so the member a level retains is the
// one its merge order reaches first. Graph.StateAt must return it at every
// worker count, from live values and from arena encodings alike.
func TestSymmetricStatesMatchReferenceBFS(t *testing.T) {
	spec := func() *Spec[gridState] {
		spec := gridSpec(4, 5, -1)
		spec.SymmetryVisitor = gridOrbit
		return spec
	}
	ref := referenceBFS(spec(), 0)
	for _, mode := range []Options{{}, {CollisionFree: true}, {MemoryBudgetBytes: bigBudget}} {
		for _, w := range []int{1, 2, 3, 4, 8} {
			opts := mode
			opts.Workers, opts.RecordGraph = w, true
			got := eraseGrid(t, spec, opts)
			if d := referenceMismatch(ref, got); d != "" {
				t.Fatalf("%s: %s", latticeLabel(opts), d)
			}
		}
	}
}

// TestChunkBuffersEachMissOnce drives the levels by hand to look inside
// the expansion: within a chunk, successors that miss the probe with equal
// encodings share one buffered miss, so a chunk's misses are pairwise
// distinct — on the grid, whose states are each reached from several
// states of the level before. The run must still count what Check counts.
func TestChunkBuffersEachMissOnce(t *testing.T) {
	want, err := Check(gridSpec(3, 5, -1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		opts := Options{Workers: w, CollisionFree: true}
		vs := newVisitedSet(opts, nil)
		l := newLevelSync(gridSpec(3, 5, -1), opts, w, vs, nil)
		l.registerInits()
		candidates, misses := 0, 0
		for frontier := l.fr.NextLevel(); len(frontier) > 0; frontier = l.fr.NextLevel() {
			plan, outs := l.expandLevel(frontier)
			for c := range outs {
				o := &outs[c]
				seen := map[string]bool{}
				for i := range o.misses {
					key := string(missKey(o.misses, o.keys, i))
					if seen[key] {
						t.Fatalf("workers=%d: chunk %d buffers encoding %x twice", w, c, key)
					}
					seen[key] = true
				}
				for _, cd := range o.cands {
					if cd.id < 0 {
						candidates++
					}
				}
				misses += len(o.misses)
			}
			if !l.merge(plan, frontier, outs) {
				t.Fatalf("workers=%d: the merge ended the run", w)
			}
		}
		vs.Close()
		if w == 1 && misses >= candidates {
			t.Fatalf("workers=1: %d candidates missed the probe into %d misses; none shared", candidates, misses)
		}
		if l.ret.len() != want.Distinct || l.res.Transitions != want.Transitions {
			t.Fatalf("workers=%d: %d states, %d transitions; Check found %d, %d", w, l.ret.len(), l.res.Transitions, want.Distinct, want.Transitions)
		}
	}
}
