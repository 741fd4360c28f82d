package tla

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The option lattice: every combination of the run-shaping options that
// decide how the engine explores — worker count, partial-order reduction,
// arena retention, memory budget, graph recording, collision-free
// deduplication and symmetry — run against small generated specs with and
// without a planted violation. A combination is either rejected with
// ErrInvalidOptions before Init runs or it agrees with the Workers=1
// oracle:
//
//   - always on the verdict, with a counterexample that is a real behaviour
//     ending in the violated invariant;
//   - without POR on a violation-free run, on Distinct, Transitions and
//     Terminal; with POR, Distinct never exceeds the unpruned count;
//   - with RecordGraph, against the spec alone: every edge leads to a
//     successor of its action, and no two ids share a canonical encoding;
//   - byte-for-byte: the WriteDOT dump and the counterexample equal those
//     of the Workers=1 run with the same reduction settings;
//   - without POR, and for the oracle itself, against a
//     textbook BFS independent of the engine (referenceBFS): every counter,
//     the counterexample, and the recorded graph state by state and edge by
//     edge.

// latticeSpec is one generated spec of the lattice, built fresh per run (a
// run wraps Init to count its calls).
type latticeSpec struct {
	name  string
	check func(t *testing.T, opts Options, sym bool) latticeRun
	ref   func(sym bool) referenceRun
}

// latticeRun is what one Check call left behind, with the state type
// erased: the verdict, counters, counterexample, DOT dump and Init calls.
type latticeRun struct {
	err        error
	res        *Result[State]
	traceKeys  []string
	traceActs  []string
	dot        []byte
	keys       []string // a recorded graph's KeyAt, by id
	edges      []Edge   // a recorded graph's edges, in order
	inits      []int    // a recorded graph's Inits
	initCalls  int
	expectBad  bool   // the combination must be rejected
	validTrace bool   // the counterexample is a behaviour of the spec
	unsound    string // why the recorded graph is not the spec's; "" if it is
}

// runLattice builds spec (with a symmetry visitor when sym), runs Check and
// erases the state type. Whether the state encodes and decodes, and whether
// the spec declares Independence, decides the expected rejection.
func runLattice[S State](t *testing.T, build func(sym bool) *Spec[S], opts Options, sym bool) latticeRun {
	t.Helper()
	spec := build(sym)
	_, dec := any(*new(S)).(BinaryDecoder[S])
	var run latticeRun
	run.expectBad = (opts.MemoryBudgetBytes > 0 && opts.CollisionFree) ||
		(opts.PartialOrder && spec.Independence == nil) ||
		(opts.MemoryBudgetBytes > 0 && !dec)
	init := spec.Init
	spec.Init = func() []S {
		run.initCalls++
		return init()
	}
	res, err := Check(spec, opts)
	run.err = err
	if res == nil {
		return run
	}
	run.res = &Result[State]{
		Distinct: res.Distinct, Transitions: res.Transitions, Depth: res.Depth,
		Terminal: res.Terminal, ConstraintCuts: res.ConstraintCuts,
	}
	if v := res.Violation; v != nil {
		run.traceKeys, run.traceActs = traceKeys(v.Trace), v.TraceActs
		run.validTrace = isBehaviour(build(sym), v)
	}
	if res.Graph != nil {
		var buf bytes.Buffer
		if err := res.Graph.WriteDOT(&buf, spec.Name); err != nil {
			t.Fatalf("WriteDOT: %v", err)
		}
		run.dot = buf.Bytes()
		run.unsound = graphUnsound(build(sym), res.Graph)
		run.keys = make([]string, res.Graph.Len())
		for id := range run.keys {
			run.keys[id] = res.Graph.KeyAt(id)
		}
		run.edges = graphEdges(t, res.Graph)
		run.inits = res.Graph.Inits
		if err := res.Graph.Close(); err != nil {
			t.Fatalf("Graph.Close: %v", err)
		}
	}
	return run
}

// isBehaviour reports whether v's counterexample starts in an initial
// state, takes only real transitions, and ends in a state that violates
// v.Invariant.
func isBehaviour[S State](spec *Spec[S], v *Violation[S]) bool {
	if len(v.Trace) == 0 || len(v.TraceActs) != len(v.Trace)-1 {
		return false
	}
	contains := func(states []S, key string) bool {
		for _, s := range states {
			if s.Key() == key {
				return true
			}
		}
		return false
	}
	if !contains(spec.Init(), v.Trace[0].Key()) {
		return false
	}
	for i, name := range v.TraceActs {
		found := false
		for _, a := range spec.Actions {
			if a.Name == name && contains(a.Next(v.Trace[i]), v.Trace[i+1].Key()) {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	for _, inv := range spec.Invariants {
		if inv.Name == v.Invariant {
			return inv.Check(v.Trace[len(v.Trace)-1]) != nil
		}
	}
	return false
}

// graphUnsound checks a recorded graph against the spec alone, so a merge
// bug that every worker count shares cannot hide behind the comparison
// with the Workers=1 oracle: every edge (u, act, v) must lead to a state
// whose canonical encoding is that of one of act's successors of u, and no
// two ids may share a canonical encoding. It returns the first breach, or
// "".
func graphUnsound[S State](spec *Spec[S], g *Graph[S]) string {
	cod := newCodec(spec)
	canon := func(s S) string { return string(cod.canonical(s)) }
	owner := make(map[string]int, g.Len())
	for id := 0; id < g.Len(); id++ {
		k := canon(g.StateAt(id))
		if prev, ok := owner[k]; ok {
			return fmt.Sprintf("states %d and %d share a canonical encoding", prev, id)
		}
		owner[k] = id
	}
	err := g.ForEachEdge(func(e Edge) error {
		want := canon(g.StateAt(e.To))
		from := g.StateAt(e.From)
		for _, a := range spec.Actions {
			if a.Name != e.Action {
				continue
			}
			for _, succ := range a.Next(from) {
				if canon(succ) == want {
					return nil
				}
			}
		}
		return fmt.Errorf("edge %d -%s-> %d: no %s successor of state %d encodes like state %d", e.From, e.Action, e.To, e.Action, e.From, e.To)
	})
	if err != nil {
		return err.Error()
	}
	return ""
}

// identityOrbit is a symmetry visitor with no non-identity automorphism: it
// sends the engine down the orbit-canonicalisation path without changing
// the explored space, for specs that have no real symmetry.
func identityOrbit[S State]() OrbitVisitor[S] {
	return func(s S, visit func(S)) { visit(s) }
}

// latticeRandom is randomSpec (arena-capable, no Independence
// declaration), optionally with its invariant re-aimed at a state reached
// by a short random walk, so the violation is reachable.
func latticeRandom(seed int64, planted bool) latticeSpec {
	build := func(sym bool) *Spec[randState] {
		spec := randomSpec(seed)
		if planted {
			bad := plantedState(spec, seed)
			spec.Name += "-planted"
			spec.Invariants = []Invariant[randState]{{
				Name: "NotPlanted",
				Check: func(s randState) error {
					if s == bad {
						return fmt.Errorf("reached planted state %d", bad)
					}
					return nil
				},
			}}
		}
		if sym {
			spec.SymmetryVisitor = identityOrbit[randState]
		}
		return spec
	}
	name := fmt.Sprintf("random-%d", seed)
	if planted {
		name += "-planted"
	}
	return latticeSpec{name: name, check: func(t *testing.T, opts Options, sym bool) latticeRun {
		return runLattice(t, build, opts, sym)
	}, ref: func(sym bool) referenceRun { return referenceBFS(build(sym), 0) }}
}

// plantedState walks up to five random transitions from an initial state,
// stopping early at a state the constraint cuts (its successors are never
// explored, but it is still checked), and returns where it ended.
func plantedState(spec *Spec[randState], seed int64) randState {
	rng := rand.New(rand.NewSource(seed))
	s := spec.Init()[0]
	for step := 0; step < 5; step++ {
		if spec.Constraint != nil && !spec.Constraint(s) {
			break
		}
		var succs []randState
		for _, a := range spec.Actions {
			succs = append(succs, a.Next(s)...)
		}
		if len(succs) == 0 {
			break
		}
		s = succs[rng.Intn(len(succs))]
	}
	return s
}

// latticeGrid is the POR grid. Without a tripwire its counters are fully
// interchangeable, so the symmetry axis permutes them for real; with one,
// counter 0 is distinguished and the identity orbit stands in.
func latticeGrid(n int, max, tripwire int8) latticeSpec {
	build := func(sym bool) *Spec[gridState] {
		spec := gridSpec(n, max, tripwire)
		if sym && tripwire >= 0 {
			spec.SymmetryVisitor = identityOrbit[gridState]
		} else if sym {
			spec.SymmetryVisitor = func() OrbitVisitor[gridState] {
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
		}
		return spec
	}
	return latticeSpec{name: fmt.Sprintf("grid-%d-%d-trip%d", n, max, tripwire), check: func(t *testing.T, opts Options, sym bool) latticeRun {
		return runLattice(t, build, opts, sym)
	}, ref: func(sym bool) referenceRun { return referenceBFS(build(sym), 0) }}
}

// latticeJumpGrid is the POR grid with a second transition of counter 0,
// a jump by two. Process 0 then owns more transitions than the others, so
// the planner picks a later process's smaller ample set, and the
// ample-first emission order differs from the successor order the probe
// misses are numbered in: the case where a merge pairing a miss with the
// wrong successor state shows, which the plain grid never reaches.
func latticeJumpGrid(n int, max int8) latticeSpec {
	build := func(sym bool) *Spec[gridState] {
		spec := gridSpec(n, max, -1)
		spec.Name += "-jump"
		spec.Actions = append(spec.Actions, Action[gridState]{
			Name: "Jump0",
			Next: func(s gridState) []gridState {
				if s.vals[0]+2 > max {
					return nil
				}
				c := s
				c.vals[0] += 2
				return []gridState{c}
			},
		})
		if sym {
			spec.SymmetryVisitor = identityOrbit[gridState]
		}
		return spec
	}
	return latticeSpec{name: fmt.Sprintf("grid-jump-%d-%d", n, max), check: func(t *testing.T, opts Options, sym bool) latticeRun {
		return runLattice(t, build, opts, sym)
	}, ref: func(sym bool) referenceRun { return referenceBFS(build(sym), 0) }}
}

// latticeToggle is the cycle-proviso trap, with its violation or without.
func latticeToggle(planted bool) latticeSpec {
	build := func(sym bool) *Spec[toggleState] {
		spec := toggleSpec()
		if !planted {
			spec.Invariants = nil
		}
		if sym {
			spec.SymmetryVisitor = identityOrbit[toggleState]
		}
		return spec
	}
	return latticeSpec{name: fmt.Sprintf("toggle-planted=%t", planted), check: func(t *testing.T, opts Options, sym bool) latticeRun {
		return runLattice(t, build, opts, sym)
	}, ref: func(sym bool) referenceRun { return referenceBFS(build(sym), 0) }}
}

// TestOptionLattice runs every option combination against every lattice
// spec; see the file comment for what each accepted combination must match.
func TestOptionLattice(t *testing.T) {
	// Seeds whose spaces stay in the hundreds of states: a one-byte budget
	// with the arena writes every state and edge to disk on its own. 22 and
	// 43 have constraint cuts, 18 a reachable violation of its own.
	seeds := []int64{22, 43, 18, 20, 36, 41}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var specs []latticeSpec
	for _, seed := range seeds {
		specs = append(specs, latticeRandom(seed, false), latticeRandom(seed, true))
	}
	specs = append(specs,
		latticeGrid(3, 2, -1), latticeGrid(3, 3, 2), latticeJumpGrid(3, 3),
		latticeToggle(false), latticeToggle(true))

	for _, ls := range specs {
		for _, sym := range []bool{false, true} {
			oracle := ls.check(t, Options{Workers: 1, RecordGraph: true}, sym)
			if oracle.err != nil && !errors.Is(oracle.err, ErrInvariantViolated) {
				t.Fatalf("%s sym=%t: oracle failed: %v", ls.name, sym, oracle.err)
			}
			if oracle.unsound != "" {
				t.Fatalf("%s sym=%t: oracle graph: %s", ls.name, sym, oracle.unsound)
			}
			ref := ls.ref(sym)
			if d := referenceMismatch(ref, oracle); d != "" {
				t.Fatalf("%s sym=%t: oracle vs reference BFS: %s", ls.name, sym, d)
			}
			violated := oracle.err != nil
			// refs holds the Workers=1 level-sync reference per (POR,
			// budget): a spilled store sees a spilled state as fresh, which
			// steers the ample choice, so under POR the budget is part of
			// the reference.
			refs := map[[2]bool]latticeRun{}
			for _, opts := range latticeOptions() {
				label := fmt.Sprintf("%s sym=%t %+v", ls.name, sym, latticeLabel(opts))
				got := ls.check(t, opts, sym)
				if got.expectBad {
					if !errors.Is(got.err, ErrInvalidOptions) {
						t.Fatalf("%s: err = %v, want ErrInvalidOptions", label, got.err)
					}
					if got.initCalls != 0 {
						t.Fatalf("%s: rejected after calling Init %d times", label, got.initCalls)
					}
					continue
				}
				if errors.Is(got.err, ErrInvalidOptions) {
					t.Fatalf("%s: rejected a valid combination: %v", label, got.err)
				}
				if errors.Is(got.err, ErrInvariantViolated) != violated || (got.err != nil && !violated) {
					t.Fatalf("%s: err = %v, oracle err = %v", label, got.err, oracle.err)
				}
				if got.unsound != "" {
					t.Fatalf("%s: recorded graph: %s", label, got.unsound)
				}
				if violated && !got.validTrace {
					t.Fatalf("%s: counterexample %v via %v is not a behaviour ending in a violation", label, got.traceKeys, got.traceActs)
				}
				if !opts.PartialOrder && !violated {
					g, o := got.res, oracle.res
					if g.Distinct != o.Distinct || g.Transitions != o.Transitions || g.Terminal != o.Terminal {
						t.Fatalf("%s: distinct/transitions/terminal %d/%d/%d, oracle %d/%d/%d",
							label, g.Distinct, g.Transitions, g.Terminal, o.Distinct, o.Transitions, o.Terminal)
					}
				}
				if opts.PartialOrder && !violated && got.res.Distinct > oracle.res.Distinct {
					t.Fatalf("%s: POR explored %d states, unpruned oracle %d", label, got.res.Distinct, oracle.res.Distinct)
				}
				if !opts.PartialOrder {
					if d := referenceMismatch(ref, got); d != "" {
						t.Fatalf("%s: vs reference BFS: %s", label, d)
					}
				}
				refOpts := Options{Workers: 1, RecordGraph: true, PartialOrder: opts.PartialOrder}
				if opts.PartialOrder {
					refOpts.MemoryBudgetBytes = opts.MemoryBudgetBytes
				}
				key := [2]bool{refOpts.PartialOrder, refOpts.MemoryBudgetBytes > 0}
				w1, ok := refs[key]
				if !ok {
					w1 = ls.check(t, refOpts, sym)
					refs[key] = w1
				}
				if !reflect.DeepEqual(got.traceKeys, w1.traceKeys) || !reflect.DeepEqual(got.traceActs, w1.traceActs) {
					t.Fatalf("%s: counterexample %v via %v, level-sync reference %v via %v", label, got.traceKeys, got.traceActs, w1.traceKeys, w1.traceActs)
				}
				if opts.RecordGraph && !bytes.Equal(got.dot, w1.dot) {
					t.Fatalf("%s: WriteDOT differs from the level-sync reference (%d vs %d bytes)", label, len(got.dot), len(w1.dot))
				}
			}
		}
	}
}

// latticeOptions enumerates Workers {1,2,4} × PartialOrder ×
// MemoryBudgetBytes {0,1} × RecordGraph × CollisionFree. A budget selects
// arena retention, so budget 0 runs live and budget 1 in the arena.
func latticeOptions() []Options {
	var out []Options
	for _, w := range []int{1, 2, 4} {
		for _, por := range []bool{false, true} {
			for _, budget := range []int64{0, 1} {
				for _, graph := range []bool{false, true} {
					for _, exact := range []bool{false, true} {
						out = append(out, Options{Workers: w, PartialOrder: por,
							MemoryBudgetBytes: budget, RecordGraph: graph, CollisionFree: exact})
					}
				}
			}
		}
	}
	return out
}

func latticeLabel(o Options) string {
	return fmt.Sprintf("workers=%d por=%t budget=%d graph=%t collision-free=%t",
		o.Workers, o.PartialOrder, o.MemoryBudgetBytes, o.RecordGraph, o.CollisionFree)
}
