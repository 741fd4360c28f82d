package tla

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// gridState is n independent bounded counters — the canonical
// partial-order-reduction benchmark shape: every pair of increments of
// distinct counters commutes, so the full space is the product lattice and
// an ideal reduction explores a vanishing fraction of it.
type gridState struct {
	vals [4]int8 // fixed-size array: comparable, cheap Key
	n    int8
}

func (s gridState) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d", s.vals[0], s.vals[1], s.vals[2], s.vals[3])
}

func (s gridState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

// AppendBinary and DecodeBinary let the grid run under the arena. The
// counter count n is configuration, not state: the decoder recovers it from
// its receiver, the sample state the engine binds it to.
func (s gridState) AppendBinary(buf []byte) []byte {
	return append(buf, byte(s.vals[0]), byte(s.vals[1]), byte(s.vals[2]), byte(s.vals[3]))
}

func (s gridState) DecodeBinary(enc []byte) (gridState, error) {
	if len(enc) != 4 {
		return gridState{}, fmt.Errorf("gridState: decode: length %d, want 4", len(enc))
	}
	return gridState{vals: [4]int8{int8(enc[0]), int8(enc[1]), int8(enc[2]), int8(enc[3])}, n: s.n}, nil
}

// toggleState is the two-process state for TestPORCycleProviso: X toggles
// on a cycle, Y guards the only invariant violation.
type toggleState struct{ X, Y int8 }

func (s toggleState) Key() string {
	return fmt.Sprintf("%d/%d", s.X, s.Y)
}

func (s toggleState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s toggleState) AppendBinary(buf []byte) []byte { return append(buf, byte(s.X), byte(s.Y)) }

func (toggleState) DecodeBinary(enc []byte) (toggleState, error) {
	if len(enc) != 2 {
		return toggleState{}, fmt.Errorf("toggleState: decode: length %d, want 2", len(enc))
	}
	return toggleState{X: int8(enc[0]), Y: int8(enc[1])}, nil
}

// gridSpec builds the n-counter spec with per-counter bound max. Each
// counter is one action (Inc<i>) and one process; tripwire, when >= 0,
// adds an invariant that fires once counter 0 reaches it — visible on a
// single process's variable, the shape C2 requires.
func gridSpec(n int, max int8, tripwire int8) *Spec[gridState] {
	spec := &Spec[gridState]{
		Name: "Grid",
		Init: func() []gridState { return []gridState{{n: int8(n)}} },
		Independence: &Independence[gridState]{
			Procs: func(s gridState) int { return int(s.n) },
			Owner: func(s, succ gridState, act int) int {
				for i := 0; i < int(s.n); i++ {
					if s.vals[i] != succ.vals[i] {
						return i
					}
				}
				return -1
			},
		},
	}
	for i := 0; i < n; i++ {
		i := i
		spec.Actions = append(spec.Actions, Action[gridState]{
			Name: fmt.Sprintf("Inc%d", i),
			Next: func(s gridState) []gridState {
				if s.vals[i] >= max {
					return nil
				}
				c := s
				c.vals[i]++
				return []gridState{c}
			},
		})
	}
	if tripwire >= 0 {
		spec.Invariants = append(spec.Invariants, Invariant[gridState]{
			Name: "Counter0BelowTripwire",
			Check: func(s gridState) error {
				if s.vals[0] >= tripwire {
					return fmt.Errorf("counter 0 reached %d", s.vals[0])
				}
				return nil
			},
		})
	}
	return spec
}

// TestPORGridReduction pins the mechanism on the ideal case: the product
// lattice must collapse dramatically (the unpruned 4-counter space has
// (max+1)^4 states; the reduced one should be within a small multiple of
// the single representative path), and the verdict must match the oracle.
func TestPORGridReduction(t *testing.T) {
	full, err := Check(gridSpec(4, 4, -1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	por, err := Check(gridSpec(4, 4, -1), Options{PartialOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("grid 4x4: full=%d por=%d (%.1fx, %d ample states)",
		full.Distinct, por.Distinct, float64(full.Distinct)/float64(por.Distinct), por.AmpleStates)
	if full.Distinct != 5*5*5*5 {
		t.Fatalf("unpruned grid = %d states, want 625", full.Distinct)
	}
	if por.Distinct*10 > full.Distinct {
		t.Fatalf("ideal-case reduction too weak: %d of %d states explored", por.Distinct, full.Distinct)
	}
	if full.Terminal != por.Terminal {
		t.Fatalf("terminal counts differ: %d vs %d", full.Terminal, por.Terminal)
	}
}

// toggleSpec is the cycle-proviso trap: process 0 toggles X on a 2-cycle
// (always enabled, always "independent"), and the only invariant violation
// sits behind process 1's single move SetY.
func toggleSpec() *Spec[toggleState] {
	return &Spec[toggleState]{
		Name: "ToggleCycle",
		Init: func() []toggleState { return []toggleState{{}} },
		Actions: []Action[toggleState]{
			{Name: "Toggle", Next: func(s toggleState) []toggleState {
				return []toggleState{{X: 1 - s.X, Y: s.Y}}
			}},
			{Name: "SetY", Next: func(s toggleState) []toggleState {
				if s.Y == 1 {
					return nil
				}
				return []toggleState{{X: s.X, Y: 1}}
			}},
		},
		Invariants: []Invariant[toggleState]{
			{Name: "YNeverSet", Check: func(s toggleState) error {
				if s.Y == 1 {
					return fmt.Errorf("y was set")
				}
				return nil
			}},
		},
		Independence: &Independence[toggleState]{
			Procs: func(toggleState) int { return 2 },
			Owner: func(s, succ toggleState, act int) int {
				if s.X != succ.X {
					return 0
				}
				if s.Y != succ.Y {
					return 1
				}
				return -1
			},
		},
	}
}

// TestPORCycleProviso locks the C3 guarantee on a spec built to break a
// proviso-less reduction: process 0 toggles on a 2-cycle (its moves are
// always enabled and always "independent"), and the only invariant
// violation sits behind a process-1 move. A reduction that kept deferring
// past the toggle cycle would spin x between 0 and 1 forever and never
// explore y := 1; the queue proviso forces a full expansion as soon as the
// toggle's successors stop being fresh (after one lap), so the violation
// must be found — and must match the unpruned oracle's.
func TestPORCycleProviso(t *testing.T) {
	want, wantErr := Check(toggleSpec(), Options{Workers: 1})
	if !errors.Is(wantErr, ErrInvariantViolated) {
		t.Fatalf("oracle must find the violation, got %v", wantErr)
	}
	got, gotErr := Check(toggleSpec(), Options{PartialOrder: true, Workers: 2})
	if !errors.Is(gotErr, ErrInvariantViolated) {
		t.Fatalf("POR lost the violation behind the toggle cycle: %v", gotErr)
	}
	if got.Violation.Invariant != want.Violation.Invariant {
		t.Fatalf("violated %s, oracle violated %s", got.Violation.Invariant, want.Violation.Invariant)
	}
}

// TestPORRandomizedCrossCheck is the randomized oracle lock at the engine
// level: random small multi-counter specs — random counter bounds, a
// random per-process tripwire or none — must produce oracle-identical
// verdicts under POR across worker counts and spilled visited sets.
func TestPORRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed8))
	for i := 0; i < 25; i++ {
		n := 2 + rng.Intn(3) // 2..4 processes
		max := int8(1 + rng.Intn(4))
		tripwire := int8(-1)
		if rng.Intn(2) == 1 {
			tripwire = int8(1 + rng.Intn(int(max)+1))
		}
		desc := fmt.Sprintf("case %d: n=%d max=%d tripwire=%d", i, n, max, tripwire)
		want, wantErr := Check(gridSpec(n, max, tripwire), Options{Workers: 1})
		for _, opts := range []Options{
			{PartialOrder: true},
			{PartialOrder: true, Workers: 4},
			{PartialOrder: true, Workers: 2, MemoryBudgetBytes: 1},
		} {
			got, gotErr := Check(gridSpec(n, max, tripwire), opts)
			if errors.Is(wantErr, ErrInvariantViolated) != errors.Is(gotErr, ErrInvariantViolated) {
				t.Fatalf("%s (%+v): verdicts differ: oracle=%v por=%v", desc, opts, wantErr, gotErr)
			}
			if wantErr == nil && gotErr == nil {
				if got.Distinct > want.Distinct {
					t.Fatalf("%s (%+v): POR explored more states: %d > %d", desc, opts, got.Distinct, want.Distinct)
				}
				if got.Terminal != want.Terminal {
					t.Fatalf("%s (%+v): terminal counts differ: %d vs %d", desc, opts, got.Terminal, want.Terminal)
				}
			}
		}
	}
}

// TestPORDeterministicAcrossWorkers pins level-sync determinism under POR:
// the ample choice reads only claim freshness (which is resolved per level,
// not per worker) and the merge replays candidates in frontier order, so
// every counter of the result must be identical at every worker count.
func TestPORDeterministicAcrossWorkers(t *testing.T) {
	base, err := Check(gridSpec(4, 3, -1), Options{PartialOrder: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Check(gridSpec(4, 3, -1), Options{PartialOrder: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Distinct != base.Distinct || got.Transitions != base.Transitions ||
			got.AmpleStates != base.AmpleStates || got.DeferredTransitions != base.DeferredTransitions ||
			got.Terminal != base.Terminal || got.Depth != base.Depth {
			t.Fatalf("workers=%d diverged: %+v vs workers=1 %+v", workers, got, base)
		}
	}
}

// TestPORValidate pins that POR composes: every combination it supports
// passes Validate. (The spec-dependent rejection — no Independence
// declaration — is a row of TestOptionsRejectedBeforeExploring.)
func TestPORValidate(t *testing.T) {
	for _, opts := range []Options{
		{PartialOrder: true},
		{PartialOrder: true, MemoryBudgetBytes: 1 << 20},
		{PartialOrder: true, CollisionFree: true},
		{PartialOrder: true, CheckpointDir: "ck"},
	} {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}

// alternatingGridSpec is the symmetric grid reduced at every other level:
// the counters are interchangeable, and a process may form an ample set
// only while the counters' sum is odd. The even levels expand fully, so
// the odd ones are wide, and their states prune to different processes: a
// successor one state defers can be, up to symmetry, a successor a later
// state of the same level explores — one orbit, two concrete states.
func alternatingGridSpec() *Spec[gridState] {
	spec := gridSpec(3, 4, -1)
	spec.Independence.Safe = func(s gridState, p int) bool { return (s.vals[0]+s.vals[1]+s.vals[2])%2 == 1 }
	spec.SymmetryVisitor = gridOrbit
	return spec
}

// TestPORSymmetryKeepsProcessedState pins which concrete state a level
// installs when a chunk's candidates share a miss: the state of the first
// occurrence the merge processes, never that of a deferred one the proviso
// left unexplored. Every retained state must be a real successor, by its
// recorded action, of its recorded parent — checked on the concrete
// states, which symmetry does not identify — and the reduced space must be
// the same at every worker count.
func TestPORSymmetryKeepsProcessedState(t *testing.T) {
	var base *Result[gridState]
	for _, w := range []int{1, 2, 4} {
		for _, budget := range []int64{0, bigBudget} {
			label := fmt.Sprintf("workers=%d budget=%d", w, budget)
			res, err := Check(alternatingGridSpec(), Options{Workers: w, PartialOrder: true, MemoryBudgetBytes: budget, RecordGraph: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.AmpleStates == 0 || res.DeferredTransitions == 0 {
				t.Fatalf("%s: the reduction never pruned (%d ample states)", label, res.AmpleStates)
			}
			if d := parentLinksUnreal(alternatingGridSpec(), res.Graph); d != "" {
				t.Fatalf("%s: %s", label, d)
			}
			if base == nil {
				base = res
			} else if res.Distinct != base.Distinct || res.Transitions != base.Transitions ||
				res.AmpleStates != base.AmpleStates || res.DeferredTransitions != base.DeferredTransitions {
				t.Fatalf("%s: %d/%d/%d/%d, workers=1 %d/%d/%d/%d", label,
					res.Distinct, res.Transitions, res.AmpleStates, res.DeferredTransitions,
					base.Distinct, base.Transitions, base.AmpleStates, base.DeferredTransitions)
			}
			res.Graph.Close()
		}
	}
}

// parentLinksUnreal checks every retained state of g against its parent
// link: the link must be an explored transition — an edge of g — and the
// state, as retained, one of the successors the link's action takes the
// parent to, compared by Key. It returns the first breach, or "".
func parentLinksUnreal[S State](spec *Spec[S], g *Graph[S]) string {
	edges := map[Edge]bool{}
	if err := g.ForEachEdge(func(e Edge) error {
		edges[e] = true
		return nil
	}); err != nil {
		return err.Error()
	}
	for id := 0; id < g.Len(); id++ {
		m := g.ret.arena.rec(id)
		if m.parent < 0 {
			continue
		}
		from, act := int(m.parent), g.ret.acts[m.act]
		if !edges[Edge{From: from, Action: act, To: id}] {
			return fmt.Sprintf("state %d links to %d -%s->, a transition the run did not explore", id, from, act)
		}
		real := false
		for _, a := range spec.Actions {
			if a.Name == act {
				for _, succ := range a.Next(g.StateAt(from)) {
					real = real || succ.Key() == g.KeyAt(id)
				}
			}
		}
		if !real {
			return fmt.Sprintf("state %d (%s) is no %s successor of its parent %d (%s)", id, g.KeyAt(id), act, from, g.KeyAt(from))
		}
	}
	return ""
}
