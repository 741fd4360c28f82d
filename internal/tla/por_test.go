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

// toggleState is the two-process state for TestPORCycleProviso: X toggles
// on a cycle, Y guards the only invariant violation.
type toggleState struct{ X, Y int8 }

func (s toggleState) Key() string {
	return fmt.Sprintf("%d/%d", s.X, s.Y)
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
	if !por.PartialOrder {
		t.Fatal("Result.PartialOrder = false on a declaring spec")
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

// TestPORCycleProviso locks the C3 guarantee on a spec built to break a
// proviso-less reduction: process 0 toggles on a 2-cycle (its moves are
// always enabled and always "independent"), and the only invariant
// violation sits behind a process-1 move. A reduction that kept deferring
// past the toggle cycle would spin x between 0 and 1 forever and never
// explore y := 1; the queue proviso forces a full expansion as soon as the
// toggle's successors stop being fresh (after one lap), so the violation
// must be found — and must match the unpruned oracle's.
func TestPORCycleProviso(t *testing.T) {
	build := func() *Spec[toggleState] {
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
	want, wantErr := Check(build(), Options{Workers: 1})
	if !errors.Is(wantErr, ErrInvariantViolated) {
		t.Fatalf("oracle must find the violation, got %v", wantErr)
	}
	for _, schedule := range []Schedule{ScheduleLevelSync, ScheduleWorkSteal} {
		got, gotErr := Check(build(), Options{PartialOrder: true, Schedule: schedule, Workers: 2})
		if !errors.Is(gotErr, ErrInvariantViolated) {
			t.Fatalf("%s: POR lost the violation behind the toggle cycle: %v", schedule, gotErr)
		}
		if got.Violation.Invariant != want.Violation.Invariant {
			t.Fatalf("%s: violated %s, oracle violated %s", schedule, got.Violation.Invariant, want.Violation.Invariant)
		}
	}
}

// TestPORRandomizedCrossCheck is the randomized oracle lock at the engine
// level: random small multi-counter specs — random counter bounds, a
// random per-process tripwire or none — must produce oracle-identical
// verdicts under POR across both schedules and spilled visited sets.
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
			{PartialOrder: true, Workers: 4, Schedule: ScheduleWorkSteal},
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

// TestPORWithoutDeclarationIsNoOp pins the resolution contract: requesting
// PartialOrder on a spec with no Independence declaration runs the plain
// engine — identical counters, Result.PartialOrder false (the bit the CLIs
// key their "requested but inactive" warning on).
func TestPORWithoutDeclarationIsNoOp(t *testing.T) {
	plain, err := Check(counterSpec(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	por, err := Check(counterSpec(6), Options{PartialOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if por.PartialOrder {
		t.Fatal("Result.PartialOrder = true without a declaration")
	}
	if por.Distinct != plain.Distinct || por.Transitions != plain.Transitions || por.AmpleStates != 0 {
		t.Fatalf("no-op POR changed results: %+v vs %+v", por, plain)
	}
}

// TestPORValidate pins the option combination POR rejects up front:
// MaxDepth would cut a different state set than the unpruned run once
// deferral moves interleavings to other depths.
func TestPORValidate(t *testing.T) {
	if err := (Options{PartialOrder: true, MaxDepth: 3}).Validate(); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("max depth: Validate = %v, want ErrInvalidOptions", err)
	}
	// The combinations POR explicitly supports must stay valid.
	for _, opts := range []Options{
		{PartialOrder: true},
		{PartialOrder: true, MemoryBudgetBytes: 1 << 20},
		{PartialOrder: true, CollisionFree: true},
		{PartialOrder: true, StateArena: true},
		{PartialOrder: true, Schedule: ScheduleWorkSteal},
	} {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}
