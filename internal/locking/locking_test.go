package locking

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/tla"
)

func TestCompatibilityMatrix(t *testing.T) {
	// The MGL matrix is symmetric; X is incompatible with everything.
	for _, a := range []Mode{IS, IX, S, X} {
		for _, b := range []Mode{IS, IX, S, X} {
			if Compatible(a, b) != Compatible(b, a) {
				t.Errorf("matrix asymmetric at %s/%s", a, b)
			}
			if a == X && Compatible(a, b) {
				t.Errorf("X compatible with %s", b)
			}
		}
	}
	if !Compatible(IS, IX) || !Compatible(IS, S) || Compatible(IX, S) {
		t.Error("matrix entries wrong")
	}
}

func TestOrderedAcquisition(t *testing.T) {
	m := NewManager()
	if err := m.TryAcquire(1, Global, IX); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(1, ReplState, IX); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(1, Oplog, X); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, Oplog) {
		t.Fatal("grant not recorded")
	}
	m.ReleaseAll(1)
	if m.Holds(1, Global) || m.Holds(1, Oplog) {
		t.Fatal("release-all left grants")
	}
}

// TestFigure5Scenario reproduces the paper's deadlock-risk example: a
// caller (becomeLeader) holds locks A (Global) and C (Oplog); the trace
// logger then needs lock B (ReplState), which is out of order — the
// manager refuses rather than risking deadlock.
func TestFigure5Scenario(t *testing.T) {
	m := NewManager()
	if err := m.TryAcquire(1, Global, IX); err != nil { // lock A
		t.Fatal(err)
	}
	if err := m.TryAcquire(1, Oplog, X); err != nil { // lock C
		t.Fatal(err)
	}
	err := m.TryAcquire(1, ReplState, IX) // lock B: wrong order
	if !errors.Is(err, ErrLockOrder) {
		t.Fatalf("err = %v, want ErrLockOrder", err)
	}
	_, orderFailures, _ := m.Stats()
	if orderFailures != 1 {
		t.Fatalf("order failures = %d", orderFailures)
	}
}

func TestConflictRefused(t *testing.T) {
	m := NewManager()
	if err := m.TryAcquire(1, Global, X); err != nil {
		t.Fatal(err)
	}
	err := m.TryAcquire(2, Global, IS)
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("err = %v", err)
	}
	// Compatible intent modes coexist.
	if err := m.Release(1, Global); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(1, Global, IX); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(2, Global, IS); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseErrors(t *testing.T) {
	m := NewManager()
	if err := m.Release(1, Global); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("err = %v", err)
	}
	if err := m.TryAcquire(1, Global, IS); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(1, Global, IS); !errors.Is(err, ErrLockOrder) {
		t.Fatalf("re-acquire err = %v", err)
	}
}

// TestSpecModelChecks verifies the Locking specification: the MGL safety
// invariants hold over its whole state space (E14's second spec).
func TestSpecModelChecks(t *testing.T) {
	res, err := tla.Check(Spec(SpecConfig{Actors: 2}), tla.Options{})
	if err != nil {
		t.Fatalf("locking spec violation: %v", err)
	}
	if res.Distinct < 50 {
		t.Fatalf("suspiciously small: %d states", res.Distinct)
	}
	t.Logf("Locking spec: %d states", res.Distinct)
}

func TestSpecThreeActors(t *testing.T) {
	res, err := tla.Check(Spec(SpecConfig{Actors: 3}), tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Locking spec (3 actors): %d states", res.Distinct)
}

// TestManagerConformsToSpec: random manager histories stay within the
// specification's reachable safety envelope (a lightweight MBTC at module
// level — the unit-scale trace-checking the paper's §6 recommends).
func TestManagerConformsToSpec(t *testing.T) {
	f := func(script []uint8) bool {
		m := NewManager()
		// Track per-actor holdings and replay compatibility invariant.
		for _, b := range script {
			actor := int(b>>6)%2 + 1
			res := resources[int(b>>3)%3]
			mode := Mode(b % 4)
			if b%2 == 0 {
				_ = m.TryAcquire(actor, res, mode)
			} else {
				_ = m.Release(actor, res)
			}
			// Invariant: all concurrent grants compatible.
			for _, r := range resources {
				if m.Holds(1, r) && m.Holds(2, r) {
					// Compatibility was checked at grant time; we can't
					// read modes back, so assert via a fresh incompatible
					// probe: X must be refused for a third actor.
					if err := m.TryAcquire(3, r, X); err == nil {
						m.Release(3, r)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParallelCheckerAgrees cross-checks the parallel model checker against
// the sequential oracle on the Locking specification.
func TestParallelCheckerAgrees(t *testing.T) {
	for _, actors := range []int{2, 3} {
		seq, err := tla.Check(Spec(SpecConfig{Actors: actors}), tla.Options{Workers: 1, RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		par, err := tla.Check(Spec(SpecConfig{Actors: actors}), tla.Options{Workers: 4, RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		if par.Distinct != seq.Distinct || par.Transitions != seq.Transitions ||
			par.Depth != seq.Depth || par.Terminal != seq.Terminal {
			t.Fatalf("actors=%d: parallel %d/%d/%d/%d, sequential %d/%d/%d/%d",
				actors, par.Distinct, par.Transitions, par.Depth, par.Terminal,
				seq.Distinct, seq.Transitions, seq.Depth, seq.Terminal)
		}
		var seqDOT, parDOT bytes.Buffer
		if err := errors.Join(seq.Graph.WriteDOT(&seqDOT, "Locking"), par.Graph.WriteDOT(&parDOT, "Locking")); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parDOT.Bytes(), seqDOT.Bytes()) {
			t.Fatalf("actors=%d: recorded graphs differ", actors)
		}
	}
}
