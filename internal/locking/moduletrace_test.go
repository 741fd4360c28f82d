package locking

import (
	"fmt"
	"testing"

	"repro/internal/tla"
)

// This file implements the paper's §6 proposal: "generate traces from
// implementation modules running in a unit test framework, rather than an
// integration test of the entire multi-process system ... By testing
// modules in isolation, one could sacrifice realism in exchange for
// implementing MBTC cost-effectively." The lock manager is the module; its
// operation history is converted into full-state observations and checked
// against the Locking specification — no clocks, no log files, no
// post-processing.

// managerObs observes the complete per-actor lock holdings.
type managerObs struct {
	held [][3]int8
}

func (o managerObs) Matches(s SpecState) bool {
	if int(s.N) != len(o.held) {
		return false
	}
	for a := range o.held {
		if s.Held[a] != o.held[a] {
			return false
		}
	}
	return true
}

func (o managerObs) String() string { return fmt.Sprintf("%v", o.held) }

// snapshot converts manager state (for the given actors) into an
// observation. The manager does not expose modes; the test mirrors them.
type mirror struct {
	held [][3]int8
}

func newMirror(actors int) *mirror {
	m := &mirror{held: make([][3]int8, actors)}
	for a := range m.held {
		m.held[a] = [3]int8{-1, -1, -1}
	}
	return m
}

func (m *mirror) obs() managerObs {
	cp := make([][3]int8, len(m.held))
	copy(cp, m.held)
	return managerObs{held: cp}
}

// TestModuleLevelMBTCConforming: a lock-discipline-respecting usage of the
// manager produces a trace the Locking specification accepts.
func TestModuleLevelMBTCConforming(t *testing.T) {
	spec := Spec(SpecConfig{Actors: 2})
	mgr := NewManager()
	mir := newMirror(2)
	trace := []tla.Observation[SpecState]{mir.obs()}

	acquire := func(actor int, res Resource, mode Mode) {
		t.Helper()
		if err := mgr.TryAcquire(actor+1, res, mode); err != nil {
			t.Fatal(err)
		}
		mir.held[actor][res.Level] = int8(mode)
		trace = append(trace, mir.obs())
	}
	release := func(actor int, res Resource) {
		t.Helper()
		if err := mgr.Release(actor+1, res); err != nil {
			t.Fatal(err)
		}
		mir.held[actor][res.Level] = -1
		trace = append(trace, mir.obs())
	}

	// Actor 0 writes the oplog; actor 1 reads concurrently with intents.
	acquire(0, Global, IX)
	acquire(1, Global, IS)
	acquire(0, ReplState, IX)
	acquire(1, ReplState, IS)
	acquire(0, Oplog, X)
	release(0, Oplog)
	acquire(1, Oplog, S)
	release(1, Oplog)
	release(0, ReplState)
	release(1, ReplState)
	release(0, Global)
	release(1, Global)

	res, err := tla.CheckTrace(spec, trace)
	if err != nil {
		t.Fatalf("module trace diverged: %v", err)
	}
	if !res.OK || res.Steps != len(trace) {
		t.Fatalf("res = %+v", res)
	}
}

// TestModuleLevelMBTCFindsPermissiveness: the manager is more permissive
// than the specification — it allows taking an exclusive leaf lock without
// the parent intent locks (it only enforces ordering, not the intent
// protocol). Module-level trace checking exposes the gap immediately: the
// same divergence-detection value the paper got from whole-system MBTC, at
// a fraction of the cost. (§6: "one could sacrifice realism in exchange
// for implementing MBTC cost-effectively".)
func TestModuleLevelMBTCFindsPermissiveness(t *testing.T) {
	spec := Spec(SpecConfig{Actors: 2})
	mgr := NewManager()
	mir := newMirror(2)
	trace := []tla.Observation[SpecState]{mir.obs()}

	// The implementation happily grants X on the oplog with no intents.
	if err := mgr.TryAcquire(1, Oplog, X); err != nil {
		t.Fatalf("manager refused what it (unfortunately) permits: %v", err)
	}
	mir.held[0][Oplog.Level] = int8(X)
	trace = append(trace, mir.obs())

	res, err := tla.CheckTrace(spec, trace)
	if err == nil || res.OK {
		t.Fatal("specification accepted an intent-free exclusive grant")
	}
	if res.FailedStep != 1 {
		t.Fatalf("failed step = %d", res.FailedStep)
	}
}
