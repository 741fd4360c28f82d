package main

import (
	"testing"

	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// counts is everything a Result says about the explored space.
type counts struct {
	distinct, transitions, depth, terminal, cuts, ample, deferred int
}

func countsOf[S tla.State](t *testing.T, spec *tla.Spec[S], opts tla.Options) counts {
	t.Helper()
	res, err := tla.Check(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return counts{res.Distinct, res.Transitions, res.Depth, res.Terminal, res.ConstraintCuts, res.AmpleStates, res.DeferredTransitions}
}

// equivalent checks that the instrumented copy of spec explores exactly
// what spec explores, and that the probe saw all of it.
func equivalent[S tla.State](t *testing.T, spec *tla.Spec[S], opts tla.Options) {
	t.Helper()
	ws, p := instrument(spec, 7)
	for _, w := range []int{1, 2} {
		opts.Workers = w
		p.sampling = w == 1
		bare, wrapped := countsOf(t, spec, opts), countsOf(t, ws, opts)
		if bare != wrapped {
			t.Errorf("workers %d: bare %+v, instrumented %+v", w, bare, wrapped)
		}
		tot := p.take()
		expanded := int(tot.next.calls) / len(spec.Actions)
		if int(tot.next.calls)%len(spec.Actions) != 0 || expanded > bare.distinct || expanded < bare.distinct-bare.cuts {
			t.Errorf("workers %d: %d Next calls over %d actions for %d states (%d cut)", w, tot.next.calls, len(spec.Actions), bare.distinct, bare.cuts)
		}
		if opts.PartialOrder {
			if got := int(tot.next.items) - bare.deferred; got != bare.transitions {
				t.Errorf("workers %d: %d successors − %d deferred = %d, want %d transitions", w, tot.next.items, bare.deferred, got, bare.transitions)
			}
		} else if int(tot.next.items) != bare.transitions {
			t.Errorf("workers %d: probe saw %d successors, result has %d transitions", w, tot.next.items, bare.transitions)
		}
		if len(spec.Invariants) > 0 && int(tot.invariant.calls) != bare.distinct*len(spec.Invariants) {
			t.Errorf("workers %d: %d invariant calls for %d states × %d invariants", w, tot.invariant.calls, bare.distinct, len(spec.Invariants))
		}
		if (spec.SymmetryVisitor != nil) != (tot.orbit.calls > 0) {
			t.Errorf("workers %d: orbit calls %d with symmetry %v", w, tot.orbit.calls, spec.SymmetryVisitor != nil)
		}
		if w == 1 && (p.seen != expanded || len(p.samples) != min(expanded, reservoirSize)) {
			t.Errorf("reservoir saw %d of %d expanded states, kept %d", p.seen, expanded, len(p.samples))
		}
		p.seen, p.samples = 0, nil
	}
	if again := p.take(); again.specBusy().calls != 0 {
		t.Errorf("take did not reset the accumulators: %+v", again)
	}
}

func TestInstrumentedSpecEquivalence(t *testing.T) {
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	sym := small
	sym.Symmetric = true
	t.Run("raftmongo-v1", func(t *testing.T) { equivalent(t, raftmongo.SpecV1(small), tla.Options{}) })
	t.Run("raftmongo-v2", func(t *testing.T) { equivalent(t, raftmongo.SpecV2(small), tla.Options{}) })
	t.Run("raftmongo-v2-symmetry-por", func(t *testing.T) {
		equivalent(t, raftmongo.SpecV2(sym), tla.Options{PartialOrder: true})
	})
	t.Run("locking-worksteal", func(t *testing.T) {
		spec := locking.Spec(locking.SpecConfig{Actors: 3})
		ws, _ := instrument(spec, 7)
		opts := tla.Options{Workers: 2, Schedule: tla.ScheduleWorkSteal}
		bare, wrapped := countsOf(t, spec, opts), countsOf(t, ws, opts)
		bare.depth, wrapped.depth = 0, 0 // work-stealing does not fix the depth
		if bare != wrapped {
			t.Errorf("bare %+v, instrumented %+v", bare, wrapped)
		}
	})
	t.Run("locking", func(t *testing.T) {
		equivalent(t, locking.Spec(locking.SpecConfig{Actors: 3}), tla.Options{})
	})
}

func TestReplayMeasuresEveryCodecCost(t *testing.T) {
	spec := raftmongo.SpecV1(raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2})
	ws, p := instrument(spec, 7)
	p.sampling = true
	countsOf(t, ws, tla.Options{Workers: 1})
	c := p.replay(spec)
	if c.states != len(p.samples) || c.states == 0 || c.successors == 0 {
		t.Fatalf("replayed %d states, %d successors", c.states, c.successors)
	}
	for name, v := range map[string]float64{
		"next ns": c.nextNsPerSucc, "next allocs": c.nextAllocsPerSucc, "encode ns": c.encodeNs,
		"encode bytes": c.encodeBytes, "key ns": c.keyNs, "decode ns": c.decodeNs,
		"fingerprint ns": c.fingerprintNs, "fingerprint MB/s": c.fingerprintMBs,
	} {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

func TestPredicateSamplingScalesToAllCalls(t *testing.T) {
	a := acc{every: 4}
	for i := 0; i < 40; i++ {
		a.exit(a.enter(), 1)
	}
	if got := a.read(); got.calls != 40 || got.items != 40 || a.timed.Load() != 10 {
		t.Errorf("read = %+v, timed %d", got, a.timed.Load())
	}
	a.drain()
	if got := a.read(); got != (tally{}) {
		t.Errorf("after drain: %+v", got)
	}
}
