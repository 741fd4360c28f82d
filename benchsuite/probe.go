package main

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/tla"
)

// clockOverheadNs is what an empty timed region reads on this host: every
// measured closure duration includes it, so busy times subtract it per
// timed call. On a virtualised clock source it is tens of nanoseconds —
// as much as a cheap invariant costs.
var clockOverheadNs = func() int64 {
	ds := make([]float64, 4001)
	for i := range ds {
		t := nanos()
		ds[i] = float64(nanos() - t)
	}
	return int64(median(ds))
}()

// Every wrapped call is counted; one in nextEvery calls of Action.Next and
// of the orbit visitor, and one in predicateEvery calls of the cheap
// predicates (invariants, the constraint, Matches), is timed, and the mean
// is scaled up to all calls. Two clock reads cost 100 ns on this host:
// timing each of a million 20 ns Matches calls would cost several times
// the calls, and timing every Next call alone cost check-locking 10 %.
const (
	nextEvery      = 4
	predicateEvery = 16
)

// replayCap bounds how many successors the codec replay encodes, keys and
// decodes: a trace-checking state has forty successors and a 13 µs Key.
const replayCap = 16384

// reservoirSize is how many expanded states a probe keeps for replay.
const reservoirSize = 4096

// acc accumulates one wrapped closure's work across goroutines, padded to
// a cache line so neighbouring closures do not share one.
type acc struct {
	calls atomic.Int64 // closure calls
	items atomic.Int64 // successors returned, orbit images visited, observations matched
	timed atomic.Int64 // calls whose duration was measured
	ns    atomic.Int64 // their summed duration, clock overhead included
	every int64        // one call in every is timed
	_     [24]byte
}

// enter counts a call and returns its start time, or 0 if this call is
// not one of the timed ones.
func (a *acc) enter() int64 {
	if a.calls.Add(1)%a.every != 0 {
		return 0
	}
	return nanos()
}

func (a *acc) exit(t0 int64, items int) {
	if items != 0 {
		a.items.Add(int64(items))
	}
	if t0 != 0 {
		a.ns.Add(nanos() - t0)
		a.timed.Add(1)
	}
}

// tally is a settled reading of an acc.
type tally struct {
	calls, items int64
	busyNs       int64 // estimated time inside the closure, clock overhead removed
}

func (a *acc) read() tally {
	t := tally{calls: a.calls.Load(), items: a.items.Load()}
	if n := a.timed.Load(); n > 0 {
		per := float64(a.ns.Load())/float64(n) - float64(clockOverheadNs)
		t.busyNs = int64(max(per, 0) * float64(t.calls))
	}
	return t
}

func (t tally) plus(u tally) tally {
	return tally{t.calls + u.calls, t.items + u.items, t.busyNs + u.busyNs}
}

func (t tally) seconds() float64 { return float64(t.busyNs) / 1e9 }

// probe is the measuring side of an instrumented Spec: one accumulator
// per wrapped closure, and a reservoir of the states the engine expanded.
type probe[S tla.State] struct {
	next       []acc // per action; items = successors
	invariant  acc
	constraint acc
	orbit      acc // calls = states canonicalised, items = orbit images visited
	matches    acc // items = observations matched

	// sampling turns the reservoir on; set only around single-goroutine
	// (Workers: 1) passes, which is what keeps sample unsynchronised.
	sampling bool
	rng      *rand.Rand
	seen     int
	samples  []S
}

// probeTotals is one unit's reading of every accumulator.
type probeTotals struct {
	next                                  tally // all actions
	invariant, constraint, orbit, matches tally
}

// specBusy is the time spent in the spec package's code.
func (t probeTotals) specBusy() tally {
	return t.next.plus(t.invariant).plus(t.constraint).plus(t.orbit).plus(t.matches)
}

// drain reads and resets the accumulator.
func (a *acc) drain() tally {
	t := a.read()
	a.calls.Store(0)
	a.items.Store(0)
	a.timed.Store(0)
	a.ns.Store(0)
	return t
}

// take reads and resets every accumulator.
func (p *probe[S]) take() probeTotals {
	t := probeTotals{
		invariant:  p.invariant.drain(),
		constraint: p.constraint.drain(),
		orbit:      p.orbit.drain(),
		matches:    p.matches.drain(),
	}
	for i := range p.next {
		t.next = t.next.plus(p.next[i].drain())
	}
	return t
}

// spans records one busy span per layer of t under the unit span parent.
func (t probeTotals) spans(rec *recorder, parent, workers int) {
	for _, l := range []struct {
		name string
		t    tally
	}{{"spec.next", t.next}, {"spec.invariant", t.invariant}, {"spec.constraint", t.constraint},
		{"spec.orbit", t.orbit}, {"spec.matches", t.matches}} {
		if l.t.calls > 0 {
			rec.busySpan(parent, l.name, l.t.busyNs, l.t.calls, workers)
		}
	}
}

func (p *probe[S]) sample(s S) {
	p.seen++
	if len(p.samples) < reservoirSize {
		p.samples = append(p.samples, s)
		return
	}
	if j := p.rng.Intn(p.seen); j < reservoirSize {
		p.samples[j] = s
	}
}

// instrument returns a copy of spec whose Action.Next, Invariant.Check,
// Constraint and SymmetryVisitor closures report to a new probe. The copy
// explores exactly what spec explores: the wrappers add time, never
// behaviour (TestInstrumentedSpecEquivalence pins it).
func instrument[S tla.State](spec *tla.Spec[S], seed int64) (*tla.Spec[S], *probe[S]) {
	p := &probe[S]{
		next: make([]acc, len(spec.Actions)),
		rng:  rand.New(rand.NewSource(seed)),
	}
	for i := range p.next {
		p.next[i].every = nextEvery
	}
	p.orbit.every = nextEvery
	p.invariant.every, p.constraint.every, p.matches.every = predicateEvery, predicateEvery, predicateEvery
	w := *spec
	w.Actions = make([]tla.Action[S], len(spec.Actions))
	for i, a := range spec.Actions {
		next, a0, first := a.Next, &p.next[i], i == 0
		w.Actions[i] = tla.Action[S]{Name: a.Name, Next: func(s S) []S {
			// The engine calls every action on each state it expands, so
			// the first action's wrapper sees each expanded state once.
			if first && p.sampling {
				p.sample(s)
			}
			t0 := a0.enter()
			out := next(s)
			a0.exit(t0, len(out))
			return out
		}}
	}
	w.Invariants = make([]tla.Invariant[S], len(spec.Invariants))
	for i, inv := range spec.Invariants {
		check := inv.Check
		w.Invariants[i] = tla.Invariant[S]{Name: inv.Name, Check: func(s S) error {
			t0 := p.invariant.enter()
			err := check(s)
			p.invariant.exit(t0, 0)
			return err
		}}
	}
	if c := spec.Constraint; c != nil {
		w.Constraint = func(s S) bool {
			t0 := p.constraint.enter()
			ok := c(s)
			p.constraint.exit(t0, 0)
			return ok
		}
	}
	if factory := spec.SymmetryVisitor; factory != nil {
		w.SymmetryVisitor = func() tla.OrbitVisitor[S] {
			// One visitor per engine worker: cur and images are that
			// worker's alone, and counted is allocated once, not per state.
			inner := factory()
			var cur func(S)
			var images int
			counted := func(x S) { images++; cur(x) }
			return func(s S, visit func(S)) {
				cur, images = visit, 0
				t0 := p.orbit.enter()
				inner(s, counted)
				p.orbit.exit(t0, images)
			}
		}
	}
	return &w, p
}

// probedObs wraps one Observation so Matches reports to the probe.
type probedObs[S tla.State] struct {
	inner tla.Observation[S]
	a     *acc
}

func (o probedObs[S]) Matches(s S) bool {
	t0 := o.a.enter()
	ok := o.inner.Matches(s)
	n := 0
	if ok {
		n = 1
	}
	o.a.exit(t0, n)
	return ok
}

func (o probedObs[S]) String() string { return o.inner.String() }

func (p *probe[S]) observations(obs []tla.Observation[S]) []tla.Observation[S] {
	out := make([]tla.Observation[S], len(obs))
	for i, o := range obs {
		out[i] = probedObs[S]{inner: o, a: &p.matches}
	}
	return out
}

// replayCosts are single-goroutine unit costs measured by replaying the
// reservoir outside the engine: what one call costs with nothing else
// running, which is what the residual subtracts.
type replayCosts struct {
	states, successors                     int
	nextNsPerSucc, nextAllocsPerSucc       float64
	encodeNs, encodeBytes, keyNs, decodeNs float64
	fingerprintNs, fingerprintMBs          float64
}

var sink int // defeats dead-code elimination of replayed calls

// perItem runs pass (which handles n items) until 30 ms have gone by, at
// least three times, and returns the median nanoseconds per item.
func perItem(n int, pass func()) float64 {
	if n == 0 {
		return 0
	}
	var per []float64
	for start := time.Now(); len(per) < 3 || time.Since(start) < 30*time.Millisecond; {
		t0 := nanos()
		pass()
		per = append(per, float64(nanos()-t0)/float64(n))
	}
	return median(per)
}

// replay measures the bare spec's closures and the state codec on the
// sampled states and their successors.
func (p *probe[S]) replay(spec *tla.Spec[S]) replayCosts {
	c := replayCosts{states: len(p.samples)}
	var succs []S
	for _, s := range p.samples {
		for _, a := range spec.Actions {
			succs = append(succs, a.Next(s)...)
		}
	}
	c.successors = len(succs)
	if c.successors == 0 {
		return c
	}
	expand := func() {
		for _, s := range p.samples {
			for _, a := range spec.Actions {
				sink += len(a.Next(s))
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	expand()
	runtime.ReadMemStats(&after)
	c.nextAllocsPerSucc = float64(after.Mallocs-before.Mallocs) / float64(c.successors)
	c.nextNsPerSucc = perItem(c.successors, expand)
	if len(succs) > replayCap {
		succs = succs[:replayCap]
	}

	c.keyNs = perItem(len(succs), func() {
		for _, s := range succs {
			sink += len(s.Key())
		}
	})
	if _, ok := any(succs[0]).(tla.BinaryState); !ok {
		return c
	}
	var buf []byte
	var total int
	encs := make([][]byte, len(succs))
	for i, s := range succs {
		buf = any(s).(tla.BinaryState).AppendBinary(buf[:0])
		encs[i] = append([]byte(nil), buf...)
		total += len(buf)
	}
	c.encodeBytes = float64(total) / float64(len(succs))
	c.encodeNs = perItem(len(succs), func() {
		for _, s := range succs {
			buf = any(s).(tla.BinaryState).AppendBinary(buf[:0])
		}
	})
	c.fingerprintNs = perItem(len(encs), func() {
		for _, e := range encs {
			sink += int(tla.FingerprintBytes(e) & 1)
		}
	})
	if c.fingerprintNs > 0 {
		c.fingerprintMBs = c.encodeBytes / c.fingerprintNs * 1e9 / 1e6
	}
	if dec, ok := any(succs[0]).(tla.BinaryDecoder[S]); ok {
		c.decodeNs = perItem(len(encs), func() {
			for _, e := range encs {
				if _, err := dec.DecodeBinary(e); err != nil {
					panic(err) // decode∘encode is the identity by contract
				}
			}
		})
	}
	return c
}
