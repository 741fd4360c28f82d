package tla

import (
	"sync"
	"sync/atomic"
)

// Successor generation and first-sight checks for the level-synchronized
// engine (engine.go: the run, its chunk plan and merge passes):
//
//   - one expander per worker runs the guarded Next loop, encodes and
//     fingerprints every successor of a state, probes them in the visited
//     set as one batch, and orders the successors ample-first under
//     partial-order reduction (its chunk then buffers each distinct miss
//     once);
//   - verdict (invariants, then the constraint) judges each state the
//     first time it is seen, an initial state or one a merge settles;
//   - runControl holds the run's stop flag and its first terminal outcome.

// runControl is a run's shared stop flag and its outcome: the first
// terminal condition — an invariant violation, a recovered spec panic or a
// run error — wins, stops the workers, and is turned into the verdict by
// levelSync.finish. A fired Options.Context sets stop too (context.AfterFunc).
type runControl struct {
	stop atomic.Bool
	mu   sync.Mutex
	pi   *panicInfo
	// violID/violInv/violErr record the first invariant violation; the
	// trace is reconstructed by finish.
	violID      int
	violInv     string
	violErr     error
	runErr      error // ErrStateLimit, an I/O failure, a failed checkpoint
	interrupted bool  // the driver wound down on a canceled Options.Context
}

func (c *runControl) recordPanic(pi *panicInfo) {
	c.mu.Lock()
	if c.pi == nil {
		c.pi = pi
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// fail records err as the run's outcome unless a violation or an earlier
// error came first, and stops the workers.
func (c *runControl) fail(err error) {
	c.mu.Lock()
	if c.runErr == nil && c.violErr == nil {
		c.runErr = err
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// violate records the violation of invariant inv at state id unless a
// violation or an error came first, and stops the workers.
func (c *runControl) violate(id int, inv string, err error) {
	c.mu.Lock()
	if c.violErr == nil && c.runErr == nil {
		c.violID, c.violInv, c.violErr = id, inv, err
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// recoverSpec, deferred by every goroutine that runs spec callbacks, parks
// a panic raised inside one (g armed) as the run's panic; any other panic
// is an engine bug and re-panics.
func (c *runControl) recoverSpec(g *specGuard) {
	if r := recover(); r != nil {
		c.recordPanic(g.capture(r))
	}
}

// verdict checks a first-sighted state's invariants, returning the first
// violated one's name and error, then its constraint: within says whether
// the state's successors may be explored.
func (l *levelSync[S]) verdict(x *expander[S], s S, id int) (inv string, within bool, err error) {
	for _, i := range l.spec.Invariants {
		x.g.enter(opInvariant, i.Name, id)
		err := i.Check(s)
		x.g.exit()
		if err != nil {
			return i.Name, false, err
		}
	}
	return "", l.within(x, s, id), nil
}

// within evaluates the constraint on s; a panic is attributed to state id.
func (l *levelSync[S]) within(x *expander[S], s S, id int) bool {
	x.g.enter(opConstraint, "", id)
	ok := l.spec.Constraint == nil || l.spec.Constraint(s)
	x.g.exit()
	return ok
}

// expander is one worker's successor generator. Like the codec it owns, it
// persists for the whole run and is used by one goroutine at a time; its
// buffers grow to the widest fan-out once and are reused.
type expander[S State] struct {
	spec    *Spec[S]
	cod     *codec[S]
	g       specGuard      // which spec callback this worker is inside
	planner *porPlanner[S] // nil without partial-order reduction
	vs      *visitedSet    // probed for every successor's canonical encoding
	keys    bool           // the merge reads a miss's encoding, so the chunk keeps it
	graph   bool           // a graph is recorded: a hit is a candidate, and its id is read

	succs []S
	acts  []int     // per successor: index into spec.Actions
	ids   []int     // per successor: -1 on a miss; on a hit the id if graph, else 0
	fps   []uint64  // per successor: its encoding's fingerprint (stateFP)
	ends  []int32   // per successor: where its encoding ends in encs
	encs  []byte    // the successors' canonical encodings, back to back
	homes []uint64  // probeBatch's gathered home fingerprint words
	order []int     // emission order: indices into succs, ample first
	seen  missTable // the chunk's shared misses (engine.go)
}

// expand generates every successor of state s (id) into x.succs, encodes
// and fingerprints them all into x.encs and x.fps, then probes them in the
// visited set as one batch into x.ids — gather every home fingerprint
// word, then resolve each successor (visitedSet.probeBatch), reading a
// hit's id only when a graph is recorded — and fills x.order with
// the order to process them in. It returns the successor count n and,
// when partial-order reduction prunes the state, the number k of ample
// successors heading x.order — the merge processes the deferred
// x.order[k:] only if the cycle proviso (see por.go) rejects the ample
// set; k is -1 when the state is fully expanded.
func (x *expander[S]) expand(s S, id int) (n, k int) {
	x.succs, x.acts, x.order = x.succs[:0], x.acts[:0], x.order[:0]
	for ai := range x.spec.Actions {
		a := &x.spec.Actions[ai]
		x.g.enter(opNext, a.Name, id)
		succs := a.Next(s)
		x.g.exit()
		for _, succ := range succs {
			x.succs = append(x.succs, succ)
			x.acts = append(x.acts, ai)
		}
	}
	n = len(x.succs)
	x.fps, x.ends, x.encs = x.fps[:0], x.ends[:0], x.encs[:0]
	for t := range x.succs {
		lo := len(x.encs)
		x.g.enter(opEncode, x.actName(t), id)
		x.encs = x.cod.appendCanonical(x.succs[t], x.encs)
		x.g.exit()
		x.fps = append(x.fps, stateFP(x.encs[lo:]))
		x.ends = append(x.ends, int32(len(x.encs)))
	}
	x.ids, x.homes = x.vs.probeBatch(x.fps, x.encs, x.ends, x.graph, x.ids, x.homes)
	if x.planner != nil {
		if proc := x.planner.choose(s, x.succs, x.acts, x.ids, &x.g); proc >= 0 {
			for t, o := range x.planner.owners {
				if o == proc {
					x.order = append(x.order, t)
				}
			}
			k = len(x.order)
			for t, o := range x.planner.owners {
				if o != proc {
					x.order = append(x.order, t)
				}
			}
			return n, k
		}
	}
	for t := 0; t < n; t++ {
		x.order = append(x.order, t)
	}
	return n, -1
}

// actName is the action name of successor t.
func (x *expander[S]) actName(t int) string { return x.spec.Actions[x.acts[t]].Name }

// enc returns the canonical encoding of successor t.
func (x *expander[S]) enc(t int) []byte {
	lo := int32(0)
	if t > 0 {
		lo = x.ends[t-1]
	}
	return x.encs[lo:x.ends[t]]
}

// push appends vs to s, doubling s's capacity when it is full. The
// level-sync chunk buffers grow once, to the widest level, and are reused
// after; append grows a large slice by about a quarter at a time, which
// allocates several times the final size on the way.
func push[T any](s []T, vs ...T) []T {
	if n := len(s) + len(vs); n > cap(s) {
		s = append(make([]T, 0, 2*n), s...)
	}
	return append(s, vs...)
}
