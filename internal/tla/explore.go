package tla

import (
	"sync"
	"sync/atomic"
)

// The exploration core the level-synchronized driver (engine.go: chunk
// plan, merge passes) runs on:
//
//   - successor generation: one expander per worker runs the guarded Next
//     loop, probes each successor in the visited set, keeping a miss's
//     fingerprint and encoding, and orders the successors ample-first
//     under partial-order reduction (its chunk then buffers each distinct
//     miss once, engine.go);
//   - first-sight registration: install (the MaxStates bound, then
//     retention, storing the encoding deduplication already computed) for
//     initial states, and verdict (invariants, then the constraint), which
//     the merge also runs for the states each level discovers;
//   - the run lifecycle: Result, retainer and codecs, the graph view,
//     stopper, progress ticker, Init registration, and one finish that
//     turns the run's outcome into (Result, error).

// explorer is one checking run's state shared by the driver and its
// workers.
type explorer[S State] struct {
	spec *Spec[S]
	opts Options
	res  *Result[S]
	ret  *retainer[S]
	cod  *codec[S] // worker 0's codec: the merge, trace and graph decoder
	em   *engineMetrics
	xs   []*expander[S] // one per worker

	st     *stopper
	snap   *progressSnap // non-nil iff a ProgressEvery ticker runs
	ticker *progressTicker

	runControl
}

// runControl is a run's shared stop flag and its outcome: the first
// terminal condition — an invariant violation, a recovered spec panic or a
// run error — wins, stops the workers, and is turned into the verdict by
// explorer.finish. The stopper sets stop too: one flag serves every cause.
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
	interrupted bool  // the driver wound down on the stopper
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

// newExplorer sets up a run: the Result, the retainer, one expander (codec
// clone, spec guard, POR planner) per worker, the graph view when asked
// for, and the stopper.
func newExplorer[S State](spec *Spec[S], opts Options, workers int, em *engineMetrics) *explorer[S] {
	r := &explorer[S]{spec: spec, opts: opts, res: &Result[S]{Spec: spec.Name}, ret: newRetainer(spec, opts, em), em: em}
	r.cod = newCodec(spec)
	ind := activeIndependence(spec, opts)
	r.xs = make([]*expander[S], workers)
	for w := range r.xs {
		r.xs[w] = &expander[S]{spec: spec, cod: r.cod, planner: newPORPlanner(ind, em)}
		if w > 0 {
			r.xs[w].cod = r.cod.clone()
		}
	}
	if opts.RecordGraph {
		r.res.Graph = &Graph[S]{ret: r.ret, cod: r.cod, workers: workers}
		r.ret.graphOwned = true
	}
	r.st = newStopper(opts.Context, func() { r.stop.Store(true) })
	return r
}

// startProgress starts the ProgressEvery ticker, if configured. Each tick
// delivers the snapshot the driver keeps to Options.Progress; close stops
// the ticker with one final delivery.
func (r *explorer[S]) startProgress() {
	if r.opts.ProgressEvery <= 0 {
		return
	}
	r.snap = &progressSnap{}
	r.ticker = startProgressTicker(r.opts.ProgressEvery, func() {
		if r.opts.Progress != nil {
			r.opts.Progress(r.snap.load())
		}
	})
}

// close is the run's teardown, deferred by the driver with the error the
// run returns: the final progress delivery; then a run that failed without
// a violation discards its graph so the spill file is not leaked behind a
// result nobody will traverse (a violation keeps it: callers dump it
// alongside the counterexample); then the retainer's spill file, honouring
// that ownership verdict; then the stopper's watcher.
func (r *explorer[S]) close(err error) {
	r.ticker.stop()
	if r.res.Graph != nil && err != nil && r.res.Violation == nil {
		r.ret.graphOwned = false
		r.res.Graph = nil
	}
	r.ret.close()
	r.st.close()
}

// finish settles the Result after the driver returned and every worker
// joined. Precedence: a found violation is a complete verdict and wins;
// then a recovered spec panic; then the run error; then the interruption,
// with the partial counters.
func (r *explorer[S]) finish() (*Result[S], error) {
	res := r.res
	res.Distinct = r.ret.len()
	if r.ret.degradedMemory() {
		res.DegradedMemory = true
	}
	switch {
	case r.violErr != nil:
		trace, acts, err := safeTrace(r.cod, r.ret, r.violID)
		if err != nil {
			return res, err
		}
		res.Violation = &Violation[S]{Invariant: r.violInv, Err: r.violErr, Trace: trace, TraceActs: acts}
		return res, res.Violation
	case r.pi != nil:
		return res, specPanicError(r.cod, r.ret, r.pi)
	case r.runErr != nil:
		return res, r.runErr
	case r.interrupted:
		res.Interrupted = true
		return res, r.st.err()
	}
	return res, nil
}

// registerInits calls Init under x's guard, rebinds the run's decoder to a
// real initial state (decoders may carry run configuration the zero value
// lacks — see BinaryDecoder), and registers each initial state through reg,
// recording the graph's Inits, until reg reports the run over.
func (r *explorer[S]) registerInits(x *expander[S], reg func(S) (id int, more bool)) {
	x.g.enter(opInit, "", -1)
	inits := r.spec.Init()
	x.g.exit()
	if len(inits) > 0 {
		r.cod.bindDecoder(inits[0])
	}
	for _, s := range inits {
		id, more := reg(s)
		if r.res.Graph != nil && id >= 0 {
			r.res.Graph.Inits = append(r.res.Graph.Inits, id)
		}
		if !more {
			return
		}
	}
}

// install registers an initial state and returns its dense id: the
// MaxStates bound, then retention. enc is the state's canonical encoding,
// which the arena stores as is: without symmetry it is the plain encoding
// already. Under symmetry it names the orbit, and the arena needs the
// exact state explored, so only then is s encoded again. (The merge
// settles the states each level discovers in its own passes.)
func (r *explorer[S]) install(x *expander[S], s S, enc []byte) (int, error) {
	id := r.ret.len()
	if r.opts.MaxStates > 0 && id >= r.opts.MaxStates {
		return -1, ErrStateLimit
	}
	if r.ret.decode && x.cod.sym != nil {
		x.g.enter(opEncode, "", -1)
		x.plain = x.cod.encode(s, x.plain[:0])
		x.g.exit()
		enc = x.plain
	}
	r.ret.add(s, enc, -1, 0, 0)
	return id, nil
}

// verdict checks a first-sighted state's invariants, returning the first
// violated one's name and error, then its constraint: within says whether
// the state's successors may be explored.
func (r *explorer[S]) verdict(x *expander[S], s S, id int) (inv string, within bool, err error) {
	for _, i := range r.spec.Invariants {
		x.g.enter(opInvariant, i.Name, id)
		err := i.Check(s)
		x.g.exit()
		if err != nil {
			return i.Name, false, err
		}
	}
	return "", r.within(x, s, id), nil
}

// within evaluates the constraint on s; a panic is attributed to state id.
func (r *explorer[S]) within(x *expander[S], s S, id int) bool {
	x.g.enter(opConstraint, "", id)
	ok := r.spec.Constraint == nil || r.spec.Constraint(s)
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

	succs []S
	acts  []int     // per successor: index into spec.Actions
	ids   []int     // per successor: the probe's id on a hit, -1 on a miss
	fps   []uint64  // per successor: its encoding's fingerprint
	ends  []int32   // per successor: where a miss's encoding ends in encs
	encs  []byte    // the misses' encodings, back to back
	order []int     // emission order: indices into succs, ample first
	plain []byte    // install's plain-encoding scratch (symmetry only)
	seen  missTable // the chunk's shared misses (engine.go)
}

// expand generates every successor of state s (id) into x.succs, probes
// each one's canonical encoding in the visited set, keeping a miss's
// fingerprint and encoding, and fills x.order with the order to process
// them in. It returns the successor count n and, when partial-order
// reduction prunes the state, the number k of ample successors heading
// x.order — the driver explores the deferred x.order[k:] only if the
// cycle proviso (see por.go) rejects the ample set; k is -1 when the state
// is fully expanded.
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
	x.ids, x.fps, x.ends, x.encs = x.ids[:0], x.fps[:0], x.ends[:0], x.encs[:0]
	for t := range x.succs {
		x.g.enter(opEncode, x.actName(t), id)
		enc := x.cod.canonical(x.succs[t])
		x.g.exit()
		fp := fingerprint(enc)
		sid, ok := x.vs.probe(fp, enc)
		if !ok {
			sid = -1
			x.encs = append(x.encs, enc...)
		}
		x.ids = append(x.ids, sid)
		x.fps = append(x.fps, fp)
		x.ends = append(x.ends, int32(len(x.encs)))
	}
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

// enc returns the encoding of successor t, a probe miss.
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
