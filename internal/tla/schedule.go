package tla

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file implements the engine's second scheduling mode. The default
// level-synchronized loop (engine.go) buys determinism with a per-level
// barrier: every BFS level ends with all workers joining and one goroutine
// replaying the level's candidates. On wide-then-narrow state spaces the
// barrier leaves most workers idle at every level edge — the skew problem
// of any bulk-synchronous traversal.
//
// ScheduleWorkSteal drops the barrier entirely. Each worker owns a deque
// of pending states: it pushes and pops at the bottom (LIFO, keeping the
// working set hot and small) and, when empty, steals the oldest half of a
// victim's deque (FIFO from the top — the shallowest states, which head
// the largest unexplored subtrees). Deduplication switches from the
// two-phase claim/merge protocol to claim-on-insert: a sharded locked map
// assigns the dense state id at first insertion, so there is no merge
// phase, no candidate buffering, and no level to synchronize.
//
// What is preserved: verdicts (violation or not, ErrStateLimit or not),
// distinct-state counts, transition and terminal counts on runs that
// complete, and invariant results — cross-checked against the
// level-synchronized oracle by TestWorkStealMatchesLevelSync here and in
// the spec packages. What is not: BFS order. A reported counterexample is
// a real trace but not necessarily a shortest one, Result.Depth reports
// the deepest discovery depth (an upper bound on the BFS depth), and a
// recorded graph lists states and edges in nondeterministic order.
// Because a depth bound needs true BFS depths to cut the same states,
// Options.Validate rejects work-stealing with MaxDepth, as it does with
// the level-synchronized spilling visited store (MemoryBudgetBytes) and
// with checkpointing, whose checkpoints are sealed at level boundaries.
//
// Under work-stealing, Invariants and Constraint are called from worker
// goroutines (the level-synchronized engine calls them on the merge
// goroutine only); like Next and Key they must not mutate shared state.

// Schedule selects the exploration engine's scheduling mode.
type Schedule int

const (
	// ScheduleLevelSync is the default level-synchronized BFS: identical
	// results at every worker count, shortest counterexamples, exact BFS
	// depths.
	ScheduleLevelSync Schedule = iota
	// ScheduleWorkSteal is the barrier-free mode: per-worker steal-half
	// deques and claim-on-insert deduplication. Identical verdicts and
	// state counts, nondeterministic order; see the file comment for the
	// exact contract and the options it rejects.
	ScheduleWorkSteal
)

func (s Schedule) String() string {
	switch s {
	case ScheduleLevelSync:
		return "levelsync"
	case ScheduleWorkSteal:
		return "worksteal"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// ParseSchedule maps the -schedule CLI flag to a Schedule.
func ParseSchedule(name string) (Schedule, error) {
	switch name {
	case "levelsync", "level-sync":
		return ScheduleLevelSync, nil
	case "worksteal", "work-steal":
		return ScheduleWorkSteal, nil
	}
	return 0, fmt.Errorf("%w: unknown schedule %q (levelsync or level-sync, worksteal or work-steal)", ErrInvalidOptions, name)
}

// wsItem is one unit of pending work: a discovered state awaiting
// expansion, with its discovery depth (successors are depth+1).
type wsItem struct {
	id    int
	depth int
}

// wsDeque is one worker's pending-work deque. The owner pushes and pops at
// the bottom; thieves take the oldest half from the top. A plain mutex
// guards it: owner operations are uncontended in the common case, and
// steal-half moves items in one critical section instead of the
// item-at-a-time CAS loop of a lock-free Chase–Lev deque — at the steal
// rates of state exploration (a steal refills a worker for thousands of
// expansions) the mutex is never the bottleneck.
type wsDeque struct {
	mu    sync.Mutex
	head  int // items[:head] have been stolen
	items []wsItem
}

func (d *wsDeque) push(it wsItem) {
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
}

func (d *wsDeque) pop() (wsItem, bool) {
	d.mu.Lock()
	if d.head == len(d.items) {
		d.mu.Unlock()
		return wsItem{}, false
	}
	it := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	if d.head == len(d.items) {
		d.head = 0
		d.items = d.items[:0]
	}
	d.mu.Unlock()
	return it, true
}

// stealHalf moves the oldest half of the deque (at least one item) into
// buf and returns how many were taken. The thief copies out under the
// victim's lock and requeues into its own deque afterwards, so no two
// deque locks are ever held together.
func (d *wsDeque) stealHalf(buf *[]wsItem) int {
	d.mu.Lock()
	avail := len(d.items) - d.head
	if avail == 0 {
		d.mu.Unlock()
		return 0
	}
	n := (avail + 1) / 2
	*buf = append((*buf)[:0], d.items[d.head:d.head+n]...)
	d.head += n
	if d.head == len(d.items) {
		d.head = 0
		d.items = d.items[:0]
	}
	d.mu.Unlock()
	return n
}

// wsShard is one lock stripe of the claim-on-insert visited map.
type wsShard struct {
	mu    sync.Mutex
	byFP  map[uint64]int // fingerprint mode
	byKey map[string]int // collision-free mode
}

// wsVisited is the work-stealing deduplicator: encodings map directly to
// dense state ids, assigned at first insertion under the shard lock — the
// claim-on-insert replacement for the level-synchronized claim/merge
// split. Like the level-sync stores it dedups on 64-bit fingerprints by
// default and on full encodings in collision-free mode (always at
// Workers == 1).
type wsVisited struct {
	collisionFree bool
	shards        [visitedShards]wsShard
}

func newWSVisited(collisionFree bool) *wsVisited {
	vs := &wsVisited{collisionFree: collisionFree}
	for i := range vs.shards {
		if collisionFree {
			vs.shards[i].byKey = make(map[string]int)
		} else {
			vs.shards[i].byFP = make(map[uint64]int)
		}
	}
	return vs
}

// claim resolves enc to its dense state id, inserting on first sight.
// alloc runs under the shard lock, exactly once per distinct encoding, to
// register the state and assign its id; a negative id from alloc refuses
// the insert (state limit or stop) and leaves the encoding unclaimed.
func (vs *wsVisited) claim(enc []byte, alloc func() int) (id int, isNew bool) {
	fp := fingerprint(enc)
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	// Unlock by defer, not explicitly: alloc runs spec encoding code under
	// this lock (arena mode), and a recovered spec panic must release the
	// shard on unwind or the drain would deadlock on it.
	defer sh.mu.Unlock()
	if vs.collisionFree {
		if id, ok := sh.byKey[string(enc)]; ok {
			return id, false
		}
		id = alloc()
		if id >= 0 {
			sh.byKey[string(enc)] = id
		}
	} else {
		if id, ok := sh.byFP[fp]; ok {
			return id, false
		}
		id = alloc()
		if id >= 0 {
			sh.byFP[fp] = id
		}
	}
	return id, id >= 0
}

// probe reports whether enc is already claimed, without claiming it. The
// answer can go stale the moment the shard unlocks — the POR path uses it
// only as a freshness prediction for the ample choice (a successor no one
// has claimed yet will, once registered, almost certainly be the queued
// witness the cycle proviso needs); the porStatus snapshot at decision
// time remains the enforcement.
func (vs *wsVisited) probe(enc []byte) bool {
	fp := fingerprint(enc)
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	var ok bool
	if vs.collisionFree {
		_, ok = sh.byKey[string(enc)]
	} else {
		_, ok = sh.byFP[fp]
	}
	sh.mu.Unlock()
	return ok
}

// wsEngine is the shared state of one work-stealing run.
type wsEngine[S State] struct {
	spec *Spec[S]
	opts Options
	vs   *wsVisited
	res  *Result[S]

	// mu guards registration: the retainer (id assignment, arena append,
	// live window), the recorded graph's state columns (or arena edges),
	// the started flags, and the first failure. Duplicate claims never
	// take it.
	mu  sync.Mutex
	ret *retainer[S]
	// porStatus[id] is state id's expansion status, grown in alloc (ids
	// are dense) and maintained only under POR. The queue proviso reads it
	// at ample-decision time: only a successor that is definitely queued
	// and not yet expanding (porQueued) can serve as the will-expand-later
	// witness — a state still mid-registration (constraint verdict
	// pending on another worker), constraint-cut, or already expanding
	// cannot.
	porStatus []uint8
	// arenaGraph marks that the recorded graph is arena-backed (RecordGraph
	// + StateArena): alloc skips the live state columns and expand records
	// edges into the arena under mu.
	arenaGraph bool
	// violID/violInv/violErr record the first invariant violation; the
	// trace is reconstructed after the workers join.
	violID  int
	violInv string
	violErr error
	runErr  error      // ErrStateLimit or an arena I/O error; first wins
	pi      *panicInfo // first recovered spec panic; converted after the join

	stop    atomic.Bool
	pending atomic.Int64 // queued-but-unexpanded items, for termination
	deques  []wsDeque

	// em is the run's observability sink (nil-safe); snap, non-nil only
	// when a ProgressEvery ticker runs, is the atomic snapshot it reads —
	// the workers update it live, which is what makes time-based progress
	// possible at all on this barrier-free path.
	em   *engineMetrics
	snap *progressSnap
}

// fail records the run's first terminal condition and stops the workers.
// Callers must hold e.mu.
func (e *wsEngine[S]) failLocked(err error) {
	if e.runErr == nil && e.violErr == nil {
		e.runErr = err
	}
	e.stop.Store(true)
}

// recordPanic parks the first recovered spec panic and stops the workers;
// the remaining workers see e.stop at their next loop check and drain.
func (e *wsEngine[S]) recordPanic(pi *panicInfo) {
	e.mu.Lock()
	if e.pi == nil {
		e.pi = pi
	}
	e.mu.Unlock()
	e.stop.Store(true)
}

// wsWorker is one worker's private context. Its counters merge into the
// Result after the join; alloc carries the pending registration's fields
// so vs.claim's callback is a method value bound once, not a closure
// allocated per successor.
type wsWorker[S State] struct {
	e       *wsEngine[S]
	idx     int
	cod     *codec[S]
	deque   *wsDeque
	stealBf []wsItem
	allocFn func() int
	pg      specGuard // which spec callback this worker is inside

	// pending registration, set before each claim
	regS      S
	regEnc    []byte
	regParent int
	regAct    string
	regDepth  int
	arenaBuf  []byte // alloc's plain-encoding scratch (arena mode)

	// por, when non-nil, is this worker's partial-order-reduction scratch;
	// ampleIDs collects the current state's registered ample successor ids
	// for the cycle-proviso check.
	por      *porScratch[S]
	ampleIDs []int

	transitions, terminal, cuts int
	ampleStates, deferred       int
	maxDepth                    int
	edges                       []Edge

	// obs handles, resolved once at worker creation (nil when the run is
	// uninstrumented): incremented exactly where transitions and distinct
	// claims are counted, so their sums match the Result counters.
	mExp    *obs.Counter
	mClaims *obs.Counter
}

// alloc registers the pending state under the engine lock: dense id
// assignment, retention (live or arena), and graph state columns. Runs
// inside vs.claim with the shard lock held; the lock order shard → engine
// is the only nesting in the file.
func (w *wsWorker[S]) alloc() int {
	e := w.e
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.ret.len()
	if e.opts.MaxStates > 0 && id >= e.opts.MaxStates {
		e.failLocked(ErrStateLimit)
		return -1
	}
	enc := w.regEnc
	if e.ret.arena != nil {
		// The arena stores the plain encoding, not the orbit-canonical one
		// the claim deduped on; codec.encode only touches the passed
		// buffer, so regEnc (aliasing the codec's canonical scratch) stays
		// valid for the caller's map insert.
		w.pg.enter(opEncode, w.regAct, -1)
		w.arenaBuf = w.cod.encode(w.regS, w.arenaBuf[:0])
		w.pg.exit()
		enc = w.arenaBuf
	}
	if err := e.ret.add(w.regS, enc, w.regParent, w.regAct, w.regDepth); err != nil {
		e.failLocked(err)
		return -1
	}
	if w.por != nil {
		e.porStatus = append(e.porStatus, porRegistering) // len tracks ret.len()
	}
	// Retain optimistically: almost every state is expanded. A constraint
	// or stop releases it right after registration.
	e.ret.retainLive(id, w.regS)
	if e.res.Graph != nil && !e.arenaGraph {
		e.res.Graph.states = append(e.res.Graph.states, w.regS)
		e.res.Graph.keys = append(e.res.Graph.keys, w.regS.Key())
	}
	if e.snap != nil {
		e.snap.distinct.Add(1)
	}
	return id
}

// register claims one successor (or initial state): deduplication, and for
// first sights the invariant checks, constraint, and enqueue. Returns the
// state's id (or -1 when the run is stopping) and whether this call was the
// first sight — the claim's insert verdict, which the POR path uses as its
// race-safe NEW-at-decision-time signal for the cycle proviso.
func (w *wsWorker[S]) register(s S, parent int, act string, depth int) (int, bool) {
	e := w.e
	w.pg.enter(opEncode, act, parent)
	w.regS, w.regEnc = s, w.cod.canonical(s)
	w.pg.exit()
	w.regParent, w.regAct, w.regDepth = parent, act, depth
	id, isNew := e.vs.claim(w.regEnc, w.allocFn)
	if id < 0 {
		return -1, false
	}
	if !isNew {
		return id, false
	}
	w.mClaims.Inc()
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	if e.snap != nil {
		e.snap.maxDepth(depth)
	}
	for _, inv := range e.spec.Invariants {
		w.pg.enter(opInvariant, inv.Name, id)
		ierr := inv.Check(s)
		w.pg.exit()
		if ierr != nil {
			e.mu.Lock()
			if e.violErr == nil && e.runErr == nil {
				e.violID, e.violInv, e.violErr = id, inv.Name, ierr
			}
			e.stop.Store(true)
			e.mu.Unlock()
			return id, true
		}
	}
	w.pg.enter(opConstraint, "", id)
	cut := e.spec.Constraint != nil && !e.spec.Constraint(s)
	w.pg.exit()
	if cut {
		w.cuts++
		e.mu.Lock()
		e.ret.release(id)
		if w.por != nil {
			e.porStatus[id] = porDone // never expanded; cannot excuse the proviso
		}
		e.mu.Unlock()
		return id, true
	}
	if w.por != nil {
		e.mu.Lock()
		e.porStatus[id] = porQueued
		e.mu.Unlock()
	}
	e.pending.Add(1)
	w.deque.push(wsItem{id: id, depth: depth})
	return id, true
}

// POR expansion statuses for wsEngine.porStatus.
const (
	porRegistering uint8 = iota // alloc done, constraint verdict pending
	porQueued                   // on a deque, expansion not yet started
	porDone                     // expanding, expanded, or constraint-cut
)

// doSucc registers transition t of the worker's POR buffer (or, with the
// plain path inlined in expand, one successor) and records its edge. It
// returns false when the run is stopping and the expansion should abandon
// the state.
func (w *wsWorker[S]) doSucc(it wsItem, succ S, act string) (int, bool, bool) {
	e := w.e
	w.transitions++
	w.mExp.Inc()
	if e.snap != nil {
		e.snap.transitions.Add(1)
	}
	sid, isNew := w.register(succ, it.id, act, it.depth+1)
	if sid < 0 || e.stop.Load() {
		return sid, isNew, false
	}
	if e.res.Graph != nil {
		if e.arenaGraph {
			e.mu.Lock()
			aerr := e.ret.addEdge(it.id, act, sid)
			if aerr != nil {
				e.failLocked(aerr)
			}
			e.mu.Unlock()
			if aerr != nil {
				return sid, isNew, false
			}
		} else {
			w.edges = append(w.edges, Edge{From: it.id, Action: act, To: sid})
		}
	}
	return sid, isNew, true
}

// expand pops one state's live value and registers every successor —
// or, under partial-order reduction, just the ample subset when the cycle
// proviso holds (see expandPOR).
func (w *wsWorker[S]) expand(it wsItem) {
	e := w.e
	e.mu.Lock()
	s := e.ret.stateOf(it.id)
	if w.por != nil {
		e.porStatus[it.id] = porDone
	}
	e.mu.Unlock()
	if w.por != nil {
		w.expandPOR(it, s)
		return
	}
	succs := 0
	for _, a := range e.spec.Actions {
		w.pg.enter(opNext, a.Name, it.id)
		nexts := a.Next(s)
		w.pg.exit()
		for _, succ := range nexts {
			succs++
			if _, _, ok := w.doSucc(it, succ, a.Name); !ok {
				return
			}
		}
	}
	if succs == 0 {
		w.terminal++
	}
	e.mu.Lock()
	e.ret.release(it.id)
	e.mu.Unlock()
}

// expandPOR is expand under partial-order reduction. The full successor
// set is generated first (terminal counting and the owner partition need
// it), the ample process chosen, and its transitions registered; the
// deferred remainder is skipped only if, at decision time, at least one
// ample successor is queued and not yet expanding (the queue proviso,
// checked in one consistent snapshot under the engine lock). That
// witness starts expanding strictly after this decision, which is the
// ordering the soundness argument needs: a transition deferred here
// stays enabled at the witness (the declaration's non-disabling
// obligation), where it is either explored or deferred again to a
// witness whose expansion starts later still — a strictly increasing
// chain that must terminate at a fully expanded state. Successors whose
// constraint verdict is pending on another worker (porRegistering) or
// whose expansion already started (porDone) — including this state
// itself on a self-loop — cannot be the witness; if no successor
// qualifies, the state is fully expanded.
func (w *wsWorker[S]) expandPOR(it wsItem, s S) {
	e := w.e
	sc := w.por
	sc.succs, sc.acts = sc.succs[:0], sc.acts[:0]
	for ai, a := range e.spec.Actions {
		w.pg.enter(opNext, a.Name, it.id)
		nexts := a.Next(s)
		w.pg.exit()
		for _, succ := range nexts {
			sc.succs = append(sc.succs, succ)
			sc.acts = append(sc.acts, ai)
		}
	}
	total := len(sc.succs)
	if total == 0 {
		w.terminal++
		e.mu.Lock()
		e.ret.release(it.id)
		e.mu.Unlock()
		return
	}
	// Freshness prediction for the ample choice: probe each successor
	// without claiming it. A cluster whose successors are all already
	// claimed is near-certain to fail the queue proviso below, so choose
	// skips it; the extra canonical encoding per successor is cheap next
	// to the expansions the pruning saves. The prediction may go stale
	// between probe and register — the porStatus snapshot still decides.
	sc.fresh = sc.fresh[:0]
	for t := range sc.succs {
		w.pg.enter(opEncode, e.spec.Actions[sc.acts[t]].Name, it.id)
		cenc := w.cod.canonical(sc.succs[t])
		w.pg.exit()
		sc.fresh = append(sc.fresh, !e.vs.probe(cenc))
	}
	proc := sc.planner.choose(s, sc.succs, sc.acts, sc.fresh, &w.pg)
	if proc >= 0 {
		w.ampleIDs = w.ampleIDs[:0]
		for t := 0; t < total; t++ {
			if sc.planner.owners[t] != proc {
				continue
			}
			sid, _, ok := w.doSucc(it, sc.succs[t], e.spec.Actions[sc.acts[t]].Name)
			if !ok {
				return
			}
			w.ampleIDs = append(w.ampleIDs, sid)
		}
		ampleOK := false
		e.mu.Lock()
		for _, sid := range w.ampleIDs {
			if e.porStatus[sid] == porQueued {
				ampleOK = true
				break
			}
		}
		e.mu.Unlock()
		if ampleOK {
			w.ampleStates++
			w.deferred += total - len(w.ampleIDs)
			e.em.onAmple(total - len(w.ampleIDs))
		} else {
			for t := 0; t < total; t++ {
				if sc.planner.owners[t] == proc {
					continue
				}
				if _, _, ok := w.doSucc(it, sc.succs[t], e.spec.Actions[sc.acts[t]].Name); !ok {
					return
				}
			}
		}
	} else {
		for t := 0; t < total; t++ {
			if _, _, ok := w.doSucc(it, sc.succs[t], e.spec.Actions[sc.acts[t]].Name); !ok {
				return
			}
		}
	}
	e.mu.Lock()
	e.ret.release(it.id)
	e.mu.Unlock()
}

// run is the worker loop: pop own work, else steal half a victim's deque,
// else idle until the global pending count drains to zero.
func (w *wsWorker[S]) run() {
	e := w.e
	spins := 0
	for {
		if e.stop.Load() {
			return
		}
		it, ok := w.deque.pop()
		if !ok {
			it, ok = w.trySteal()
		}
		if !ok {
			if e.pending.Load() == 0 {
				return
			}
			spins++
			if spins < 32 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		spins = 0
		w.expand(it)
		if e.pending.Add(-1) == 0 {
			return
		}
	}
}

// trySteal takes the oldest half of the first non-empty victim deque,
// requeues all but one item locally, and returns that one.
func (w *wsWorker[S]) trySteal() (wsItem, bool) {
	for i := 1; i < len(w.e.deques); i++ {
		victim := &w.e.deques[(w.idx+i)%len(w.e.deques)]
		if n := victim.stealHalf(&w.stealBf); n > 0 {
			w.e.em.onSteal()
			for _, it := range w.stealBf[1:n] {
				w.deque.push(it)
			}
			return w.stealBf[0], true
		}
	}
	w.e.em.onStealFail()
	return wsItem{}, false
}

// runWorkSteal is the barrier-free exploration loop behind
// Options.Schedule == ScheduleWorkSteal.
func runWorkSteal[S State](spec *Spec[S], opts Options, workers int, em *engineMetrics) (res *Result[S], err error) {
	res = &Result[S]{Spec: spec.Name}
	if opts.RecordGraph {
		res.Graph = &Graph[S]{}
	}
	ret := newRetainer(spec, opts, em)
	defer ret.close()
	e := &wsEngine[S]{
		spec:   spec,
		opts:   opts,
		vs:     newWSVisited(opts.CollisionFree || workers == 1),
		res:    res,
		ret:    ret,
		violID: -1,
		deques: make([]wsDeque, workers),
		em:     em,
	}
	cod := newCodec(spec)
	if opts.RecordGraph && ret.arena != nil {
		// Arena-backed graph, as in the level-sync engine; work-steal
		// appends edges from many workers, so From order is
		// nondeterministic and WriteDOT will materialize-and-sort.
		e.arenaGraph = true
		ret.arena.recordEdges = true
		ret.graphOwned = true
		res.Graph.ret = ret
		res.Graph.cod = cod
	}
	// Runs before ret.close (LIFO): a run that failed without a violation
	// discards its arena-backed graph so ret.close releases the spill file.
	defer func() {
		if e.arenaGraph && err != nil && res.Violation == nil {
			ret.graphOwned = false
			res.Graph = nil
		}
	}()
	ind := activeIndependence(spec, opts)
	ws := make([]*wsWorker[S], workers)
	for i := range ws {
		wcod := cod
		if i > 0 {
			wcod = cod.clone()
		}
		ws[i] = &wsWorker[S]{e: e, idx: i, cod: wcod, deque: &e.deques[i]}
		ws[i].allocFn = ws[i].alloc
		ws[i].mExp = em.workerExpansion(i)
		ws[i].mClaims = em.workerClaim(i)
		if ind != nil {
			ws[i].por = &porScratch[S]{planner: newPORPlanner(ind, em)}
		}
	}

	// Time-based progress — the only live view a barrier-free run has
	// (there are no level boundaries to report from). The workers maintain
	// an atomic snapshot; a dedicated ticker goroutine turns it into
	// Options.Progress calls and journal epoch events.
	if opts.ProgressEvery > 0 {
		e.snap = &progressSnap{}
		ticker := startProgressTicker(opts.ProgressEvery, func() {
			p := e.snap.load()
			p.Frontier = int(e.pending.Load())
			if ret.arena != nil {
				p.SpillBytes = ret.arena.spilledBytesAtomic()
			}
			em.setDequePending(int64(p.Frontier))
			if opts.Progress != nil {
				opts.Progress(p)
			}
			em.journalEpoch(p)
		})
		defer ticker.stop()
	}

	// Cancellation: the stopper arms the same stop flag every worker polls
	// per iteration, so a canceled context or a passed deadline drains the
	// run and returns the partial counters under Result.Interrupted.
	st := opts.newStopper(func() { e.stop.Store(true) })
	defer st.close()

	// Register initial states on this goroutine through worker 0's context
	// (the workers have not started; no concurrency yet). Init items land
	// on worker 0's deque — steal-half spreads them within microseconds.
	// The registration runs spec callbacks (Init, encoding, invariants),
	// so it is recovered exactly as a worker is.
	func() {
		defer func() {
			if r := recover(); r != nil {
				e.recordPanic(ws[0].pg.capture(r))
			}
		}()
		ws[0].pg.enter(opInit, "", -1)
		inits := spec.Init()
		ws[0].pg.exit()
		if len(inits) > 0 {
			// Rebind the decoder to a real initial state (see
			// BinaryDecoder); only cod — the trace/graph codec — decodes.
			cod.bindDecoder(inits[0])
		}
		for _, s := range inits {
			id, _ := ws[0].register(s, -1, "", 0)
			if res.Graph != nil && id >= 0 {
				res.Graph.Inits = append(res.Graph.Inits, id)
			}
			if id < 0 || e.stop.Load() {
				break
			}
		}
	}()

	if !e.stop.Load() && e.pending.Load() > 0 {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *wsWorker[S]) {
				defer wg.Done()
				// A spec panic stops the run and is reported after the
				// join; every other panic is an engine bug and re-panics
				// (the guard is unarmed outside spec callbacks).
				defer func() {
					if r := recover(); r != nil {
						e.recordPanic(w.pg.capture(r))
					}
				}()
				w.run()
			}(w)
		}
		wg.Wait()
	}

	for _, w := range ws {
		res.Transitions += w.transitions
		res.Terminal += w.terminal
		res.ConstraintCuts += w.cuts
		res.AmpleStates += w.ampleStates
		res.DeferredTransitions += w.deferred
		if w.maxDepth > res.Depth {
			res.Depth = w.maxDepth
		}
		if res.Graph != nil {
			res.Graph.edges = append(res.Graph.edges, w.edges...)
		}
	}
	res.Distinct = ret.len()
	if ret.degradedMemory() {
		res.DegradedMemory = true
	}

	// Verdict precedence after the drain: a found violation is a complete
	// verdict and wins; then a recovered spec panic; then ErrStateLimit or
	// an I/O failure; then the interruption, with the partial counters.
	if e.violErr != nil {
		trace, acts, terr := safeTrace(cod, ret, e.violID)
		if terr != nil {
			return res, terr
		}
		res.Violation = &Violation[S]{Invariant: e.violInv, Err: e.violErr, Trace: trace, TraceActs: acts}
		return res, res.Violation
	}
	if e.pi != nil {
		return res, specPanicError(cod, ret, e.pi)
	}
	if e.runErr != nil {
		return res, e.runErr
	}
	if st.stopped() {
		res.Interrupted = true
		return res, st.err()
	}
	return res, nil
}
