package tla

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file implements the engine's second driver over the shared
// exploration core (explore.go). The default
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
// the largest unexplored subtrees). Each successor is claimed in the
// visited set as it is registered: the claim assigns the dense state id at
// first insertion — the core's install runs inside it, under the
// registration lock — so there is no merge phase, no candidate buffering,
// and no level to synchronize.
//
// What is preserved: verdicts (violation or not, ErrStateLimit or not),
// distinct-state counts, transition and terminal counts on runs that
// complete, and invariant results — cross-checked against the
// level-synchronized oracle by TestWorkStealMatchesLevelSync here and in
// the spec packages. What is not: BFS order. A reported counterexample is
// a real trace but not necessarily a shortest one, Result.Depth reports
// the deepest discovery depth (an upper bound on the BFS depth), and a
// recorded graph lists states and edges in nondeterministic order.
// Options.Validate rejects work-stealing with a memory budget (the visited
// set spills at level boundaries) and with checkpointing, whose
// checkpoints are sealed at level boundaries.
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

// wsEngine is one work-stealing run: the shared core plus the visited set,
// the registration lock and the deques.
type wsEngine[S State] struct {
	*explorer[S]
	vs *visitedSet

	// mu guards registration: the retainer (id assignment, arena append,
	// live window, graph edges) and porStatus. Duplicate claims never take
	// it.
	mu sync.Mutex
	// porStatus[id] is state id's expansion status, grown in alloc (ids
	// are dense) and maintained only under POR. The queue proviso reads it
	// at ample-decision time: only a successor that is definitely queued
	// and not yet expanding (porQueued) can serve as the will-expand-later
	// witness — a state still mid-registration (constraint verdict
	// pending on another worker), constraint-cut, or already expanding
	// cannot.
	porStatus []uint8

	pending atomic.Int64 // queued-but-unexpanded items, for termination
	deques  []wsDeque
}

// POR expansion statuses for wsEngine.porStatus.
const (
	porRegistering uint8 = iota // alloc done, constraint verdict pending
	porQueued                   // on a deque, expansion not yet started
	porDone                     // expanding, expanded, or constraint-cut
)

// wsWorker is one worker's private context around its expander. Its
// counters merge into the Result after the join; the reg* fields carry the
// pending registration so vs.claim's callback is a method value bound
// once (allocFn), not a closure allocated per successor.
type wsWorker[S State] struct {
	e       *wsEngine[S]
	x       *expander[S]
	idx     int
	deque   *wsDeque
	stealBf []wsItem
	allocFn func() int

	// pending registration, set before each claim
	regS      S
	regEnc    []byte
	regParent int
	regAct    string
	regDepth  int

	ampleIDs []int // the current state's registered ample successor ids

	transitions, terminal, cuts int
	ampleStates, deferred       int
	maxDepth                    int

	// obs handles, resolved once at worker creation (nil when the run is
	// uninstrumented): incremented exactly where transitions and distinct
	// claims are counted, so their sums match the Result counters.
	mExp    *obs.Counter
	mClaims *obs.Counter
}

// alloc installs the pending state under the registration lock. Runs
// inside vs.claim with the shard lock held; the lock order shard →
// registration is the only nesting in the file.
func (w *wsWorker[S]) alloc() int {
	e := w.e
	e.mu.Lock()
	defer e.mu.Unlock()
	id, err := e.install(w.x, w.regS, w.regEnc, w.regParent, w.regAct, w.regDepth)
	if err != nil {
		e.fail(err)
		return -1
	}
	if w.x.planner != nil {
		e.porStatus = append(e.porStatus, porRegistering) // len tracks ret.len()
	}
	// Retain optimistically: almost every state is expanded. A constraint
	// or stop releases it right after registration.
	e.ret.retainLive(id, w.regS)
	if e.snap != nil {
		e.snap.distinct.Add(1)
	}
	return id
}

// register claims one successor (or initial state): deduplication, and for
// first sights the core's verdict and the enqueue. Returns the state's id,
// or -1 when the run is stopping.
func (w *wsWorker[S]) register(s S, parent int, act string, depth int) int {
	e, x := w.e, w.x
	x.g.enter(opEncode, act, parent)
	enc := x.cod.canonical(s)
	x.g.exit()
	w.regS, w.regEnc, w.regParent, w.regAct, w.regDepth = s, enc, parent, act, depth
	id, isNew := e.vs.claim(fingerprint(enc), enc, w.allocFn)
	if !isNew {
		return id
	}
	w.mClaims.Inc()
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	if e.snap != nil {
		e.snap.maxDepth(depth)
	}
	ok, within := e.verdict(x, s, id)
	if !ok {
		return id
	}
	if !within {
		w.cuts++
		e.mu.Lock()
		e.ret.release(id)
		if x.planner != nil {
			e.porStatus[id] = porDone // never expanded; cannot excuse the proviso
		}
		e.mu.Unlock()
		return id
	}
	if x.planner != nil {
		e.mu.Lock()
		e.porStatus[id] = porQueued
		e.mu.Unlock()
	}
	e.pending.Add(1)
	w.deque.push(wsItem{id: id, depth: depth})
	return id
}

// expand pops one state's live value and registers its successors — under
// partial-order reduction the ample ones first, and the deferred rest only
// when the queue proviso fails: at decision time, in one consistent
// snapshot under the registration lock, no ample successor is queued and
// not yet expanding (see por.go).
func (w *wsWorker[S]) expand(it wsItem) {
	e, x := w.e, w.x
	e.mu.Lock()
	s := e.ret.stateOf(it.id)
	if x.planner != nil {
		e.porStatus[it.id] = porDone
	}
	e.mu.Unlock()
	x.misses, x.keys = x.misses[:0], x.keys[:0] // only level-sync claims the misses
	n, k := x.expand(s, it.id)
	if n == 0 {
		w.terminal++
	}
	pruned := k >= 0
	if !pruned {
		k = n
	}
	w.ampleIDs = w.ampleIDs[:0]
	for _, t := range x.order[:k] {
		sid, ok := w.doSucc(it, t)
		if !ok {
			return
		}
		if pruned {
			w.ampleIDs = append(w.ampleIDs, sid)
		}
	}
	if pruned {
		witness := false
		e.mu.Lock()
		for _, sid := range w.ampleIDs {
			if e.porStatus[sid] == porQueued {
				witness = true
				break
			}
		}
		e.mu.Unlock()
		if witness {
			w.ampleStates++
			w.deferred += n - k
			e.em.onAmple(n - k)
		} else {
			for _, t := range x.order[k:] {
				if _, ok := w.doSucc(it, t); !ok {
					return
				}
			}
		}
	}
	e.mu.Lock()
	e.ret.release(it.id)
	e.mu.Unlock()
}

// doSucc registers successor t of the expander's buffer and records its
// edge. It returns false when the run is stopping and the expansion should
// abandon the state.
func (w *wsWorker[S]) doSucc(it wsItem, t int) (int, bool) {
	e := w.e
	act := w.x.actName(t)
	w.transitions++
	w.mExp.Inc()
	if e.snap != nil {
		e.snap.transitions.Add(1)
	}
	sid := w.register(w.x.succs[t], it.id, act, it.depth+1)
	if sid < 0 || e.stop.Load() {
		return sid, false
	}
	if e.res.Graph != nil {
		e.mu.Lock()
		err := e.ret.addEdge(it.id, act, sid)
		e.mu.Unlock()
		if err != nil {
			e.fail(err)
			return sid, false
		}
	}
	return sid, true
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

// runWorkSteal is the barrier-free driver behind Options.Schedule ==
// ScheduleWorkSteal.
func runWorkSteal[S State](spec *Spec[S], opts Options, workers int, vs *visitedSet, em *engineMetrics) (res *Result[S], err error) {
	e := &wsEngine[S]{
		explorer: newExplorer(spec, opts, workers, em),
		vs:       vs,
		deques:   make([]wsDeque, workers),
	}
	defer func() { e.close(err) }()
	ws := make([]*wsWorker[S], workers)
	for i, x := range e.xs {
		w := &wsWorker[S]{e: e, x: x, idx: i, deque: &e.deques[i], mExp: em.workerExpansion(i), mClaims: em.workerClaim(i)}
		w.allocFn = w.alloc
		if x.planner != nil {
			// The ample choice steers on probe misses, a prediction that can
			// go stale; the porStatus snapshot enforces the proviso.
			x.vs = vs
		}
		ws[i] = w
	}

	// Time-based progress is the only live view a barrier-free run has
	// (there are no level boundaries to report from): the workers maintain
	// the snapshot's counters, and each tick adds the pending count and the
	// arena's spill volume and journals an epoch.
	e.startProgress(func(p *Progress) {
		p.Frontier = int(e.pending.Load())
		p.SpillBytes = e.ret.arena.spilledBytesAtomic()
		em.setDequePending(int64(p.Frontier))
		em.journalEpoch(*p)
	})

	// Register initial states on this goroutine through worker 0 (the
	// workers have not started; no concurrency yet). Init items land on
	// worker 0's deque — steal-half spreads them within microseconds.
	func() {
		defer e.recoverSpec(&ws[0].x.g)
		e.registerInits(ws[0].x, func(s S) (int, bool) {
			id := ws[0].register(s, -1, "", 0)
			return id, id >= 0 && !e.stop.Load()
		})
	}()

	if !e.stop.Load() && e.pending.Load() > 0 {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *wsWorker[S]) {
				defer wg.Done()
				defer e.recoverSpec(&w.x.g)
				w.run()
			}(w)
		}
		wg.Wait()
	}

	for _, w := range ws {
		e.res.Transitions += w.transitions
		e.res.Terminal += w.terminal
		e.res.ConstraintCuts += w.cuts
		e.res.AmpleStates += w.ampleStates
		e.res.DeferredTransitions += w.deferred
		if w.maxDepth > e.res.Depth {
			e.res.Depth = w.maxDepth
		}
	}
	e.interrupted = e.st.stopped()
	return e.finish()
}
