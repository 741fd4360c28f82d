package tla

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The level-synchronized driver: a BFS in the style of TLC's multi-worker
// mode over the shared exploration core (explore.go), deduplicating through
// the visited set (store.go). Each level alternates two phases:
//
//   - Expansion (parallel): the frontier is cut into contiguous chunks and
//     a pool of workers expands them through their expanders, which probe
//     every successor's canonical encoding in the visited set — without a
//     lock in fingerprint mode. The expensive work — Next, encoding,
//     symmetry canonicalization, hashing — all happens here, concurrently;
//     nothing inserts. At Workers == 1 the same code runs inline on one
//     chunk: the sequential oracle is the engine at its narrowest setting,
//     not a separate implementation.
//
//   - Merge (sequential): candidate successors, 16-byte {id, action}
//     records, are replayed in exactly frontier order, then emission
//     order, claiming each probe miss — the claim of the state waiting in
//     the chunk's succs assigns the dense id through the core's install, the
//     verdict follows — recording graph edges, and applying the POR cycle
//     proviso. A state first seen twice in one level is found by its own
//     earlier claim.
//
// Between the phases ResolveLevel restores the misses that were spilled to
// disk (merge-on-lookup, spill.go), and after the merge EndLevel enforces
// the memory budget. Because ids, invariant checks and early exits are all
// resolved during the deterministic merge, the engine's Result — counters,
// recorded graph, and shortest counterexample — is identical at every
// worker count and in every visited-set mode (modulo fingerprint
// collisions, which Options.CollisionFree rules out).

// candidate is one successor produced during expansion, awaiting the
// merge, in 16 bytes: its action (an index into Spec.Actions) and the
// probe's answer — the id on a hit, ^i on a miss, whose successor state is
// the chunk's succs[i].
type candidate struct {
	id, act int
}

// chunkOut is the ordered output of expanding one contiguous frontier
// chunk. Its buffers are reused by the same chunk index at the next level.
type chunkOut[S State] struct {
	worker int // the worker that expanded the chunk (metrics attribution)
	cands  []candidate
	states []expanded // per frontier state of the chunk
	misses []miss     // the chunk's probe misses, in probe order
	succs  []S        // the misses' successor states, in the same order
	keys   []byte     // the misses' canonical encodings, back to back
}

// miss returns the fingerprint and canonical encoding of the chunk's i-th
// probe miss.
func (o *chunkOut[S]) miss(i int) (uint64, []byte) {
	lo := 0
	if i > 0 {
		lo = o.misses[i-1].end
	}
	return o.misses[i].fp, o.keys[lo:o.misses[i].end]
}

// expanded is one frontier state's share of a chunk's candidates: n
// successors, the first k of them ample (-1: not pruned; see
// expander.expand). The merge makes the final keep-or-expand call against
// the cycle proviso.
type expanded struct{ n, k int }

// resolveWorkers maps Options.Workers to an effective worker count:
// 0 means GOMAXPROCS, TLC's default. (Negative counts are rejected by
// Options.Validate before this runs.)
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// chunkPlan cuts n items into contiguous chunks of roughly n/(workers*4):
// small enough for dynamic load balancing, large enough to amortize the
// per-chunk handoff. A single worker gets a single chunk — no handoff at
// all. It is the single source of truth for chunk count and boundaries;
// callers size their per-chunk result slices from nChunks and then call
// run.
type chunkPlan struct {
	n, workers, chunkSize, nChunks int
}

func planChunks(n, workers int) chunkPlan {
	chunkSize := n
	if workers > 1 {
		chunkSize = n / (workers * 4)
	}
	if chunkSize < 1 {
		chunkSize = 1
	}
	nChunks := (n + chunkSize - 1) / chunkSize
	if workers > nChunks {
		workers = nChunks
	}
	return chunkPlan{n: n, workers: workers, chunkSize: chunkSize, nChunks: nChunks}
}

// run calls fn(worker, chunk, lo, hi) for every chunk of the plan, either
// inline (narrow inputs are not worth a goroutine handoff) or from a pool
// of workers pulling chunk indices off an atomic cursor. fn must be safe
// for concurrent calls on distinct chunks; worker ids are dense in
// [0, p.workers) and stable within one goroutine, so callers key
// per-worker scratch (codec clones) off them; chunk indices are dense, so
// callers collect per-chunk results into a slice and reassemble them in
// deterministic chunk order.
func (p chunkPlan) run(fn func(worker, chunk, lo, hi int)) {
	doChunk := func(w, c int) {
		lo := c * p.chunkSize
		hi := lo + p.chunkSize
		if hi > p.n {
			hi = p.n
		}
		fn(w, c, lo, hi)
	}
	// Inline only when there is nothing to share: a single chunk would
	// serialize anyway, and one worker means no pool. Small frontiers with
	// expensive Next/Key/Matches (typical of trace checking) still profit
	// from a handful of goroutines.
	if p.workers == 1 || p.nChunks == 1 {
		for c := 0; c < p.nChunks; c++ {
			doChunk(0, c)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= p.nChunks {
					return
				}
				doChunk(w, c)
			}
		}(w)
	}
	wg.Wait()
}

// levelSync is one level-synchronized run: the shared core plus the
// visited set, the frontier, and the merge's bookkeeping.
type levelSync[S State] struct {
	*explorer[S]
	vs      *visitedSet
	fr      *levelFrontier
	outs    []chunkOut[S] // per chunk; the backing array keeps every buffer
	missFPs []uint64      // ResolveLevel's input, reused across levels
	ck      *checkpointer

	// reg is the registration the merge's claim is making; allocFn, the
	// method value alloc bound once, installs it inside the claim.
	reg struct {
		s             S
		enc           []byte
		parent, depth int
		act           string
	}
	allocFn func() int

	// levelBase/levelCut support the POR cycle proviso: levelBase is the id
	// watermark when the current level's merge began, and levelCut[id -
	// levelBase] marks the states discovered this merge that were NOT
	// enqueued (constraint-cut).
	levelBase int
	levelCut  []bool

	// attr credits the merge's deltas of (Transitions, Distinct) while
	// replaying one chunk to the worker that expanded it — counted exactly
	// where the Result counters move, which is what pins Σexpansions ==
	// Transitions and Σclaims == Distinct. flushAttr also runs after the
	// loop, so early exits attribute their partial chunk too.
	attr struct {
		active             bool
		worker             int
		expBase, claimBase int
	}
}

// runEngine is the level-synchronized driver behind Check: one
// implementation for every worker count and visited-set mode.
// (ScheduleWorkSteal runs the barrier-free driver in schedule.go instead.)
func runEngine[S State](spec *Spec[S], opts Options, workers int, vs *visitedSet, em *engineMetrics) (res *Result[S], err error) {
	l := &levelSync[S]{explorer: newExplorer(spec, opts, workers, em), vs: vs, fr: newLevelFrontier()}
	defer func() { l.close(err) }()
	l.allocFn = l.alloc
	for _, x := range l.xs {
		x.vs = vs
	}
	if opts.CheckpointDir != "" {
		l.ck = newCheckpointer(opts)
		l.ck.em = em
	}
	l.startProgress(nil)
	// The merge goroutine runs its spec callbacks under worker 0's guard:
	// the inline worker 0 and the merge never run at the same time.
	func() {
		defer l.recoverSpec(&l.xs[0].g)
		l.explore()
	}()
	l.flushAttr()
	if vs.degraded {
		l.res.DegradedMemory = true
	}
	return l.finish()
}

// explore registers the initial states (or restores a checkpoint) and runs
// the levels until the frontier drains or the run ends.
func (l *levelSync[S]) explore() {
	level := 0
	if l.opts.ResumeFrom != "" {
		// A resumed run restores the checkpoint instead of registering
		// initial states: counters, arena, visited runs, and the frontier's
		// live values (decoded from their stored encodings, which runs spec
		// callbacks — the guard attributes a panic there to the encoding).
		g := &l.xs[0].g
		g.enter(opEncode, "", -1)
		lvl, err := resumeRun(l.spec, l.opts, l.cod, l.ret, l.vs, l.fr, l.res, l.ck)
		g.exit()
		if err != nil {
			l.fail(err)
			return
		}
		level = lvl
		// Seed worker 0 with the restored counters so the metrics-vs-Result
		// identities hold across a resume as well.
		l.em.addWorker(0, int64(l.res.Transitions), int64(l.ret.len()))
	} else {
		l.registerInits(l.xs[0], l.registerInit)
		if l.violErr != nil || l.runErr != nil {
			return
		}
		if err := l.vs.EndLevel(); err != nil {
			l.fail(err)
			return
		}
		// Initial states are claimed on the merge goroutine, which the
		// worker-counter attribution credits to worker 0.
		l.em.addWorker(0, 0, int64(l.ret.len()))
	}
	for startLevel := level; ; level++ {
		frontier := l.fr.NextLevel()
		l.report(frontier, level)
		if l.st.stopped() {
			l.interrupt(frontier, level)
			return
		}
		if len(frontier) == 0 {
			return
		}
		l.em.observeLevelWidth(len(frontier))
		if l.ck != nil && l.opts.CheckpointEvery > 0 && level > startLevel && (level-startLevel)%l.opts.CheckpointEvery == 0 {
			// A periodic checkpoint failing is an explicit failure, not a
			// silent skip: the user asked for durability.
			path, err := l.checkpoint(frontier, level)
			if err != nil {
				l.fail(fmt.Errorf("tla: writing checkpoint: %w", err))
				return
			}
			l.res.CheckpointPath = path
		}
		outs := l.expandLevel(frontier)
		if l.pi != nil {
			return
		}
		if l.st.stopped() {
			// Mid-expansion stop: the level's candidates are discarded —
			// no counter moved — and the same frontier checkpoints cleanly.
			l.interrupt(frontier, level)
			return
		}
		if len(l.vs.runs) > 0 {
			fps := l.missFPs[:0]
			for i := range outs {
				for _, m := range outs[i].misses {
					fps = append(fps, m.fp)
				}
			}
			l.missFPs = fps
			if err := l.vs.ResolveLevel(fps); err != nil {
				l.fail(err)
				return
			}
		}
		if !l.merge(frontier, outs) {
			return
		}
		for i := range outs {
			// A reused buffer must not pin this level's successor states.
			clear(outs[i].succs)
		}
		// The level's frontier states are fully expanded: the arena drops
		// their live values (live retention keeps everything by design).
		l.ret.releaseAll(frontier)
		if err := l.vs.EndLevel(); err != nil {
			l.fail(err)
			return
		}
	}
}

// registerInit registers one initial state on the merge goroutine.
func (l *levelSync[S]) registerInit(s S) (int, bool) {
	x := l.xs[0]
	x.g.enter(opEncode, "", -1)
	enc := x.cod.canonical(s)
	x.g.exit()
	return l.register(s, fingerprint(enc), enc, -1, "", 0)
}

// register claims s (canonical encoding enc, fingerprint fp) on the merge
// goroutine and admits it on first sight. It returns the state's id (-1
// when the registration itself failed) and false when the run is over (the
// outcome is recorded).
func (l *levelSync[S]) register(s S, fp uint64, enc []byte, parent int, act string, depth int) (int, bool) {
	l.reg.s, l.reg.enc, l.reg.parent, l.reg.act, l.reg.depth = s, enc, parent, act, depth
	id, isNew := l.vs.claim(fp, enc, l.allocFn)
	if !isNew {
		return id, id >= 0
	}
	return id, l.admit(s, id, depth)
}

// alloc installs the pending registration inside the visited set's claim.
func (l *levelSync[S]) alloc() int {
	id, err := l.install(l.xs[0], l.reg.s, l.reg.enc, l.reg.parent, l.reg.act, l.reg.depth)
	if err != nil {
		l.fail(err)
		return -1
	}
	return id
}

// admit settles a newly claimed state: verdict and — inside the constraint
// — the next level's frontier. false ends the run (the outcome is
// recorded).
func (l *levelSync[S]) admit(s S, id, depth int) bool {
	x := l.xs[0]
	if depth > l.res.Depth {
		l.res.Depth = depth
	}
	ok, within := l.verdict(x, s, id)
	if !ok {
		return false
	}
	if within {
		l.ret.retainLive(id, s)
		l.fr.Push(id)
	} else {
		l.res.ConstraintCuts++
	}
	if x.planner != nil {
		l.levelCut = append(l.levelCut, !within)
	}
	return true
}

// interrupt winds the run down at a level boundary: the partial counters
// stay in the Result, and a checkpoint is written when configured.
// Expansion is side-effect-free until the merge replays it — ids, counters
// and retention only change on the merge goroutine — so the unexpanded
// frontier is a clean resume point even when the stop landed mid-expansion.
func (l *levelSync[S]) interrupt(frontier []int, level int) {
	l.interrupted = true
	l.res.Interrupted = true
	if l.ck == nil {
		return
	}
	path, err := l.checkpoint(frontier, level)
	if err != nil {
		l.fail(errors.Join(l.st.err(), fmt.Errorf("tla: writing checkpoint: %w", err)))
		return
	}
	l.res.CheckpointPath = path
}

// checkpoint wraps writeCheckpoint with the duration histogram and the
// journal's checkpoint event.
func (l *levelSync[S]) checkpoint(frontier []int, level int) (string, error) {
	start := time.Now()
	path, err := writeCheckpoint(l.ck, l.spec, l.opts, l.ret, l.vs, l.res, frontier, level)
	l.em.onCheckpoint(level, path, time.Since(start), err)
	return path, err
}

// report publishes one level boundary's snapshot to the progress ticker and
// the journal. It runs on the merge goroutine, so the counters it reads are
// settled; spill pressure sums the visited set's sealed runs and the
// arena's spill file, both of which only grow on this goroutine too.
func (l *levelSync[S]) report(frontier []int, level int) {
	if l.snap == nil && l.em == nil {
		return
	}
	p := Progress{
		Distinct:      l.ret.len(),
		Transitions:   l.res.Transitions,
		Depth:         l.res.Depth,
		Level:         level,
		Frontier:      len(frontier),
		SpillBytes:    l.vs.sealed + l.ret.arena.fileSize,
		ResidentBytes: l.vs.residentBytes() + l.ret.arena.residentBytes(),
	}
	if l.snap != nil {
		l.snap.store(p)
	}
	l.em.journalLevel(p)
}

// expandLevel expands every frontier state, in parallel across workers,
// returning per-chunk candidate lists in frontier order. Each worker's
// expander probes every successor's canonical encoding in the visited set,
// so the merge hashes nothing and encodes a state again only for an arena
// under symmetry (see install). Every successor becomes a 16-byte
// candidate {id, act}: a hit's id is stable for the whole expansion phase,
// and the merge needs neither the state nor its encoding to record the
// duplicate edge, which keeps per-level buffering near the fingerprint
// set's 8-bytes-per-state promise. A miss lands in the chunk's miss table
// (fingerprint and encoding, which install stores as is) and its state in
// succs, both in probe order — successor order, which under POR is not the
// candidates' ample-first emission order: it is genuinely new, first seen
// twice this level, or, under a budget, a spilled duplicate that
// ResolveLevel restores before the merge claims it.
//
// Under partial-order reduction the expander orders each state's
// successors ample-first, choosing on probe misses; workers only
// propose, and the merge — the one place discovery order exists — decides
// whether the ample set satisfies the cycle proviso, so POR results stay
// deterministic across worker counts like everything else on this path.
//
// A spec panic in a chunk is parked as the run's panic — which also stops
// the other workers at their next between-states poll, the expansion
// phase's cancellation point — instead of taking the process down.
func (l *levelSync[S]) expandLevel(frontier []int) []chunkOut[S] {
	plan := planChunks(len(frontier), len(l.xs))
	if n := plan.nChunks - cap(l.outs); n > 0 {
		l.outs = append(l.outs[:cap(l.outs)], make([]chunkOut[S], n)...)
	}
	outs := l.outs[:plan.nChunks]
	plan.run(func(w, c, lo, hi int) {
		x, out := l.xs[w], &outs[c]
		defer l.recoverSpec(&x.g)
		out.worker = w
		out.cands, out.states, out.succs = out.cands[:0], out.states[:0], out.succs[:0]
		// The chunk's miss table is the expander's to append to.
		x.misses, x.keys = out.misses[:0], out.keys[:0]
		for _, id := range frontier[lo:hi] {
			if l.stop.Load() {
				break
			}
			n, k := x.expand(l.ret.stateOf(id), id)
			for t, sid := range x.ids {
				if sid < 0 {
					out.succs = push(out.succs, x.succs[t])
				}
			}
			for _, t := range x.order {
				out.cands = push(out.cands, candidate{id: x.ids[t], act: x.acts[t]})
			}
			out.states = append(out.states, expanded{n: n, k: k})
			l.em.observeFanout(n)
		}
		out.misses, out.keys = x.misses, x.keys
	})
	return outs
}

// merge replays a level's candidates in deterministic order. false ends
// the run (the outcome is recorded).
func (l *levelSync[S]) merge(frontier []int, outs []chunkOut[S]) bool {
	l.levelBase = l.ret.len()
	l.levelCut = l.levelCut[:0]
	fi := 0 // index into frontier, across chunk boundaries
	for oi := range outs {
		out := &outs[oi]
		l.attr.active, l.attr.worker = l.em != nil, out.worker
		l.attr.expBase, l.attr.claimBase = l.res.Transitions, l.ret.len()
		ci := 0
		for _, st := range out.states {
			id := frontier[fi]
			fi++
			cands := out.cands[ci : ci+st.n]
			ci += st.n
			if st.n == 0 {
				// Terminal counting sees the full successor set — POR
				// prunes expansion, never the terminal verdict.
				l.res.Terminal++
				continue
			}
			depth := l.ret.depthOf(id)
			k := st.n
			if st.k >= 0 {
				k = st.k
			}
			// The cycle proviso's witness (por.go): an ample successor
			// first discovered during this very merge and enqueued.
			witness := false
			for _, c := range cands[:k] {
				sid, more := l.doCand(out, c, id, depth)
				if !more {
					return false
				}
				if st.k >= 0 && sid >= l.levelBase && !l.levelCut[sid-l.levelBase] {
					witness = true
				}
			}
			if witness {
				l.res.AmpleStates++
				l.res.DeferredTransitions += st.n - k
				l.em.onAmple(st.n - k)
				continue
			}
			for _, c := range cands[k:] {
				if _, more := l.doCand(out, c, id, depth); !more {
					return false
				}
			}
		}
		l.flushAttr()
	}
	return true
}

// doCand is one candidate's full treatment in the merge: the transition
// count, the claim of a probe miss, and the edge — recorded even into a
// violating state, so a violation's graph ends at it. It returns the
// successor's id, and false when the run is over.
func (l *levelSync[S]) doCand(out *chunkOut[S], c candidate, id, depth int) (int, bool) {
	l.res.Transitions++
	sid, more := c.id, true
	act := l.spec.Actions[c.act].Name
	if sid < 0 {
		fp, key := out.miss(^sid)
		if sid, more = l.register(out.succs[^sid], fp, key, id, act, depth+1); sid < 0 {
			return sid, false
		}
	}
	if l.res.Graph != nil {
		if err := l.ret.addEdge(id, act, sid); err != nil {
			l.fail(err)
			return sid, false
		}
	}
	return sid, more
}

// flushAttr credits the replayed chunk's counter deltas to its worker.
func (l *levelSync[S]) flushAttr() {
	if !l.attr.active {
		return
	}
	l.em.addWorker(l.attr.worker, int64(l.res.Transitions-l.attr.expBase), int64(l.ret.len()-l.attr.claimBase))
	l.attr.active = false
}
