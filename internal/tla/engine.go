package tla

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The level-synchronized driver: a BFS in the style of TLC's multi-worker
// mode over the shared exploration core (explore.go), deduplicating through
// the visited set (store.go). Each level alternates two phases:
//
//   - Expansion (parallel): the frontier is cut into contiguous chunks and
//     a pool of workers expands them, probing every successor's canonical
//     encoding in the visited set (lock-free with fingerprints) and
//     recording every successor the probe misses. Next, encoding,
//     symmetry canonicalization and hashing all happen here; nothing
//     inserts. At Workers == 1 the same code runs inline on one
//     chunk: the sequential oracle is the engine at its narrowest setting.
//
//   - Merge: passes over the same chunks that settle the level in merge
//     order — chunk, frontier position, emission position, the order a
//     textbook BFS discovers states in — in parallel wherever that order
//     does not matter: route (per chunk: each frontier state's POR cycle
//     proviso, and the misses to claim, grouped by shard); claim (per
//     shard, which the pass owns: the first occurrence of each new state
//     wins and leaves a placeholder); settle (per chunk: dense ids from a
//     prefix sum over the chunks' winners, each published over its
//     placeholder, live values in their pages or an arena's plain
//     encodings, link records, invariants and the constraint, up to the
//     chunk's first violation or spec panic); and a short serial tail,
//     which cuts the level at the first violation, spec panic or MaxStates
//     limit in merge order and writes arena encodings, the next frontier
//     and the counters in id order, graph edges in candidate order.
//
// Between the phases ResolveLevel restores the misses that were spilled to
// disk (merge-on-lookup, spill.go), and after the merge EndLevel enforces
// the memory budget. Because ids, verdicts and early exits are all settled
// in merge order, the Result — counters, recorded graph, shortest
// counterexample — is identical at every worker count and in every
// visited-set mode (modulo fingerprint collisions, which
// Options.CollisionFree rules out).

// candidate is one successor awaiting the merge, in 8 bytes: its action
// (an index into Spec.Actions) and the probe's answer — the id on a hit,
// ^i on a miss, whose state is the chunk's succs.at(i). (State ids are
// 32-bit throughout: the arena's links and edge records are too.)
type candidate struct {
	id, act int32
}

// chunkOut is one frontier chunk's expansion and its share of the merge.
// Its buffers are reused by the same chunk index at the next level.
type chunkOut[S State] struct {
	worker int // the worker that expanded the chunk (metrics attribution)
	lo, hi int // the chunk's range of the frontier
	cands  []candidate
	states []expanded // per frontier state of the chunk
	misses []miss     // probe misses, one per successor, in probe order
	succs  pages[S]   // the misses' states, by miss index
	keys   []byte     // the misses' canonical encodings, back to back

	base     int                  // index of misses[0] in levelSync.missIDs
	order    []pick               // route: the misses to claim, in merge order
	route    []int32              // route: order's misses grouped by shard
	shardEnd [visitedShards]int32 // route: shard s's end in route
	first    int                  // settle: the id of the chunk's first winner
	won      []pick               // settle: the winners numbered, in id order
	done     int                  // settle: won[:done] are placed and linked
	depth    int                  // settle: their depth
	passed   int                  // settle: won[:passed] passed their verdict
	plain    []byte               // settle: an arena's plain encodings under symmetry
	plainEnd []int                // settle: where won[j]'s plain encoding ends
	violInv  string               // settle: the invariant won[passed] violated,
	violErr  error                // and how
	pi       *panicInfo           // settle: the spec panic settling won[passed] raised
}

// miss returns the fingerprint and canonical encoding of probe miss i.
func (o *chunkOut[S]) miss(i int) (uint64, []byte) {
	return o.misses[i].fp, missKey(o.misses, o.keys, i)
}

// shardMisses returns the misses the route pass sent to shard s.
func (o *chunkOut[S]) shardMisses(s int) []int32 {
	lo := int32(0)
	if s > 0 {
		lo = o.shardEnd[s-1]
	}
	return o.route[lo:o.shardEnd[s]]
}

// pick is a miss the merge claims, from its processed candidate: the miss,
// the chunk-relative frontier state and the Spec.Actions index of the
// candidate.
type pick struct{ miss, src, act int32 }

// expanded is one frontier state's share of a chunk's candidates: n
// successors, the first k of them ample (-1: not pruned; see
// expander.expand). The route pass keeps k only when the proviso holds.
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

	// Per miss g from each chunk's base: the claim's answer (winner, the
	// winning miss's placeholder, a restored id), then a winner's id.
	// winsBy[c*visitedShards+s]: chunk c's winners in shard s.
	missIDs []int
	winsBy  []int

	// phaseExpand and phaseMerge time the expansion and the merge of the
	// level that produced the current frontier.
	phaseExpand, phaseMerge time.Duration
}

// winner marks, in levelSync.missIDs, a miss that won its claim.
const winner = -1

// runEngine is the level-synchronized driver behind Check: one
// implementation for every worker count and visited-set mode.
// (ScheduleWorkSteal runs the barrier-free driver in schedule.go instead.)
func runEngine[S State](spec *Spec[S], opts Options, workers int, vs *visitedSet, em *engineMetrics) (res *Result[S], err error) {
	l := &levelSync[S]{explorer: newExplorer(spec, opts, workers, em), vs: vs, fr: newLevelFrontier()}
	defer func() { l.close(err) }()
	for _, x := range l.xs {
		x.vs = vs
	}
	if opts.CheckpointDir != "" {
		l.ck = newCheckpointer(opts)
		l.ck.em = em
	}
	l.startProgress(nil)
	// The driver goroutine runs its spec callbacks (Init, resume decoding)
	// under worker 0's guard: the inline worker 0 never runs at the same
	// time.
	func() {
		defer l.recoverSpec(&l.xs[0].g)
		l.explore()
	}()
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
		// Initial states are claimed on the driver goroutine, which the
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
		start := time.Now()
		plan, outs := l.expandLevel(frontier)
		l.phaseExpand = time.Since(start)
		if l.pi != nil {
			return
		}
		if l.st.stopped() {
			// Mid-expansion stop: the level's candidates are discarded —
			// no counter moved — and the same frontier checkpoints cleanly.
			l.interrupt(frontier, level)
			return
		}
		start = time.Now()
		if l.vs.run != "" {
			fps := l.missFPs[:0]
			for i := range outs {
				for _, m := range outs[i].misses {
					fps = push(fps, m.fp)
				}
			}
			l.missFPs = fps
			if err := l.vs.ResolveLevel(fps); err != nil {
				l.fail(err)
				return
			}
		}
		if !l.merge(plan, frontier, outs) {
			return
		}
		for i := range outs {
			// A reused buffer must not pin this level's successor states.
			outs[i].succs.clear(len(outs[i].misses))
		}
		// The level's frontier states are fully expanded: the arena drops
		// their live values (live retention keeps everything by design).
		l.ret.releaseAll(frontier)
		if err := l.vs.EndLevel(); err != nil {
			l.fail(err)
			return
		}
		l.phaseMerge = time.Since(start)
	}
}

// registerInit registers one initial state, before any worker runs: its id
// (-1 if refused) and false once the run is over.
func (l *levelSync[S]) registerInit(s S) (int, bool) {
	x := l.xs[0]
	x.g.enter(opEncode, "", -1)
	enc := x.cod.canonical(s)
	x.g.exit()
	fp := fingerprint(enc)
	if id, ok := l.vs.probe(fp, enc); ok {
		return id, true
	}
	id, err := l.install(x, s, enc, -1, 0, 0)
	if err != nil {
		l.fail(err)
		return -1, false
	}
	l.vs.own(fp, enc, id)
	inv, within, err := l.verdict(x, s, id)
	switch {
	case err != nil:
		l.violate(id, inv, err)
		return id, false
	case within:
		l.ret.retainLive(id, s)
		l.fr.Push(id)
	default:
		l.res.ConstraintCuts++
	}
	return id, true
}

// interrupt winds the run down at a level boundary: the partial counters
// stay in the Result, and a checkpoint is written when configured.
// Expansion is side-effect-free until the merge settles it — ids, counters
// and retention only change in the merge — so the unexpanded frontier is a
// clean resume point even when the stop landed mid-expansion.
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
// the journal, with the phase durations of the level that produced the
// frontier. It runs on the driver goroutine between levels, so the
// counters it reads are settled; spill pressure sums the visited set's
// sealed run and the arena's spill file, both of which only grow there
// too.
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
	l.em.journalLevel(p, l.phaseExpand, l.phaseMerge)
	l.phaseExpand, l.phaseMerge = 0, 0
}

// expandLevel expands every frontier state into per-chunk candidates, in
// parallel. Each miss lands in the chunk's miss table, its state in succs,
// in probe order (under POR not the ample-first emission order). A spec
// panic is parked as the run's panic, which stops the other workers at
// their next poll.
func (l *levelSync[S]) expandLevel(frontier []int) (chunkPlan, []chunkOut[S]) {
	plan := planChunks(len(frontier), len(l.xs))
	if n := plan.nChunks - cap(l.outs); n > 0 {
		l.outs = append(l.outs[:cap(l.outs)], make([]chunkOut[S], n)...)
	}
	outs := l.outs[:plan.nChunks]
	plan.run(func(w, c, lo, hi int) {
		x, out := l.xs[w], &outs[c]
		defer l.recoverSpec(&x.g)
		out.worker, out.lo, out.hi = w, lo, hi
		out.cands, out.states = out.cands[:0], out.states[:0]
		x.misses, x.keys = out.misses[:0], out.keys[:0] // the expander appends the chunk's misses
		for _, id := range frontier[lo:hi] {
			if l.stop.Load() {
				break
			}
			n, k := x.expand(l.ret.stateOf(id), id)
			for t, sid := range x.ids {
				if sid < 0 {
					out.succs.reserve(^sid + 1)
					*out.succs.at(^sid) = x.succs[t]
				}
			}
			for j, t := range x.order {
				sid := x.ids[t]
				if j < k && sid < 0 { // the route pass's witness needs an ample miss's constraint
					x.misses[^sid].within = l.within(x, x.succs[t], id)
				}
				out.cands = push(out.cands, candidate{id: int32(sid), act: int32(x.acts[t])})
			}
			out.states = append(out.states, expanded{n: n, k: k})
			l.em.observeFanout(n)
		}
		out.misses, out.keys = x.misses, x.keys
	})
	return plan, outs
}

// merge settles a level in merge order (see the file comment). false ends
// the run (the outcome is recorded).
func (l *levelSync[S]) merge(plan chunkPlan, frontier []int, outs []chunkOut[S]) bool {
	restored := l.vs.run != "" // ResolveLevel may have restored misses
	n := 0
	for c := range outs {
		outs[c].base = n
		n += len(outs[c].misses)
	}
	l.missIDs = resize(l.missIDs, n)
	l.winsBy = resize(l.winsBy, len(outs)*visitedShards)

	plan.run(func(_, c, _, _ int) { l.route(&outs[c], restored) })
	planChunks(visitedShards, len(l.xs)).run(func(_, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			l.claimShard(s, outs)
		}
	})
	base := l.ret.len()
	next := base
	for c := range outs {
		outs[c].first = next
		for _, w := range l.winsBy[c*visitedShards : (c+1)*visitedShards] {
			next += w
		}
	}
	if l.opts.MaxStates > 0 {
		next = min(next, l.opts.MaxStates)
	}
	if !l.ret.decode {
		l.ret.live.reserve(next)
	}
	// settle writes each winner's link record at its id; the tail truncates
	// the table to the states the level installs.
	l.ret.arena.meta = slices.Grow(l.ret.arena.meta, next-base)[:next]
	plan.run(func(w, c, lo, hi int) { l.settle(l.xs[w], &outs[c], frontier[lo:hi]) })
	return l.tail(frontier, outs)
}

// resize returns s with length n, reallocated only when it lacks the
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// route lists, in merge order and then grouped by shard, the misses of
// chunk out's processed candidates: all of them, or a state's ample head
// if its cycle proviso (por.go) holds. The witness is an ample miss not
// restored from disk — new to the level, so it gets an id at or past the
// level's first — and inside the constraint, so the next level expands it.
func (l *levelSync[S]) route(out *chunkOut[S], restored bool) {
	out.order = out.order[:0]
	ci := 0
	for si := range out.states {
		st := &out.states[si]
		cands := out.cands[ci : ci+st.n]
		ci += st.n
		if st.k >= 0 {
			witness := false
			for _, c := range cands[:st.k] {
				if c.id < 0 && out.misses[^c.id].within && (!restored || !l.vs.has(out.miss(int(^c.id)))) {
					witness = true
					break
				}
			}
			if !witness {
				st.k = -1
			}
		}
		if st.k >= 0 {
			cands = cands[:st.k]
		}
		for _, c := range cands {
			if c.id < 0 {
				out.order = push(out.order, pick{miss: ^c.id, src: int32(si), act: c.act})
			}
		}
	}
	var start [visitedShards]int32 // a stable counting sort by shard
	for _, p := range out.order {
		start[out.misses[p.miss].fp&(visitedShards-1)]++
	}
	var sum int32
	for s, n := range start {
		start[s], sum = sum, sum+n
		out.shardEnd[s] = sum
	}
	out.route = resize(out.route, len(out.order))
	for _, p := range out.order {
		s := out.misses[p.miss].fp & (visitedShards - 1)
		out.route[start[s]] = p.miss
		start[s]++
	}
}

// claimShard walks shard s's misses in merge order: a new state's first
// occurrence g wins and inserts the placeholder -2-g, which later chunks'
// occurrences record; a duplicate ResolveLevel restored records its id.
func (l *levelSync[S]) claimShard(s int, outs []chunkOut[S]) {
	for c := range outs {
		out := &outs[c]
		won := 0
		for _, i := range out.shardMisses(s) {
			g := out.base + int(i)
			fp, enc := out.miss(int(i))
			id, isNew := l.vs.own(fp, enc, -2-g)
			if isNew {
				id = winner
				won++
			}
			l.missIDs[g] = id
		}
		l.winsBy[c*visitedShards+s] = won
	}
}

// settle numbers chunk out's winners from out.first, publishes each id
// over its placeholder, places each winner's live value (an arena under
// symmetry: its plain encoding), links it to its frontier state in fr, and
// checks its verdict. It stops at the chunk's cut: the first winner past
// MaxStates, violating, or panicking.
func (l *levelSync[S]) settle(x *expander[S], out *chunkOut[S], fr []int) {
	out.won, out.plain, out.plainEnd = out.won[:0], out.plain[:0], out.plainEnd[:0]
	out.done, out.depth, out.passed, out.violInv, out.violErr, out.pi = 0, 0, 0, "", nil, nil
	defer func() {
		if r := recover(); r != nil {
			out.pi = x.g.capture(r)
		}
	}()
	sym := l.ret.decode && x.cod.sym != nil
	for _, p := range out.order {
		g := out.base + int(p.miss)
		if l.missIDs[g] != winner {
			continue
		}
		id := out.first + len(out.won)
		l.missIDs[g] = id
		fp, enc := out.miss(int(p.miss))
		l.vs.publish(fp, enc, id)
		out.won = push(out.won, p)
		if l.opts.MaxStates > 0 && id >= l.opts.MaxStates {
			return
		}
		s := *out.succs.at(int(p.miss))
		if sym {
			x.g.enter(opEncode, l.spec.Actions[p.act].Name, -1)
			out.plain = x.cod.encode(s, out.plain)
			x.g.exit()
			out.plainEnd = push(out.plainEnd, len(out.plain))
		} else if !l.ret.decode {
			*l.ret.live.at(id) = s
		}
		parent := fr[p.src]
		out.depth = l.ret.depthOf(parent) + 1
		l.ret.arena.meta[id] = arenaMeta{parent: int32(parent), depth: int32(out.depth), act: l.ret.actIDs[p.act]}
		out.done++
		if out.violInv, out.misses[p.miss].within, out.violErr = l.verdict(x, s, id); out.violErr != nil {
			return
		}
		out.passed++
	}
}

// tail is the merge's serial pass. The level's cut is the first chunk's
// cut in merge order (ids follow it). The states installed before it stay;
// each chunk up to it stores its arena encodings, queues its winners inside
// the constraint and replays its candidates; the cut becomes the run's
// outcome. false ends the run.
func (l *levelSync[S]) tail(frontier []int, outs []chunkOut[S]) bool {
	cut, cc := -1, len(outs)
	for c := range outs {
		if o := &outs[c]; o.passed < len(o.won) {
			cut, cc = o.first+o.passed, c
			l.ret.arena.meta = l.ret.arena.meta[:o.first+o.done]
			break
		}
	}
	for c := range outs[:min(cc+1, len(outs))] {
		o := &outs[c]
		if o.done > 0 {
			l.res.Depth = max(l.res.Depth, o.depth)
		}
		lo := 0
		for j, p := range o.won[:o.done] {
			if l.cod.sym != nil && l.ret.decode {
				l.ret.arena.store(o.first+j, o.plain[lo:o.plainEnd[j]])
				lo = o.plainEnd[j]
			} else if l.ret.decode {
				l.ret.arena.store(o.first+j, missKey(o.misses, o.keys, int(p.miss)))
			}
		}
		for j, p := range o.won[:o.passed] {
			if o.misses[p.miss].within {
				l.ret.retainLive(o.first+j, *o.succs.at(int(p.miss)))
				l.fr.Push(o.first + j)
			} else {
				l.res.ConstraintCuts++
			}
		}
		stop := -1
		if c == cc {
			stop = cut
		}
		n := l.replay(o, frontier[o.lo:o.hi], stop, o.violErr != nil)
		l.res.Transitions += n
		l.em.addWorker(o.worker, int64(n), int64(o.done))
	}
	if cc == len(outs) {
		return true
	}
	switch o := &outs[cc]; {
	case o.violErr != nil:
		l.violate(cut, o.violInv, o.violErr)
	case o.pi != nil:
		l.recordPanic(o.pi)
	default:
		l.fail(ErrStateLimit)
	}
	return false
}

// replay walks chunk o's processed candidates from its frontier states fr
// in merge order, counting terminal and ample states and recording a
// graph's edges, up to the first candidate reaching state stop (if >= 0),
// whose edge it records only when edge is set (a violation's graph ends at
// the violating state). It returns the transitions walked.
func (l *levelSync[S]) replay(o *chunkOut[S], fr []int, stop int, edge bool) int {
	graph := l.res.Graph != nil
	n, ci := 0, 0
	for fi, st := range o.states {
		cands := o.cands[ci : ci+st.n]
		ci += st.n
		if st.n == 0 { // POR prunes expansion, never the terminal verdict
			l.res.Terminal++
			continue
		}
		if st.k >= 0 {
			cands = cands[:st.k]
		}
		if !graph && stop < 0 {
			n += len(cands)
		}
		for _, c := range cands {
			if !graph && stop < 0 {
				break
			}
			sid := int(c.id)
			if sid < 0 {
				if sid = l.missIDs[o.base+int(^c.id)]; sid <= -2 {
					sid = l.missIDs[-2-sid]
				}
			}
			n++
			if sid == stop && !edge {
				return n
			}
			if graph {
				l.ret.arena.addEdge(fr[fi], l.ret.actIDs[c.act], sid)
			}
			if sid == stop {
				return n
			}
		}
		if st.k >= 0 {
			l.res.AmpleStates++
			l.res.DeferredTransitions += st.n - st.k
			l.em.onAmple(st.n - st.k)
		}
	}
	return n
}
