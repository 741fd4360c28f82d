package tla

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The level-synchronized engine: a BFS in the style of TLC's multi-worker
// mode, expanding with one expander per worker (explore.go) and
// deduplicating through the visited set (store.go). Each level alternates
// two phases:
//
//   - Expansion (parallel): the frontier is cut into contiguous chunks and
//     a pool of workers expands them, probing every successor's canonical
//     encoding in the visited set (lock-free with fingerprints) and
//     buffering the successors the probe misses — each once per chunk:
//     a later occurrence of an encoding the chunk already buffered shares
//     that miss (see chunkOut.addMiss). Next, encoding, symmetry
//     canonicalization and hashing all happen here; nothing inserts. At
//     Workers == 1 the same code runs inline on one chunk, with the same
//     deduplication: the worker count is only a speed setting.
//
//   - Merge: passes over the same chunks that settle the level in merge
//     order — chunk, frontier position, emission position, the order a
//     textbook BFS discovers states in — in parallel wherever that order
//     does not matter: route (per chunk: each frontier state's POR cycle
//     proviso, and the misses to claim, grouped by shard); claim (per
//     shard, which the pass owns: the first occurrence of each new state
//     wins and leaves a placeholder); settle (per chunk: dense ids from a
//     prefix sum over the chunks' winners, live values in their pages and
//     an arena's plain encodings under symmetry, link records, invariants
//     and the constraint, up to the chunk's first violation or spec
//     panic); publish (per shard again: each winner's id over its
//     placeholder); and a short serial tail, which cuts the level at the
//     first violation, spec panic or MaxStates limit in merge order and
//     writes arena encodings, the next frontier and the counters in id
//     order, graph edges in candidate order.
//
// Between the phases ResolveLevel restores the misses that were spilled to
// disk (merge-on-lookup, spill.go), and after the merge EndLevel enforces
// the memory budget. Because ids, verdicts and early exits are all settled
// in merge order, the Result — counters, recorded graph, shortest
// counterexample — is identical at every worker count and in every
// visited-set mode (modulo fingerprint collisions, which
// Options.CollisionFree rules out).

// candidate is one successor awaiting the merge, in 8 bytes: the probe's
// answer — the id on a hit, ^i on a miss, whose state is the chunk's
// succs.at(i); several candidates may share a miss — and act. When a graph
// is recorded every successor is a candidate and act is its action (an
// index into Spec.Actions), which labels its edge. Otherwise only misses
// are candidates: nothing reads a hit's id or a miss's action, and act is
// the number of hits its state emitted since the previous candidate, from
// which the route and the replay recover each candidate's emission
// position (see head). (State ids are 32-bit throughout: the arena's links
// and edge records are too.)
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
	misses []miss     // probe misses, in merge order, shared ones once
	succs  pages[S]   // the misses' states, by miss index
	keys   []byte     // the misses' canonical encodings, back to back, if kept

	base     int                  // index of misses[0] in levelSync.missIDs
	route    []int32              // route: the routed misses grouped by shard
	shardEnd [visitedShards]int32 // route: shard s's end in route
	first    int                  // settle: the id of the chunk's first winner
	won      []int32              // settle: the winning misses numbered, in id order
	done     int                  // settle: won[:done] are placed and linked
	depth    int                  // settle: their depth
	passed   int                  // settle: won[:passed] passed their verdict
	plain    []byte               // settle: an arena's plain encodings under symmetry
	plainEnd []int                // settle: where won[j]'s plain encoding ends
	violInv  string               // settle: the invariant won[passed] violated,
	violErr  error                // and how
	pi       *panicInfo           // settle: the spec panic settling won[passed] raised
}

// miss is a successor the probe did not find, created by a candidate —
// the chunk's frontier state src reaching it by the Spec.Actions index act
// — and shared by the later candidates that reach the same state (see
// addMiss): its fingerprint and the end of its encoding in the chunk's
// keys (it starts where the previous miss's ends; nothing is kept when
// the merge reads no encoding, and sharing then goes by fingerprint, as
// the visited set's claim does). within is whether the successor is inside
// the constraint, once evaluated; routed marks the misses of processed
// candidates, which the merge claims. A miss's first processed candidate
// is the one that created it, so the routed misses in index order are in
// merge order. The trace checker's frontier chunks (tracecheck.go) keep
// their encoded matches (two or more, or on a pooled step a lone one) in
// the same shape, fp and end alone.
type miss struct {
	fp       uint64
	end      int32
	src, act int32
	within   bool
	routed   bool
}

// missKey returns the encoding of misses[i] in keys.
func missKey(misses []miss, keys []byte, i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = misses[i-1].end
	}
	return keys[lo:misses[i].end]
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

// expanded is one frontier state's share of a chunk's candidates: n
// successors, the first k of them in emission order ample (-1: not pruned;
// see expander.expand), and c candidates — n when a graph is recorded,
// else one per miss, whose act counts the hits skipped before it. The
// route pass keeps k only when the proviso holds.
type expanded struct{ n, k, c int32 }

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
	// Inline only when there is nothing to share: a single chunk would
	// serialize anyway, and one worker means no pool. Small frontiers with
	// expensive Next/Key/Matches (typical of trace checking) still profit
	// from a handful of goroutines.
	if p.workers == 1 || p.nChunks == 1 {
		for c := 0; c < p.nChunks; c++ {
			lo, hi := p.bounds(c)
			fn(0, c, lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= p.nChunks {
					return
				}
				lo, hi := p.bounds(c)
				fn(w, c, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// bounds returns the item range [lo, hi) of chunk c.
func (p chunkPlan) bounds(c int) (lo, hi int) {
	lo = c * p.chunkSize
	return lo, min(lo+p.chunkSize, p.n)
}

// levelSync is one checking run: its Result, retained states and codecs,
// the visited set, the frontier, one expander per worker, the merge's
// bookkeeping, and the run's lifecycle — the context's stop hook, progress
// pacing and outcome.
type levelSync[S State] struct {
	spec *Spec[S]
	opts Options
	res  *Result[S]
	ret  *retainer[S]
	cod  *codec[S] // worker 0's codec: the merge, trace and graph decoder
	em   *engineMetrics
	xs   []*expander[S] // one per worker
	vs   *visitedSet
	fr   levelFrontier
	ck   *checkpointer

	release  func() bool // releases the AfterFunc that sets stop when Options.Context fires
	prog     Progress    // the last level boundary's snapshot
	progSent bool        // prog has been delivered to Options.Progress
	progAt   time.Time   // the last Options.Progress delivery, or the run's start

	outs    []chunkOut[S] // per chunk; the backing array keeps every buffer
	missFPs []uint64      // ResolveLevel's input, reused across levels
	keyBuf  []byte        // storedKeys' scratch

	// Per miss g from each chunk's base: the claim's answer (winner, the
	// winning miss's placeholder, a restored id), then a winner's id.
	// winsBy[c*visitedShards+s]: chunk c's winners in shard s.
	missIDs []int32
	winsBy  []int32

	// phaseExpand and phaseMerge time the expansion and the merge of the
	// level that produced the current frontier.
	phaseExpand, phaseMerge time.Duration

	runControl
}

// winner marks, in levelSync.missIDs, a miss that won its claim.
const winner = -1

// levelFrontier is the run's pending work — the discovered-but-unexpanded
// state ids — as a double-buffered queue. The driver goroutine Pushes ids
// and drains one BFS level at a time: NextLevel hands out the accumulated
// level and recycles the previously handed-out slice for the next one, so
// a steady exploration allocates no frontier storage after the widest
// level. An empty level ends the exploration.
type levelFrontier struct {
	cur, next []int
}

func (f *levelFrontier) Push(id int) { f.next = push(f.next, id) }

func (f *levelFrontier) NextLevel() []int {
	f.cur, f.next = f.next, f.cur[:0]
	return f.cur
}

// runEngine is the level-synchronized driver behind Check: one
// implementation for every worker count and visited-set mode.
func runEngine[S State](spec *Spec[S], opts Options, workers int, vs *visitedSet, em *engineMetrics) (res *Result[S], err error) {
	l := newLevelSync(spec, opts, workers, vs, em)
	defer func() { l.close(err) }()
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

// newLevelSync sets up a run over the visited set vs: the Result, the
// retainer, one expander (codec clone, spec guard, POR planner, probe
// target) per worker, the graph view when asked for, the checkpointer and
// the hook that sets the stop flag when Options.Context fires.
func newLevelSync[S State](spec *Spec[S], opts Options, workers int, vs *visitedSet, em *engineMetrics) *levelSync[S] {
	l := &levelSync[S]{spec: spec, opts: opts, res: &Result[S]{Spec: spec.Name}, ret: newRetainer(spec, opts, em), cod: newCodec(spec), em: em, vs: vs, progAt: time.Now()}
	ind := activeIndependence(spec, opts)
	keys := vs.keyed || (l.ret.decode && l.cod.sym == nil)
	l.xs = make([]*expander[S], workers)
	for w := range l.xs {
		l.xs[w] = &expander[S]{spec: spec, cod: l.cod, planner: newPORPlanner(ind, em), vs: vs, keys: keys, graph: opts.RecordGraph}
		if w > 0 {
			l.xs[w].cod = l.cod.clone()
		}
	}
	if opts.RecordGraph {
		l.res.Graph = &Graph[S]{ret: l.ret, cod: l.cod, workers: workers}
		l.ret.graphOwned = true
	}
	if opts.CheckpointDir != "" {
		l.ck = newCheckpointer(opts)
		l.ck.em = em
	}
	l.release = context.AfterFunc(cmp.Or(opts.Context, context.Background()), func() { l.stop.Store(true) })
	return l
}

// close is the run's teardown, deferred by runEngine with the error the
// run returns: the final Options.Progress delivery, unless the last level
// boundary already delivered the same snapshot; then a run that failed
// without a violation discards its graph so the spill file is not leaked
// behind a result nobody will traverse (a violation keeps it: callers dump
// it alongside the counterexample); then the retainer's spill file,
// honouring that ownership verdict; then the context's stop hook.
func (l *levelSync[S]) close(err error) {
	if l.opts.Progress != nil && l.opts.ProgressEvery > 0 && !l.progSent {
		l.opts.Progress(l.prog)
	}
	if l.res.Graph != nil && err != nil && l.res.Violation == nil {
		l.ret.graphOwned = false
		l.res.Graph = nil
	}
	l.ret.close()
	l.release()
}

// finish settles the Result after the driver returned and every worker
// joined. Precedence: a found violation is a complete verdict and wins;
// then a recovered spec panic; then the run error; then the interruption,
// with the partial counters.
func (l *levelSync[S]) finish() (*Result[S], error) {
	res := l.res
	res.Distinct = l.ret.len()
	if l.ret.degradedMemory() {
		res.DegradedMemory = true
	}
	switch {
	case l.violErr != nil:
		trace, acts, err := safeTrace(l.cod, l.ret, l.violID)
		if err != nil {
			return res, err
		}
		res.Violation = &Violation[S]{Invariant: l.violInv, Err: l.violErr, Trace: trace, TraceActs: acts}
		return res, res.Violation
	case l.pi != nil:
		return res, specPanicError(l.cod, l.ret, l.pi)
	case l.runErr != nil:
		return res, l.runErr
	case l.interrupted:
		res.Interrupted = true
		return res, interruptError(l.opts.Context)
	}
	return res, nil
}

// explore registers the initial states (or restores a checkpoint) and runs
// the levels until the frontier drains or the run ends.
func (l *levelSync[S]) explore() {
	level := 0
	if l.opts.ResumeFrom != "" {
		// A resumed run restores the checkpoint instead of registering
		// initial states: counters, arena, the visited set rebuilt from
		// it, and the frontier's live values.
		lvl, err := l.resume()
		if err != nil {
			l.fail(err)
			return
		}
		level = lvl
		// Seed worker 0 with the restored counters so the metrics-vs-Result
		// identities hold across a resume as well.
		l.em.addWorker(0, int64(l.res.Transitions), int64(l.ret.len()))
	} else {
		if !l.registerInits() {
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
		if canceled(l.opts.Context) {
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
		if canceled(l.opts.Context) {
			// A cancel during the expansion: its candidates are discarded —
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
			if err := l.vs.ResolveLevel(fps, l.storedKeys); err != nil {
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
		if err := l.vs.EndLevel(); err != nil {
			l.fail(err)
			return
		}
		l.phaseMerge = time.Since(start)
	}
}

// storedKeys is a keyed ResolveLevel's keyReader: the key of each of recs
// is codec.key, under worker 0's guard, of the state's encoding in the
// arena, which a keyed set that seals retains for every state, read one
// segment at a time (stateArena.encodings).
func (l *levelSync[S]) storedKeys(recs []spillRec, restore func(spillRec, []byte)) error {
	var err error
	l.keyBuf, err = l.ret.arena.encodings(len(recs), func(k int) int { return int(recs[k].id) }, l.keyBuf, func(k int, enc []byte) error {
		id := int(recs[k].id)
		l.xs[0].g.enter(opEncode, "", id)
		key, err := l.cod.key(enc)
		l.xs[0].g.exit()
		if err != nil {
			return fmt.Errorf("tla: arena decode: state %d: %w", id, err)
		}
		restore(recs[k], key)
		return nil
	})
	return err
}

// registerInits calls Init under worker 0's guard, rebinds the run's
// decoder to a real initial state (decoders may carry run configuration
// the zero value lacks — see BinaryDecoder), and registers each new
// initial state as the merge settles a level's: the MaxStates bound, the
// visited set, retention, the verdict, then the frontier. It records the
// graph's Inits and reports false once the run is over.
func (l *levelSync[S]) registerInits() bool {
	x := l.xs[0]
	x.g.enter(opInit, "", -1)
	inits := l.spec.Init()
	x.g.exit()
	if len(inits) > 0 {
		l.cod.bindDecoder(inits[0])
	}
	for _, s := range inits {
		x.g.enter(opEncode, "", -1)
		enc := x.cod.canonical(s)
		x.g.exit()
		fp := stateFP(enc)
		id, seen := l.vs.probe(fp, enc)
		if !seen {
			if id = l.ret.len(); l.opts.MaxStates > 0 && id >= l.opts.MaxStates {
				l.fail(ErrStateLimit)
				return false
			}
			l.vs.own(fp, enc, id)
			if l.ret.decode && x.cod.sym != nil {
				// The arena stores the exact state explored; under
				// symmetry enc names its orbit.
				x.g.enter(opEncode, "", -1)
				enc = x.cod.encode(s, nil)
				x.g.exit()
			}
			l.ret.add(s, enc, -1, 0, 0)
		}
		if l.res.Graph != nil {
			l.res.Graph.Inits = append(l.res.Graph.Inits, id)
		}
		if seen {
			continue
		}
		switch inv, within, err := l.verdict(x, s, id); {
		case err != nil:
			l.violate(id, inv, err)
			return false
		case within:
			l.fr.Push(id)
		default:
			l.res.ConstraintCuts++
		}
	}
	return true
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
		l.fail(errors.Join(interruptError(l.opts.Context), fmt.Errorf("tla: writing checkpoint: %w", err)))
		return
	}
	l.res.CheckpointPath = path
}

// checkpoint wraps writeCheckpoint with the duration histogram and the
// journal's checkpoint event.
func (l *levelSync[S]) checkpoint(frontier []int, level int) (string, error) {
	start := time.Now()
	path, err := writeCheckpoint(l.ck, l.spec, l.opts, l.ret, l.res, frontier, level)
	l.em.onCheckpoint(level, path, time.Since(start), err)
	return path, err
}

// report publishes one level boundary's snapshot to the journal, with the
// phase durations of the level that produced the frontier, and to
// Options.Progress once ProgressEvery has passed since the last delivery.
// It runs on the driver goroutine between levels, so the counters it reads
// are settled; spill pressure sums the visited set's sealed run and the
// arena's spill file, both of which only grow there too.
func (l *levelSync[S]) report(frontier []int, level int) {
	l.prog = Progress{
		Distinct:      l.ret.len(),
		Transitions:   l.res.Transitions,
		Depth:         l.res.Depth,
		Level:         level,
		Frontier:      len(frontier),
		SpillBytes:    l.vs.sealed + l.ret.arena.fileSize,
		ResidentBytes: l.vs.residentBytes() + l.ret.arena.residentBytes(),
	}
	l.progSent = false
	if now := time.Now(); l.opts.Progress != nil && l.opts.ProgressEvery > 0 && now.Sub(l.progAt) >= l.opts.ProgressEvery {
		l.progAt, l.progSent = now, true
		l.opts.Progress(l.prog)
	}
	l.em.journalLevel(l.prog, l.phaseExpand, l.phaseMerge)
	l.phaseExpand, l.phaseMerge = 0, 0
}

// expandLevel expands every frontier state into per-chunk candidates, in
// parallel. Each miss lands in the chunk's miss table, its state in succs,
// in emission order; a hit is a candidate only when a graph is recorded,
// and is otherwise counted in the next candidate's act. A spec panic is
// parked as the run's panic, which stops the other workers at their next
// poll.
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
		out.cands, out.states, out.misses, out.keys = out.cands[:0], out.states[:0], out.misses[:0], out.keys[:0]
		x.seen.reset()
		for _, id := range frontier[lo:hi] {
			if l.stop.Load() {
				break
			}
			n, k := x.expand(l.ret.stateOf(id), id)
			c0, hits := len(out.cands), 0
			for j, t := range x.order {
				sid, act := x.ids[t], x.acts[t]
				if sid >= 0 && !x.graph {
					hits++
					continue
				}
				if sid < 0 {
					sid = ^out.addMiss(x, t, k < 0 || j < k)
					if j < k { // the route pass's witness needs an ample miss's constraint
						out.misses[^sid].within = l.within(x, x.succs[t], id)
					}
					if !x.graph {
						act, hits = hits, 0
					}
				}
				out.cands = push(out.cands, candidate{id: int32(sid), act: int32(act)})
			}
			out.states = append(out.states, expanded{n: int32(n), k: int32(k), c: int32(len(out.cands) - c0)})
			l.em.observeFanout(n)
		}
	})
	return plan, outs
}

// addMiss returns the chunk's miss for successor t of x, which missed the
// probe. A successor the route pass always processes (share: one of a
// fully expanded state or of an ample head) reuses the chunk's shared miss
// with its encoding if there is one, and a miss it creates is shared from
// then on. A deferred successor is processed only if its state's proviso
// fails, so its miss is its own: a shared miss must hold the concrete
// state of an occurrence the merge processes, and under symmetry another
// occurrence of the same orbit can be a different state.
func (o *chunkOut[S]) addMiss(x *expander[S], t int, share bool) int {
	fp, enc := x.fps[t], x.enc(t)
	if !x.keys {
		enc = nil // kept by nothing, so shared by fingerprint
	}
	if share {
		if i := x.seen.find(o.misses, o.keys, fp, enc); i >= 0 {
			return i
		}
	}
	i := len(o.misses)
	o.keys = push(o.keys, enc...)
	o.misses = push(o.misses, miss{fp: fp, end: int32(len(o.keys)), src: int32(len(o.states)), act: int32(x.acts[t])})
	o.succs.reserve(i + 1)
	*o.succs.at(i) = x.succs[t]
	if share {
		x.seen.add(o.misses, i)
	}
	return i
}

// missTable indexes the shared misses of the chunk an expander is
// expanding — and a trace check's encoded matches, per chunk on its pool
// goroutine and across chunks in the merge — open addressing over miss
// indices, probed by fingerprint and checked by bytes. Each slot carries
// the generation of the chunk that wrote it, so moving on clears nothing.
type missTable struct {
	slots []missSlot
	gen   uint32
	n     int
	shift uint // 64 - log2(len(slots)), as in fpTable
}

type missSlot struct{ gen, miss uint32 }

// reset empties the table for the next chunk.
func (t *missTable) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 { // wrapped: a stale slot could look current
		clear(t.slots)
		t.gen = 1
	}
}

// find returns the shared miss with fingerprint fp and encoding enc among
// misses (encodings in keys), or -1.
func (t *missTable) find(misses []miss, keys []byte, fp uint64, enc []byte) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := (fp * fpMix) >> t.shift; t.slots[i].gen == t.gen; i = (i + 1) & mask {
		if m := int(t.slots[i].miss); misses[m].fp == fp && bytes.Equal(missKey(misses, keys, m), enc) {
			return m
		}
	}
	return -1
}

// add indexes misses[m], doubling the table at half load.
func (t *missTable) add(misses []miss, m int) {
	if 2*(t.n+1) > len(t.slots) {
		old, size := t.slots, max(2*len(t.slots), 1024)
		t.slots, t.shift = make([]missSlot, size), uint(64-bits.TrailingZeros(uint(size)))
		for _, s := range old {
			if s.gen == t.gen {
				t.put(misses[s.miss].fp, s.miss)
			}
		}
	}
	t.put(misses[m].fp, uint32(m))
	t.n++
}

func (t *missTable) put(fp uint64, m uint32) {
	mask := uint64(len(t.slots) - 1)
	i := (fp * fpMix) >> t.shift
	for t.slots[i].gen == t.gen {
		i = (i + 1) & mask
	}
	t.slots[i] = missSlot{gen: t.gen, miss: m}
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
	l.eachShard(func(s int) { l.claimShard(s, outs) })
	base := l.ret.len()
	next := base
	for c := range outs {
		outs[c].first = next
		for _, w := range l.winsBy[c*visitedShards : (c+1)*visitedShards] {
			next += int(w)
		}
	}
	if l.opts.MaxStates > 0 {
		next = min(next, l.opts.MaxStates)
	}
	// settle writes each winner's live value and link record at its id;
	// the tail truncates the table to the states the level installs.
	l.ret.reserve(next)
	l.ret.arena.setLen(next)
	plan.run(func(w, c, lo, hi int) { l.settle(l.xs[w], &outs[c], frontier[lo:hi]) })
	l.eachShard(func(s int) { l.publishShard(s, outs, base) })
	if !l.tail(frontier, outs) {
		return false
	}
	l.ret.dropBelow(base) // every state below the level is expanded
	return true
}

// eachShard calls fn for every shard of the visited set, each from one
// goroutine: the shard's one owner in the pass.
func (l *levelSync[S]) eachShard(fn func(s int)) {
	planChunks(visitedShards, len(l.xs)).run(func(_, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			fn(s)
		}
	})
}

// resize returns s with length n, and its contents only when it had the
// capacity; otherwise a new slice with room for 2n, so that a buffer sized
// for each wider level is reallocated a logarithmic number of times.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 2*n)
	}
	return s[:n]
}

// route marks the misses of chunk out's processed candidates — all of
// them, or a state's ample head if its cycle proviso (por.go) holds — and
// lists them grouped by shard, in merge order within each. The witness is
// an ample miss not restored from disk — new to the level, so it gets an
// id at or past the level's first — and inside the constraint, so the next
// level expands it.
func (l *levelSync[S]) route(out *chunkOut[S], restored bool) {
	ci := 0
	for si := range out.states {
		st := &out.states[si]
		cands := out.cands[ci : ci+int(st.c)]
		ci += int(st.c)
		if st.k >= 0 {
			witness := false
			for _, c := range l.head(cands, int(st.k)) {
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
			cands = l.head(cands, int(st.k))
		}
		for _, c := range cands {
			if c.id < 0 {
				out.misses[^c.id].routed = true
			}
		}
	}
	var start [visitedShards]int32 // a stable counting sort by shard
	for i := range out.misses {
		if m := &out.misses[i]; m.routed {
			start[m.fp&(visitedShards-1)]++
		}
	}
	var sum int32
	for s, n := range start {
		start[s], sum = sum, sum+n
		out.shardEnd[s] = sum
	}
	out.route = resize(out.route, int(sum))
	for i := range out.misses {
		if m := &out.misses[i]; m.routed {
			s := m.fp & (visitedShards - 1)
			out.route[start[s]] = int32(i)
			start[s]++
		}
	}
}

// claimShard walks shard s's misses in merge order: a new state's first
// occurrence g wins and inserts the placeholder -2-g, which later chunks'
// occurrences record; a duplicate ResolveLevel restored records its id.
func (l *levelSync[S]) claimShard(s int, outs []chunkOut[S]) {
	for c := range outs {
		out := &outs[c]
		won := int32(0)
		for _, i := range out.shardMisses(s) {
			g := out.base + int(i)
			fp, enc := out.miss(int(i))
			id, isNew := l.vs.own(fp, enc, -2-g)
			if isNew {
				id = winner
				won++
			}
			l.missIDs[g] = int32(id)
		}
		l.winsBy[c*visitedShards+s] = won
	}
}

// publishShard publishes over their placeholders the ids settle gave
// shard s's winners — its misses whose id is at or past base, the level's
// first. A shard owner's pass after settle, like claimShard: a publish
// scans the slots of fp's probe sequence, which only the shard's owner may
// write meanwhile.
func (l *levelSync[S]) publishShard(s int, outs []chunkOut[S], base int) {
	for c := range outs {
		out := &outs[c]
		for _, i := range out.shardMisses(s) {
			if id := int(l.missIDs[out.base+int(i)]); id >= base {
				fp, enc := out.miss(int(i))
				l.vs.publish(fp, enc, id)
			}
		}
	}
}

// settle numbers chunk out's winners from out.first, places each winner's
// live value (and, for an arena under symmetry, its plain encoding), links
// it to its frontier state in fr, and checks its verdict. It stops at the
// chunk's cut: the first winner past MaxStates, violating, or panicking.
func (l *levelSync[S]) settle(x *expander[S], out *chunkOut[S], fr []int) {
	out.won, out.plain, out.plainEnd = out.won[:0], out.plain[:0], out.plainEnd[:0]
	out.done, out.depth, out.passed, out.violInv, out.violErr, out.pi = 0, 0, 0, "", nil, nil
	defer func() {
		if r := recover(); r != nil {
			out.pi = x.g.capture(r)
		}
	}()
	sym := l.ret.decode && x.cod.sym != nil
	for i := range out.misses {
		m, g := &out.misses[i], out.base+i
		if !m.routed || l.missIDs[g] != winner {
			continue
		}
		id := out.first + len(out.won)
		l.missIDs[g] = int32(id)
		out.won = push(out.won, int32(i))
		if l.opts.MaxStates > 0 && id >= l.opts.MaxStates {
			return
		}
		s := *out.succs.at(i)
		*l.ret.live.at(id) = s
		if sym {
			x.g.enter(opEncode, l.spec.Actions[m.act].Name, -1)
			out.plain = x.cod.encode(s, out.plain)
			x.g.exit()
			out.plainEnd = push(out.plainEnd, len(out.plain))
		}
		parent := fr[m.src]
		out.depth = l.ret.depthOf(parent) + 1
		*l.ret.arena.rec(id) = arenaMeta{parent: int32(parent), depth: int32(out.depth), act: l.ret.actIDs[m.act]}
		out.done++
		if out.violInv, m.within, out.violErr = l.verdict(x, s, id); out.violErr != nil {
			return
		}
		if !m.within && l.ret.decode {
			var zero S // an arena keeps only the values it will expand
			*l.ret.live.at(id) = zero
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
			l.ret.arena.setLen(o.first + o.done)
			break
		}
	}
	for c := range outs[:min(cc+1, len(outs))] {
		o := &outs[c]
		if o.done > 0 {
			l.res.Depth = max(l.res.Depth, o.depth)
		}
		lo := 0
		for j, i := range o.won[:o.done] {
			if l.cod.sym != nil && l.ret.decode {
				l.ret.arena.store(o.first+j, o.plain[lo:o.plainEnd[j]])
				lo = o.plainEnd[j]
			} else if l.ret.decode {
				l.ret.arena.store(o.first+j, missKey(o.misses, o.keys, int(i)))
			}
		}
		for j, i := range o.won[:o.passed] {
			if o.misses[i].within {
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

// head returns the candidates among the first k successors a state
// emitted, given all of its candidates: the first k when a graph is
// recorded, else those whose emission position, the hits skipped before
// them included, is below k.
func (l *levelSync[S]) head(cands []candidate, k int) []candidate {
	if l.res.Graph != nil {
		return cands[:k]
	}
	pos := 0
	for j, c := range cands {
		if pos += int(c.act); pos >= k {
			return cands[:j]
		}
		pos++
	}
	return cands
}

// replay walks chunk o's processed candidates from its frontier states fr
// in merge order, counting terminal and ample states and recording a
// graph's edges, up to the first candidate reaching state stop (if >= 0),
// whose edge it records only when edge is set (a violation's graph ends at
// the violating state). It returns the transitions walked, the hits
// before the stop included: without a graph they are counted from the
// candidates' skip counts, and a state's walk is needed only to find stop.
func (l *levelSync[S]) replay(o *chunkOut[S], fr []int, stop int, edge bool) int {
	graph := l.res.Graph != nil
	n, ci := 0, 0
	for fi, st := range o.states {
		cands := o.cands[ci : ci+int(st.c)]
		ci += int(st.c)
		if st.n == 0 { // POR prunes expansion, never the terminal verdict
			l.res.Terminal++
			continue
		}
		proc := int(st.n)
		if st.k >= 0 {
			proc = int(st.k)
			cands = l.head(cands, proc)
		}
		if graph || stop >= 0 {
			pos := 0
			for _, c := range cands {
				if !graph {
					pos += int(c.act)
				}
				pos++
				sid := int(c.id)
				if sid < 0 {
					if sid = int(l.missIDs[o.base+int(^c.id)]); sid <= -2 {
						sid = int(l.missIDs[-2-sid])
					}
				}
				if graph && (sid != stop || edge) {
					l.ret.arena.addEdge(fr[fi], l.ret.actIDs[c.act], sid)
				}
				if sid == stop {
					return n + pos
				}
			}
		}
		n += proc
		if st.k >= 0 {
			deferred := int(st.n - st.k)
			l.res.AmpleStates++
			l.res.DeferredTransitions += deferred
			l.em.onAmple(deferred)
		}
	}
	return n
}
