package tla

import "sync"

// This file defines the engine's one visited set and the level-synchronized
// engine's pending-work queue. Both schedules deduplicate through the same
// two visitedSet methods: probe, a read-only lookup, and claim, the only
// insert, which assigns the dense state id on first sight. Work-stealing
// claims each successor as it registers it (schedule.go). The
// level-synchronized engine (engine.go) probes every successor during its
// parallel expansion — nothing inserts then, so a miss means "no id before
// this level" — and claims the misses during its sequential merge, in
// deterministic order: that is how the sequential oracle, the parallel
// checker and the bounded-memory checker stay byte-for-byte comparable.
// Under a memory budget the fingerprint set seals into sorted runs on disk
// between levels (spill.go).

// levelFrontier is the level-synchronized engine's pending work — the
// discovered-but-unexpanded state ids — as a double-buffered queue. The
// engine Pushes ids from the merge goroutine only and drains one BFS level
// at a time: NextLevel hands out the accumulated level and recycles the
// previously handed-out slice for the next one, so a steady exploration
// allocates no frontier storage after the widest level. An empty level ends
// the exploration.
type levelFrontier struct {
	cur, next []int
}

func newLevelFrontier() *levelFrontier { return &levelFrontier{} }

func (f *levelFrontier) Push(id int) { f.next = append(f.next, id) }

func (f *levelFrontier) NextLevel() []int {
	f.cur, f.next = f.next, f.cur[:0]
	return f.cur
}

// visitedShards is the number of independently locked shards of the
// visited set. A power of two so the shard index is a mask of the
// fingerprint.
const visitedShards = 64

// visitedSet maps canonical state encodings to dense state ids: TLC's
// fingerprint set, sharded into independently locked maps that hold no
// pointers. It keys on 64-bit fingerprints by default and, keyed, on full
// encodings (the fingerprint then only picks the shard) — always for the
// sequential oracle (Workers == 1 without a budget or checkpoint, which
// persist fingerprints), so it is never subject to fingerprint collisions,
// and for any run with Options.CollisionFree. The fields after shards are
// the fingerprint mode's spill state (spill.go), touched only on the
// level-sync merge goroutine.
type visitedSet struct {
	keyed  bool
	shards [visitedShards]visitedShard

	budget   int64 // 0 = never seal
	fsys     FS
	em       *engineMetrics // nil-safe observability sink
	dir      string         // temp dir holding the runs; created on first spill
	runs     []string       // paths of sealed sorted run files, oldest first
	seq      int            // run file name sequence (survives compaction)
	sealed   int64          // bytes of sealed run files currently on disk
	degraded bool           // a persistent spill-write failure switched the set to hold-resident
	recBuf   []spillRec     // EndLevel's scratch, reused across levels
}

// visitedShard is one lock stripe of the visited set; exactly one of its
// maps is in use, per the set's mode.
type visitedShard struct {
	mu    sync.Mutex
	byFP  map[uint64]int
	byKey map[string]int
}

// newVisitedSet builds the visited set for a validated Options. A budget or
// a checkpoint forces fingerprints even for the sequential oracle: both
// persist (fingerprint, id) records, which a keyed map cannot be rebuilt
// from (Validate rejects either alongside CollisionFree).
func newVisitedSet(opts Options, workers int, em *engineMetrics) *visitedSet {
	vs := &visitedSet{
		keyed:  opts.CollisionFree || (workers == 1 && opts.MemoryBudgetBytes == 0 && !opts.checkpointing()),
		budget: opts.MemoryBudgetBytes,
		fsys:   resolveFS(opts.FS),
		em:     em,
	}
	vs.clearResident()
	return vs
}

// clearResident makes every shard's map anew, empty: at construction, and
// after a seal moved the resident fingerprints to disk.
func (vs *visitedSet) clearResident() {
	for i := range vs.shards {
		if vs.keyed {
			vs.shards[i].byKey = make(map[string]int)
		} else {
			vs.shards[i].byFP = make(map[uint64]int)
		}
	}
}

// probe looks enc (with fingerprint fp) up without inserting it. Safe for
// concurrent use.
func (vs *visitedSet) probe(fp uint64, enc []byte) (id int, ok bool) {
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	id, ok = sh.get(fp, enc)
	sh.mu.Unlock()
	return id, ok
}

// claim resolves enc (with fingerprint fp) to its dense state id, inserting
// on first sight — the visited set's only insert. alloc runs under the
// shard lock, exactly once per distinct encoding, to register the state and
// assign its id; a negative id from alloc refuses the insert (state limit,
// failure or stop) and leaves the encoding unclaimed. Safe for concurrent
// use. In keyed mode enc is copied to a string key only on insert.
func (vs *visitedSet) claim(fp uint64, enc []byte, alloc func() int) (id int, isNew bool) {
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	// Unlock by defer, not explicitly: alloc runs spec encoding code under
	// this lock (arena mode), and a recovered spec panic must release the
	// shard on unwind or the drain would deadlock on it.
	defer sh.mu.Unlock()
	if id, ok := sh.get(fp, enc); ok {
		return id, false
	}
	if id = alloc(); id >= 0 {
		if sh.byKey != nil {
			sh.byKey[string(enc)] = id
		} else {
			sh.byFP[fp] = id
		}
	}
	return id, id >= 0
}

// get looks enc up in whichever map the shard keeps. Callers hold sh.mu.
func (sh *visitedShard) get(fp uint64, enc []byte) (int, bool) {
	if sh.byKey != nil {
		id, ok := sh.byKey[string(enc)] // no alloc: map lookup by converted []byte
		return id, ok
	}
	id, ok := sh.byFP[fp]
	return id, ok
}

// resident counts the ids held in the shard maps. Callers exclude
// concurrent claims (the level-sync merge goroutine, between levels).
func (vs *visitedSet) resident() int {
	n := 0
	for i := range vs.shards {
		n += len(vs.shards[i].byFP) + len(vs.shards[i].byKey)
	}
	return n
}
