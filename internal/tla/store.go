package tla

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file defines the engine's one visited set and the level-synchronized
// engine's pending-work queue. Both schedules look states up through
// probe, a read-only lookup. Work-stealing inserts through claim, safe for
// concurrent use, which assigns the dense state id on first sight
// (schedule.go). The level-synchronized engine (engine.go) probes during
// its parallel expansion — nothing inserts then, so a miss means "no id
// before this level" — and inserts in its merge, in merge order: a claim
// pass gives each shard one owner, which inserts a placeholder for each
// first occurrence (own), and the settle pass publishes the ids over them.
// That is how the sequential oracle, the parallel checker and the
// bounded-memory checker stay byte-for-byte comparable.
//
// In fingerprint mode each shard is TLC's FPSet in miniature: an
// open-addressed table of 16-byte {fingerprint, id} slots whose words are
// atomics, so a probe takes no lock, and a claim of a fingerprint already
// present — nine successors in ten on a small-state spec — takes none
// either. Only an insert locks its shard — or, in the merge's claim pass,
// owns it: it rechecks, runs the caller's alloc, and publishes the id
// before the fingerprint, so a lock-free reader that sees the fingerprint
// sees its id. Doubling builds a new table under the lock and swaps it in;
// a reader still walking the old one can only miss, and a claim's miss is
// rechecked under the lock. Under a memory budget the fingerprint set
// seals into sorted runs on disk between levels (spill.go).

// levelFrontier is the level-synchronized engine's pending work — the
// discovered-but-unexpanded state ids — as a double-buffered queue. The
// engine Pushes ids from its driver goroutine only and drains one BFS level
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
// fingerprint set, sharded by the fingerprint's low bits. It keys on 64-bit
// fingerprints by default, in lock-free tables, and, keyed, on full
// encodings in a map under the shard lock (the fingerprint then only picks
// the shard) — always for the sequential oracle (Workers == 1 without a
// budget or checkpoint, which persist fingerprints), so it is never subject
// to fingerprint collisions, and for any run with Options.CollisionFree.
// The fields after shards are the fingerprint mode's spill state
// (spill.go), touched only on the level-sync driver goroutine.
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

// cacheLine is the padding unit of the shards, so that two workers
// claiming in neighbouring shards do not contend for one cache line.
const cacheLine = 64

// visitedShard is one shard of the visited set, padded to whole cache
// lines.
type visitedShard struct {
	shard
	_ [(cacheLine - unsafe.Sizeof(shard{})%cacheLine) % cacheLine]byte
}

// shard is one lock stripe of the visited set. In fingerprint mode tab and
// zero hold its ids — fingerprint 0, a legal FNV-1a output, cannot mark an
// empty slot and lives in its own cell; keyed, byKey does. Writers hold mu.
type shard struct {
	mu    sync.Mutex
	tab   atomic.Pointer[fpTable]
	zero  atomic.Int64   // 1 + the id of fingerprint 0; 0 while it is absent
	n     int            // fingerprints in tab
	byKey map[string]int // keyed mode only
}

// fpSlot is one slot of a fingerprint table. fp 0 marks it empty; an
// insert stores id first, then fp.
type fpSlot struct {
	fp atomic.Uint64
	id atomic.Int64
}

// fpTable is one generation of a shard's fingerprint table: a power of two
// of slots, probed linearly from the one the fingerprint's multiplicative
// mix picks. It is written only under the shard lock and, once its doubled
// successor is swapped in, never again.
type fpTable struct {
	slots []fpSlot
	shift uint // 64 - log2(len(slots)): the mix's top bits index the slots
}

const (
	// fpTableMin is a fresh table's slot count: 64 shards start at 16 KiB.
	fpTableMin = 16
	// fpMix spreads a fingerprint over the slot index. The shard already
	// consumed its low bits, so the index takes the product's top bits.
	fpMix = 0x9e3779b97f4a7c15
)

func newFPTable(slots int) *fpTable {
	return &fpTable{slots: make([]fpSlot, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

// slot returns fp's (non-zero) slot, or nil when fp is absent, without a
// lock.
func (t *fpTable) slot(fp uint64) *fpSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (fp * fpMix) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.fp.Load() {
		case fp:
			return s
		case 0:
			return nil
		}
	}
}

// put inserts (fp, id) unless fp (non-zero) is already present, and
// reports whether it did. The caller holds the shard lock and keeps the
// table below full.
func (t *fpTable) put(fp uint64, id int64) bool {
	mask := uint64(len(t.slots) - 1)
	for i := (fp * fpMix) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch s.fp.Load() {
		case fp:
			return false
		case 0:
			s.id.Store(id)
			s.fp.Store(fp)
			return true
		}
	}
}

// lookup finds fp in the fingerprint table without a lock.
func (sh *shard) lookup(fp uint64) (int, bool) {
	if fp == 0 {
		z := sh.zero.Load()
		return int(z - 1), z != 0
	}
	if s := sh.tab.Load().slot(fp); s != nil {
		return int(s.id.Load()), true
	}
	return 0, false
}

// insert records (fp, id) unless fp is already present, doubling the table
// at 3/4 load. Callers hold sh.mu or own the shard.
func (sh *shard) insert(fp uint64, id int) {
	if fp == 0 {
		sh.zero.CompareAndSwap(0, int64(id)+1)
		return
	}
	t := sh.tab.Load()
	if 4*(sh.n+1) > 3*len(t.slots) {
		grown := newFPTable(2 * len(t.slots))
		for i := range t.slots {
			if f := t.slots[i].fp.Load(); f != 0 {
				grown.put(f, t.slots[i].id.Load())
			}
		}
		sh.tab.Store(grown)
		t = grown
	}
	if t.put(fp, int64(id)) {
		sh.n++
	}
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

// clearResident empties every shard, with a fresh minimal table or map: at
// construction, and after a seal moved the resident fingerprints to disk.
// Merge goroutine only, with no probe or claim in flight.
func (vs *visitedSet) clearResident() {
	for i := range vs.shards {
		sh := &vs.shards[i]
		if vs.keyed {
			sh.byKey = make(map[string]int)
			continue
		}
		sh.tab.Store(newFPTable(fpTableMin))
		sh.zero.Store(0)
		sh.n = 0
	}
}

// probe looks enc (with fingerprint fp) up without inserting it. Safe for
// concurrent use; lock-free in fingerprint mode.
func (vs *visitedSet) probe(fp uint64, enc []byte) (id int, ok bool) {
	sh := &vs.shards[fp&(visitedShards-1)]
	if !vs.keyed {
		return sh.lookup(fp)
	}
	sh.mu.Lock()
	id, ok = sh.byKey[string(enc)] // no alloc: map lookup by converted []byte
	sh.mu.Unlock()
	return id, ok
}

// has reports whether probe finds enc (with fingerprint fp).
func (vs *visitedSet) has(fp uint64, enc []byte) bool {
	_, ok := vs.probe(fp, enc)
	return ok
}

// claim resolves enc (with fingerprint fp) to its dense state id, inserting
// on first sight — work-stealing's insert. A fingerprint already
// present is found without the shard lock; otherwise, under it, the lookup
// is repeated and alloc runs, exactly once per distinct encoding, to
// register the state and assign its id; a negative id from alloc refuses
// the insert (state limit, failure or stop) and leaves the encoding
// unclaimed. Safe for concurrent use. In keyed mode enc is copied to a
// string key only on insert.
func (vs *visitedSet) claim(fp uint64, enc []byte, alloc func() int) (id int, isNew bool) {
	sh := &vs.shards[fp&(visitedShards-1)]
	if !vs.keyed {
		if id, ok := sh.lookup(fp); ok {
			return id, false
		}
	}
	sh.mu.Lock()
	// Unlock by defer, not explicitly: alloc runs spec encoding code under
	// this lock (an arena under symmetry), and a recovered spec panic must
	// release the shard on unwind or the drain would deadlock on it.
	defer sh.mu.Unlock()
	if vs.keyed {
		if id, ok := sh.byKey[string(enc)]; ok {
			return id, false
		}
	} else if id, ok := sh.lookup(fp); ok {
		return id, false
	}
	if id = alloc(); id >= 0 {
		if vs.keyed {
			sh.byKey[string(enc)] = id
		} else {
			sh.insert(fp, id)
		}
	}
	return id, id >= 0
}

// own returns the id of enc (with fingerprint fp), or inserts id and
// reports isNew (keyed: with the map key it stored). The caller owns the
// shard: nothing else reads or writes it meanwhile.
func (vs *visitedSet) own(fp uint64, enc []byte, id int) (present int, key string, isNew bool) {
	sh := &vs.shards[fp&(visitedShards-1)]
	if vs.keyed {
		if present, ok := sh.byKey[string(enc)]; ok {
			return present, "", false
		}
		key = string(enc)
		sh.byKey[key] = id
		return id, key, true
	}
	if present, ok := sh.lookup(fp); ok {
		return present, "", false
	}
	sh.insert(fp, id)
	return id, "", true
}

// publish overwrites the id own inserted for fp (keyed: under key). Safe
// for concurrent use while nothing inserts.
func (vs *visitedSet) publish(fp uint64, key string, id int) {
	sh := &vs.shards[fp&(visitedShards-1)]
	switch {
	case vs.keyed:
		sh.mu.Lock()
		sh.byKey[key] = id
		sh.mu.Unlock()
	case fp == 0:
		sh.zero.Store(int64(id) + 1)
	default:
		sh.tab.Load().slot(fp).id.Store(int64(id))
	}
}

// resident counts the ids the shards hold. Callers exclude concurrent
// inserts (the level-sync driver goroutine, between levels).
func (vs *visitedSet) resident() int {
	n := 0
	for i := range vs.shards {
		sh := &vs.shards[i]
		n += sh.n + len(sh.byKey)
		if sh.zero.Load() != 0 {
			n++
		}
	}
	return n
}
