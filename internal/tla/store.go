package tla

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// This file defines the engine's one visited set and its pending-work
// queue. The engine (engine.go) probes the set during its parallel
// expansion — probe is a read-only, lock-free lookup and nothing inserts
// then, so a miss means "no id before this level" — and inserts in its
// merge, in merge order: a claim pass gives each shard one owner, which
// inserts a placeholder for each first occurrence (own), and the settle
// pass publishes the ids over them. That is how the sequential oracle, the
// parallel checker and the bounded-memory checker stay byte-for-byte
// comparable.
//
// Each shard is TLC's FPSet in miniature: an open-addressed table of
// 16-byte {fingerprint, id} slots whose words are atomics. Between the
// expansions that probe it, one goroutine at a time writes a shard — its
// claim-pass owner, or the driver — storing the fingerprint before the
// id, so a reader that sees the id sees its fingerprint. Under a memory
// budget the fingerprints seal into one sorted run on disk between levels
// (spill.go).
//
// Keyed, the same table is exact: each shard also keeps every state's
// canonical encoding once, in append-only blocks, stored before the slot's
// id, and a fingerprint hit counts only if those bytes equal the probed
// encoding. A colliding state walks on to the next slot and gets its own.

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

func (f *levelFrontier) Push(id int) { f.next = push(f.next, id) }

func (f *levelFrontier) NextLevel() []int {
	f.cur, f.next = f.next, f.cur[:0]
	return f.cur
}

// visitedShards is the number of shards of the visited set, each with
// one owner in the merge's claim pass. A power of two so the shard index
// is a mask of the fingerprint.
const visitedShards = 64

// visitedSet maps canonical state encodings to dense state ids: TLC's
// fingerprint set, sharded by the fingerprint's low bits. Keyed, it also
// compares the encodings behind a fingerprint hit, so it is never subject
// to fingerprint collisions — always for the sequential oracle (Workers ==
// 1 without a budget or checkpoint, which persist fingerprints alone), and
// for any run with Options.CollisionFree. The fields after shards are the
// spill state (spill.go), touched only on the level-sync driver goroutine.
type visitedSet struct {
	keyed  bool
	shards [visitedShards]visitedShard

	budget   int64 // 0 = never seal
	fsys     FS
	em       *engineMetrics // nil-safe observability sink
	dir      string         // temp dir holding the run; created on the first seal
	run      string         // path of the one sealed run file; "" before the first seal
	seq      int            // run file name sequence
	sealed   int64          // bytes of the sealed run file
	degraded bool           // a persistent spill-write failure switched the set to hold-resident
	recBuf   []spillRec     // EndLevel's scratch, reused across levels
}

// cacheLine is the padding unit of the shards, so that two claim-pass
// owners of neighbouring shards do not contend for one cache line.
const cacheLine = 64

// visitedShard is one shard of the visited set, padded to whole cache
// lines.
type visitedShard struct {
	shard
	_ [(cacheLine - unsafe.Sizeof(shard{})%cacheLine) % cacheLine]byte
}

// shard is one stripe of the visited set, written by one goroutine at a
// time.
type shard struct {
	tab   atomic.Pointer[fpTable]
	n     int    // states in tab
	block []byte // keyed: the encodings' current storage block
}

// fpSlot is one slot of a fingerprint table. id holds 1 + the state id, so
// 0 marks the slot empty and any fingerprint, 0 included, can be stored;
// an insert stores fp first, then id.
type fpSlot struct {
	fp atomic.Uint64
	id atomic.Int64
}

// fpTable is one generation of a shard's fingerprint table: a power of two
// of slots, probed linearly from the one the fingerprint's multiplicative
// mix picks. Once its doubled successor is swapped in, it is never
// written again.
type fpTable struct {
	slots []fpSlot
	keys  []string // keyed only: slots[i]'s encoding, stored before its id
	shift uint     // 64 - log2(len(slots)): the mix's top bits index the slots
}

const (
	// fpTableMin is a fresh table's slot count: 64 shards start at 16 KiB.
	fpTableMin = 16
	// fpMix spreads a fingerprint over the slot index. The shard already
	// consumed its low bits, so the index takes the product's top bits.
	fpMix = 0x9e3779b97f4a7c15
	// keyBlockMin and keyBlockMax bound a keyed shard's storage blocks,
	// which double from the one to the other, so a small run stays small.
	keyBlockMin, keyBlockMax = 256, 64 << 10
)

func newFPTable(slots int, keyed bool) *fpTable {
	t := &fpTable{slots: make([]fpSlot, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	if keyed {
		t.keys = make([]string, slots)
	}
	return t
}

// slot returns the slot of fp — keyed, of fp and enc — and its id word, or
// nil when it is absent, without a lock.
func (t *fpTable) slot(fp uint64, enc []byte) (*fpSlot, int64) {
	mask, keys := uint64(len(t.slots)-1), t.keys
	for i := (fp * fpMix) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		v := s.id.Load()
		if v == 0 {
			return nil, 0
		}
		if s.fp.Load() == fp && (keys == nil || keys[i] == string(enc)) {
			return s, v
		}
	}
}

// put stores fp with the slot word id (1 + the state id) and, keyed, key
// in the first empty slot of fp's probe sequence. The caller writes the
// shard, knows the state is absent, and keeps the table below full.
func (t *fpTable) put(fp uint64, key string, id int64) {
	mask := uint64(len(t.slots) - 1)
	i := (fp * fpMix) >> t.shift
	for t.slots[i].id.Load() != 0 {
		i = (i + 1) & mask
	}
	if t.keys != nil {
		t.keys[i] = key
	}
	t.slots[i].fp.Store(fp)
	t.slots[i].id.Store(id)
}

// lookup finds fp — keyed, fp and enc — without a lock.
func (sh *shard) lookup(fp uint64, enc []byte) (int, bool) {
	s, v := sh.tab.Load().slot(fp, enc)
	return int(v - 1), s != nil
}

// insert records fp — keyed, fp and a copy of enc — as id, which lookup
// just missed, doubling the table at 3/4 load. Callers own the shard.
func (sh *shard) insert(fp uint64, enc []byte, id int) {
	t := sh.tab.Load()
	if 4*(sh.n+1) > 3*len(t.slots) {
		grown := newFPTable(2*len(t.slots), t.keys != nil)
		for i := range t.slots {
			if v := t.slots[i].id.Load(); v != 0 {
				var key string
				if t.keys != nil {
					key = t.keys[i]
				}
				grown.put(t.slots[i].fp.Load(), key, v)
			}
		}
		sh.tab.Store(grown)
		t = grown
	}
	var key string
	if t.keys != nil {
		key = sh.keep(enc)
	}
	t.put(fp, key, int64(id)+1)
	sh.n++
}

// keep copies enc into the shard's append-only storage and returns the
// copy. A block is only ever appended to, so the bytes of a stored key
// never change — a lock-free reader compares against them — and the keys
// of a level share a handful of allocations instead of one each.
func (sh *shard) keep(enc []byte) string {
	if len(enc) == 0 {
		return ""
	}
	if len(sh.block)+len(enc) > cap(sh.block) {
		sh.block = make([]byte, 0, max(keyBlockMin, min(2*cap(sh.block), keyBlockMax), len(enc)))
	}
	n := len(sh.block)
	sh.block = append(sh.block, enc...)
	return unsafe.String(&sh.block[n], len(enc))
}

// newVisitedSet builds the visited set for a validated Options. A budget or
// a checkpoint forces fingerprints even for the sequential oracle: both
// persist (fingerprint, id) records, from which the encodings cannot be
// rebuilt (Validate rejects either alongside CollisionFree).
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

// clearResident empties every shard, with a fresh minimal table: at
// construction, and after a seal moved the resident fingerprints to disk.
// Driver goroutine only, with no probe in flight.
func (vs *visitedSet) clearResident() {
	for i := range vs.shards {
		sh := &vs.shards[i]
		sh.tab.Store(newFPTable(fpTableMin, vs.keyed))
		sh.n = 0
	}
}

// shard returns the shard of fingerprint fp.
func (vs *visitedSet) shard(fp uint64) *shard { return &vs.shards[fp&(visitedShards-1)].shard }

// probe looks enc (with fingerprint fp) up without inserting it. Safe for
// concurrent use, and lock-free.
func (vs *visitedSet) probe(fp uint64, enc []byte) (id int, ok bool) {
	return vs.shard(fp).lookup(fp, enc)
}

// has reports whether probe finds enc (with fingerprint fp).
func (vs *visitedSet) has(fp uint64, enc []byte) bool {
	_, ok := vs.probe(fp, enc)
	return ok
}

// own returns the id of enc (with fingerprint fp), or inserts id and
// reports isNew. The caller owns the shard: nothing else reads or writes it
// meanwhile.
func (vs *visitedSet) own(fp uint64, enc []byte, id int) (present int, isNew bool) {
	sh := vs.shard(fp)
	if present, ok := sh.lookup(fp, enc); ok {
		return present, false
	}
	sh.insert(fp, enc, id)
	return id, true
}

// publish overwrites the id own inserted for enc (with fingerprint fp).
// Safe for concurrent use while nothing inserts.
func (vs *visitedSet) publish(fp uint64, enc []byte, id int) {
	s, _ := vs.shard(fp).tab.Load().slot(fp, enc)
	s.id.Store(int64(id) + 1)
}

// resident counts the ids the shards hold. Callers exclude concurrent
// inserts (the level-sync driver goroutine, between levels).
func (vs *visitedSet) resident() int {
	n := 0
	for i := range vs.shards {
		n += vs.shards[i].n
	}
	return n
}
