package tla

import (
	"math/bits"
	"slices"
	"unsafe"
)

// This file defines the engine's one visited set. The engine (engine.go)
// probes it during its parallel expansion — a read-only lookup, and
// nothing writes then, so a miss means "no id before this level" — and
// writes it in its merge, in merge order: a claim pass gives each
// shard one owner, which inserts a placeholder for each first occurrence
// (own), and after the settle pass numbers the winners, a publish pass
// with the same owners writes their ids over the placeholders. That is how
// every worker count and the bounded-memory checker stay byte-for-byte
// comparable.
//
// Each shard is TLC's FPSet in miniature: an open-addressed table whose
// slot is an 8-byte fingerprint word and a 4-byte id word, in two parallel
// arrays. A zero fingerprint word marks an empty slot; stateFP remaps the
// one fingerprint value 0 so that every state has a storable one. A probe
// walks the fingerprint words alone, eight to a cache line, and reads a
// hit's id word only when its caller needs the id. The words are plain:
// they are written only by the shard's owner in a claim or publish pass,
// or by the driver goroutine between levels, and read concurrently only in
// the expansion and the route pass, when nothing writes. Under a memory
// budget the (fingerprint, id) records seal into one sorted run on disk
// between levels (spill.go), keyed or not.
//
// Keyed (Options.CollisionFree), the same table is exact: each shard also
// keeps every state's canonical encoding once, in append-only blocks, and
// a fingerprint hit counts only if those bytes equal the probed encoding.
// A colliding state walks on to the next slot and gets its own.
//
// The expansion probes a state's successors as one batch (probeBatch):
// it gathers every successor's home fingerprint word first, independent
// loads whose cache misses the processor overlaps, then resolves each
// successor from its copy, walking on down the table only when the home
// slot holds another state. It reads the ids of hits only for a run that
// records a graph. The scalar probe serves registerInits and the route
// pass.

// visitedShards is the number of shards of the visited set, each with
// one owner in the merge's claim pass. A power of two so the shard index
// is a mask of the fingerprint.
const visitedShards = 64

// visitedSet maps canonical state encodings to dense state ids: TLC's
// fingerprint set, sharded by the fingerprint's low bits. Keyed
// (Options.CollisionFree), it also compares the encodings behind a
// fingerprint hit, so it is never subject to fingerprint collisions. The
// fields after shards are the spill state (spill.go), touched only on the
// driver goroutine.
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
	recBuf   []spillRec     // EndLevel's and ResolveLevel's scratch, reused across levels
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
// time. Its table is a value, so a table generation costs the allocations
// of its arrays alone.
type shard struct {
	tab      fpTable
	n        int    // states in tab
	block    []byte // keyed: the encodings' current storage block
	keyBytes int    // keyed: the bytes of the keys in tab
}

// fpTable is one generation of a shard's fingerprint table: a power of two
// of slots, probed linearly from the one the fingerprint's multiplicative
// mix picks. Slot i is the fingerprint word fps[i], 0 when the slot is
// empty, and the id word ids[i]: the state's id, or a claim's placeholder
// until its publish.
type fpTable struct {
	fps   []uint64
	ids   []int32
	keys  []string // keyed only: slot i's encoding
	shift uint     // 64 - log2(len(fps)): the mix's top bits index the slots
}

const (
	// fpTableMin is a fresh table's slot count: 64 shards start at 12 KiB.
	fpTableMin = 16
	// fpMix spreads a fingerprint over the slot index. The shard already
	// consumed its low bits, so the index takes the product's top bits.
	fpMix = 0x9e3779b97f4a7c15
	// keyBlockMin and keyBlockMax bound a keyed shard's storage blocks,
	// which double from the one to the other, so a small run stays small.
	keyBlockMin, keyBlockMax = 256, 64 << 10
)

// stateFP is the fingerprint the visited set stores for the canonical
// encoding enc: fingerprint's, except that 0, which marks an empty slot,
// becomes 1. Every fingerprint the engine computes for a state comes from
// here.
func stateFP(enc []byte) uint64 { return max(fingerprint(enc), 1) }

func newFPTable(slots int, keyed bool) fpTable {
	t := fpTable{fps: make([]uint64, slots), ids: make([]int32, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	if keyed {
		t.keys = make([]string, slots)
	}
	return t
}

// home is the index of fp's first slot, where its linear probe begins.
func (t *fpTable) home(fp uint64) uint64 { return (fp * fpMix) >> t.shift }

// find returns the slot of fp — keyed, of fp and enc — or -1 when it is
// absent.
func (t *fpTable) find(fp uint64, enc []byte) int { return t.scan(t.home(fp), fp, enc) }

// scan is find's linear probe from slot i on. It reads fingerprint words,
// and keyed the keys of matching ones, but no id word.
func (t *fpTable) scan(i, fp uint64, enc []byte) int {
	mask, fps, keys := uint64(len(t.fps)-1), t.fps, t.keys
	for ; ; i = (i + 1) & mask {
		switch f := fps[i]; {
		case f == 0:
			return -1
		case f == fp && (keys == nil || keys[i] == string(enc)):
			return int(i)
		}
	}
}

// put stores fp with id and, keyed, key in the first empty slot of fp's
// probe sequence. The caller writes the shard, knows the state is absent,
// and keeps the table below full.
func (t *fpTable) put(fp uint64, key string, id int32) {
	mask := uint64(len(t.fps) - 1)
	i := t.home(fp)
	for t.fps[i] != 0 {
		i = (i + 1) & mask
	}
	t.fps[i], t.ids[i] = fp, id
	if t.keys != nil {
		t.keys[i] = key
	}
}

// lookup finds fp — keyed, fp and enc.
func (sh *shard) lookup(fp uint64, enc []byte) (int, bool) {
	if i := sh.tab.find(fp, enc); i >= 0 {
		return int(sh.tab.ids[i]), true
	}
	return 0, false
}

// insert records fp — keyed, fp and a copy of enc — as id, which lookup
// just missed, doubling the table at 3/4 load. Callers own the shard.
func (sh *shard) insert(fp uint64, enc []byte, id int) {
	if 4*(sh.n+1) > 3*len(sh.tab.fps) {
		sh.grow()
	}
	var key string
	if sh.tab.keys != nil {
		key = sh.keep(enc)
	}
	sh.tab.put(fp, key, int32(id))
	sh.n++
}

// grow replaces the shard's table by one of twice the slots holding the
// same records: two allocations, three keyed.
func (sh *shard) grow() {
	old := sh.tab
	sh.tab = newFPTable(2*len(old.fps), old.keys != nil)
	for i, fp := range old.fps {
		if fp != 0 {
			var key string
			if old.keys != nil {
				key = old.keys[i]
			}
			sh.tab.put(fp, key, old.ids[i])
		}
	}
}

// keep copies enc into the shard's append-only storage and returns the
// copy. A block is only ever appended to, so the bytes of a stored key
// never change, and the keys of a level share a handful of allocations
// instead of one each.
func (sh *shard) keep(enc []byte) string {
	if len(enc) == 0 {
		return ""
	}
	if len(sh.block)+len(enc) > cap(sh.block) {
		sh.block = make([]byte, 0, max(keyBlockMin, min(2*cap(sh.block), keyBlockMax), len(enc)))
	}
	n := len(sh.block)
	sh.block = append(sh.block, enc...)
	sh.keyBytes += len(enc)
	return unsafe.String(&sh.block[n], len(enc))
}

// newVisitedSet builds the visited set for a validated Options: keyed
// exactly when CollisionFree asks for it, at any worker count, and sealing
// past MemoryBudgetBytes in either mode.
func newVisitedSet(opts Options, em *engineMetrics) *visitedSet {
	vs := &visitedSet{
		keyed:  opts.CollisionFree,
		budget: opts.MemoryBudgetBytes,
		fsys:   resolveFS(opts.FS),
		em:     em,
	}
	vs.clearResident()
	return vs
}

// clearResident empties every shard, with a fresh minimal table and no
// keys: at construction, and after a seal moved the resident records to
// disk. Driver goroutine only, with no probe in flight.
func (vs *visitedSet) clearResident() {
	for i := range vs.shards {
		vs.shards[i].shard = shard{tab: newFPTable(fpTableMin, vs.keyed)}
	}
}

// shard returns the shard of fingerprint fp.
func (vs *visitedSet) shard(fp uint64) *shard { return &vs.shards[fp&(visitedShards-1)].shard }

// probe looks enc (with fingerprint fp, from stateFP) up without inserting
// it. Safe for concurrent use while nothing writes the set.
func (vs *visitedSet) probe(fp uint64, enc []byte) (id int, ok bool) {
	return vs.shard(fp).lookup(fp, enc)
}

// probeBatch answers has for every successor of one state at once, and
// probe when withIDs is set: ids[t] is -1 when the successor with
// fingerprint fps[t] and encoding encs[ends[t-1]:ends[t]] (from 0 for
// t = 0) is absent, and on a hit its id, or 0 unless withIDs: only a run
// that records a graph reads a hit's id word. A gather pass first copies
// each fingerprint's home fingerprint word into homes, and with withIDs
// the home id word into ids, which only brings its cache line in: those
// loads are independent, so the processor overlaps their cache misses,
// where probing one successor after another waits out each miss in turn.
// A resolve pass then decides each successor from its copy: an empty home
// slot is a miss, a matching one (keyed, with equal bytes) a hit, and any
// other walks on from the next slot as find does. Nothing writes the set
// meanwhile, so the copies are current and the answers are probe's. It
// returns ids and homes, grown to len(fps) and reused by the caller. Safe
// for concurrent use while nothing writes the set.
func (vs *visitedSet) probeBatch(fps []uint64, encs []byte, ends []int32, withIDs bool, ids []int, homes []uint64) ([]int, []uint64) {
	homes = slices.Grow(homes[:0], len(fps))[:len(fps)]
	ids = slices.Grow(ids[:0], len(fps))[:len(fps)]
	for t, fp := range fps {
		tab := &vs.shard(fp).tab
		i := tab.home(fp)
		homes[t] = tab.fps[i]
		if withIDs {
			ids[t] = int(tab.ids[i])
		}
	}
	lo := int32(0)
	for t, fp := range fps {
		enc := encs[lo:ends[t]]
		lo = ends[t]
		if homes[t] == 0 {
			ids[t] = -1
			continue
		}
		tab := &vs.shard(fp).tab
		i := tab.home(fp)
		s := int(i)
		if homes[t] != fp || (tab.keys != nil && tab.keys[i] != string(enc)) {
			s = tab.scan((i+1)&uint64(len(tab.fps)-1), fp, enc)
		}
		switch {
		case s < 0:
			ids[t] = -1
		case withIDs:
			ids[t] = int(tab.ids[s])
		default:
			ids[t] = 0
		}
	}
	return ids, homes
}

// has reports whether probe finds enc (with fingerprint fp), reading no id
// word.
func (vs *visitedSet) has(fp uint64, enc []byte) bool {
	return vs.shard(fp).tab.find(fp, enc) >= 0
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
// The caller owns the shard, as for own.
func (vs *visitedSet) publish(fp uint64, enc []byte, id int) {
	tab := &vs.shard(fp).tab
	tab.ids[tab.find(fp, enc)] = int32(id)
}
