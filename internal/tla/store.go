package tla

import "errors"

// This file defines the visitedStore interface the level-synchronized engine
// deduplicates through, its collision-free implementation, and the engine's
// pending-work queue. There are two stores: the fingerprint store
// (spillVisited, spill.go) — resident sharded maps that, under a memory
// budget, seal into sorted runs on disk — and the collision-free keyed store
// below. The engine itself (engine.go) is store-agnostic: both run under the
// identical expansion/merge loop, which is how the sequential oracle, the
// parallel checker, and the bounded-memory checker stay byte-for-byte
// comparable.

// visitedEntry is a store's ticket for one canonical encoding. The engine
// assigns ID during the deterministic merge phase; a store may persist and
// later restore the assignment (the spilling store writes (fingerprint, ID)
// records to its sorted runs).
type visitedEntry struct {
	// ID is the state's dense id, or -1 while the encoding is only
	// claimed: a successor seen this level whose canonical position is
	// decided during the merge, or a fingerprint spilled to disk that has
	// not yet been matched by ResolveLevel.
	ID int
}

// visitedStore is the level-synchronized deduplication half of the
// exploration engine: it maps canonical state encodings to visitedEntry
// tickets. Two implementations: the fingerprint store (spillVisited, with
// optional spilling under a budget) and the collision-free keyed store
// (memVisited). The engine drives it in level-synchronized strokes:
//
//   - Claim is called concurrently by expansion workers (and by the merge
//     goroutine for initial states). The first claim of an encoding creates
//     the entry with ID -1; every later claim of the same encoding must
//     return the same entry. The encoding slice is only valid during the
//     call — stores must copy what they keep.
//   - ResolveLevel runs on the merge goroutine after all workers joined and
//     before the merge replays the level's candidates. Stores that defer
//     part of their lookup (the spilling store's merge-on-lookup against
//     its disk runs) restore previously assigned IDs here.
//   - EndLevel runs after the merge assigned IDs to the level's new states;
//     stores enforce memory budgets here (the spilling store seals
//     over-budget shards into a sorted run).
//   - Close releases any resources (temp files) when the run finishes.
//   - snapshotRuns and adoptRuns are the checkpoint/resume half:
//     snapshotRuns seals the store's dedup state into sorted run files
//     under dir (names returned relative to dir, store unmodified), and
//     adoptRuns restores a previous snapshot into a fresh store. Only the
//     fingerprint store can: checkpoints persist fingerprints, which is why
//     Options.Validate rejects checkpointing with CollisionFree.
type visitedStore interface {
	Claim(enc []byte) *visitedEntry
	ResolveLevel() error
	EndLevel() error
	Close() error
	snapshotRuns(fsys FS, dir, prefix string) ([]string, error)
	adoptRuns(fsys FS, srcDir string, names []string) error
}

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
// visited stores. A power of two so the shard index is a mask of the
// fingerprint.
const visitedShards = 64

// memVisited is the collision-free keyed store: the shard maps key on full
// canonical encodings instead of 64-bit fingerprints (the fingerprint only
// picks the shard) — always the case for the sequential oracle (Workers ==
// 1, no budget, no checkpoint), which must never be subject to fingerprint
// collisions, and for any run with Options.CollisionFree. Workers claim
// concurrently under per-shard mutexes while expanding a frontier; the merge
// phase (single goroutine, after all workers joined) assigns ids without
// locking.
type memVisited struct {
	shards [visitedShards]visitedShard[*visitedEntry]
}

func newMemVisited() *memVisited {
	vs := &memVisited{}
	for i := range vs.shards {
		vs.shards[i].init(true)
	}
	return vs
}

// Claim returns the entry for the canonical encoding enc, creating it (with
// ID -1) if it was never seen, copying enc to a string key only then. Safe
// for concurrent use; the first claimant creates the entry, later claimants
// of the same encoding get the same entry. Which goroutine creates an entry
// is racy, but immaterial: ids are assigned only during the sequential
// merge, in deterministic order.
func (vs *memVisited) Claim(enc []byte) *visitedEntry {
	sh := &vs.shards[fingerprint(enc)&(visitedShards-1)]
	sh.mu.Lock()
	e := sh.byKey[string(enc)] // no alloc: map lookup by converted []byte
	if e == nil {
		e = &visitedEntry{ID: -1}
		sh.byKey[string(enc)] = e
	}
	sh.mu.Unlock()
	return e
}

func (vs *memVisited) ResolveLevel() error { return nil }
func (vs *memVisited) EndLevel() error     { return nil }
func (vs *memVisited) Close() error        { return nil }

var errKeyedCheckpoint = errors.New("tla: the collision-free visited store cannot be checkpointed")

func (vs *memVisited) snapshotRuns(FS, string, string) ([]string, error) {
	return nil, errKeyedCheckpoint
}

func (vs *memVisited) adoptRuns(FS, string, []string) error { return errKeyedCheckpoint }

// newVisitedStore selects the visited store for a validated Options: the
// collision-free keyed store when exactness is demanded (explicitly, or
// implicitly by the sequential oracle path), and the fingerprint store
// otherwise — spilling when a memory budget is set. A budget or a
// checkpoint forces fingerprints even for the sequential oracle: both
// persist (fingerprint, id) records, which a keyed map cannot be rebuilt
// from.
func newVisitedStore(opts Options, workers int, em *engineMetrics) visitedStore {
	if opts.CollisionFree || (workers == 1 && opts.MemoryBudgetBytes == 0 && !opts.checkpointing()) {
		return newMemVisited()
	}
	return newSpillVisited(opts.MemoryBudgetBytes, opts.FS, em)
}
