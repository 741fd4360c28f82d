package tla

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file implements the retained-state arena: the answer to the memory
// cap the visited set no longer imposes. A fingerprint set bounds
// deduplication memory at 8 bytes per state (spilling to disk past the
// budget — spill.go), but the engine still used to retain every discovered
// state as a live S value so a counterexample could be reconstructed at a
// violation. For slice-heavy spec states that retention, not the visited
// set, is what caps explorable state spaces.
//
// A run under Options.MemoryBudgetBytes or with checkpoints replaces live
// retention with an append-only byte arena of plain encodings plus compact
// parent links: per state, the encoding bytes (already computed for
// deduplication) and a fixed ~24-byte record (parent id, action index,
// depth, encoding location). Live S values stay in the pages live mode
// keeps them in, but only for the states not yet expanded: once a level is
// merged, the pages wholly below its first id are cleared and reused.
// Under a budget, sealed arena segments are spilled to a temp file and
// read back on demand, so the visited set AND trace storage both respect
// it.
//
// Decoding is the only way stored bytes turn back into states: the arena
// requires a spec state implementing BinaryDecoder (Check rejects it
// otherwise), and a counterexample is reconstructed by walking the
// violating state's parent chain and decoding each stored encoding. The
// arena stores each state's plain encoding — not the orbit-canonical one
// the visited set dedups on — because the plain encoding identifies the
// exact state explored (encodings agree with Key() by contract), so the
// reconstructed trace is byte-identical to what live retention would have
// reported, even under symmetry reduction. Without symmetry the plain
// encoding is the canonical one the expander already computed, stored as
// is; with it, the engine pays one more AppendBinary per distinct state
// instead of an orbit scan.
//
// The arena's parent links are also the only retained-state table of a run
// without a budget or checkpoints (live mode): every run keeps one
// arenaMeta record per state, and live mode merely stores no encoding
// beside it, keeping the state's value in memory instead (see retainer).
// A recorded graph (Options.RecordGraph) appends its edges (parent id,
// action index, child id) to the arena's own segment list as fixed-width
// records in either mode, spilled to the same temp file under the same
// budget, and Result.Graph is a view of the retainer — see Graph.

// arenaSegBytes is the target size of one arena segment. Segments are
// sealed when full (or when a budget flush forces it) and become the unit
// of disk spilling.
const arenaSegBytes = 1 << 20

// arenaMeta is the fixed-size per-state record: the parent link and where
// the state's canonical encoding lives (n is 0, and seg and off unused, when
// no encoding is stored — always in live mode).
type arenaMeta struct {
	parent int32  // parent state id, -1 for initial states
	depth  int32  // discovery depth (BFS depth under level-sync)
	act    uint16 // interned action name index; 0 is the initial-state sentinel
	seg    uint32 // segment holding the encoding
	off    uint32 // offset of the encoding within the segment
	n      uint32 // encoding length
}

// arenaSeg is one sealed or in-progress run of encoding or edge bytes.
// Resident segments hold their bytes in buf; spilled segments record where
// in the arena's temp file the same bytes live.
type arenaSeg struct {
	buf     []byte
	fileOff int64
	size    int
	spilled bool
}

// stateArena is the append-only retained-state store. It is single-owner:
// the engine touches it from its driver goroutine — except that its
// merge's settle pass writes the records of a level's new states, each at
// its own id, from the workers.
type stateArena struct {
	budget   int64 // 0 = never spill
	fsys     FS
	em       *engineMetrics   // nil-safe observability sink
	meta     pages[arenaMeta] // by state id; grown without copying
	n        int              // the states recorded: meta[:n]
	segs     []arenaSeg       // encodings (arena mode only)
	edgeSegs []arenaSeg       // a recorded graph's fixed arenaEdgeBytes edge records
	resident int64            // encoding + edge bytes currently held in memory
	file     File
	fileSize int64
	degraded bool // a persistent spill-write failure switched to live retention of segments

	edgeCount int

	// segsOut and edgeSegsOut count the leading segments of segs and
	// edgeSegs known to be spilled. Spilled segments are always a prefix of
	// each list — flush spills everything resident, and a resume appends
	// only spilled segments — so flush starts there instead of at 0.
	segsOut, edgeSegsOut int
}

func newStateArena(budget int64, fsys FS, em *engineMetrics) *stateArena {
	return &stateArena{budget: budget, fsys: resolveFS(fsys), em: em}
}

// arenaEdgeBytes is the fixed size of one recorded edge: from uint32,
// action index uint16, to uint32, all little-endian.
const arenaEdgeBytes = 10

func (a *stateArena) len() int { return a.n }

// rec returns state id's record.
func (a *stateArena) rec(id int) *arenaMeta { return a.meta.at(id) }

// setLen makes the arena hold n records, reserving pages for them; the
// merge's settle pass fills a level's records in place, and the records
// past a cut are dropped with a shorter n.
func (a *stateArena) setLen(n int) {
	a.meta.reserve(n)
	a.n = n
}

// add appends one state's parent link and, when enc is non-empty, its
// canonical encoding. The caller's id for the record is the arena's current
// length before the call; enc is copied, so it may alias a codec's scratch
// buffer.
func (a *stateArena) add(enc []byte, parent int, act uint16, depth int) {
	a.setLen(a.n + 1)
	*a.rec(a.n - 1) = arenaMeta{parent: int32(parent), depth: int32(depth), act: act}
	a.store(a.n-1, enc)
}

// store appends the encoding of state id, whose record exists, and points
// the record at it; an empty enc stores nothing.
func (a *stateArena) store(id int, enc []byte) {
	if len(enc) > 0 {
		m := a.rec(id)
		m.seg, m.off = a.appendSeg(&a.segs, enc)
		m.n = uint32(len(enc))
	}
}

// addEdge appends one graph edge as a fixed-width record. Edge bytes count
// against the same resident budget as encodings and spill with them.
func (a *stateArena) addEdge(from int, act uint16, to int) {
	var rec [arenaEdgeBytes]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(from))
	binary.LittleEndian.PutUint16(rec[4:6], act)
	binary.LittleEndian.PutUint32(rec[6:10], uint32(to))
	a.edgeCount++
	a.appendSeg(&a.edgeSegs, rec[:])
}

// appendSeg appends rec to the tail of the segment list *segs — opening a
// fresh segment when there is none, the tail has spilled, or rec would
// overflow it — charges it to the resident bytes, and spills every
// resident segment once they exceed the budget. It returns the segment
// index and offset rec landed at.
func (a *stateArena) appendSeg(segs *[]arenaSeg, rec []byte) (seg, off uint32) {
	l := *segs
	if n := len(l); n == 0 || l[n-1].spilled || l[n-1].size+len(rec) > arenaSegBytes {
		l = append(l, arenaSeg{buf: make([]byte, 0, a.segCap(len(rec)))})
		*segs = l
	}
	tail := &l[len(l)-1]
	seg, off = uint32(len(l)-1), uint32(tail.size)
	tail.buf = append(tail.buf, rec...)
	tail.size += len(rec)
	a.resident += int64(len(rec))
	if a.budget > 0 && a.resident > a.budget {
		a.flush()
	}
	return seg, off
}

// segCap sizes a fresh segment opened by a need-byte record: arenaSegBytes,
// or twice a smaller budget — the segment spills as soon as the resident
// bytes pass the budget, so it only outgrows that by a record larger than
// the budget — and never less than the record itself.
func (a *stateArena) segCap(need int) int {
	c := arenaSegBytes
	if a.budget > 0 && 2*a.budget < int64(c) {
		c = int(2 * a.budget)
	}
	return max(c, need)
}

// forEachEdge streams every recorded edge, in append order, to fn. Resident
// segments are read in place; spilled segments are read back from the spill
// file one whole segment (≤ arenaSegBytes) at a time. fn returning an error
// stops the walk.
func (a *stateArena) forEachEdge(fn func(from int, act uint16, to int) error) error {
	var buf []byte
	for i := range a.edgeSegs {
		seg := &a.edgeSegs[i]
		b := seg.buf
		if seg.spilled {
			var err error
			if buf, err = a.readSeg(seg, 0, seg.size, buf[:0]); err != nil {
				return err
			}
			b = buf
		}
		for off := 0; off+arenaEdgeBytes <= len(b); off += arenaEdgeBytes {
			from := int(binary.LittleEndian.Uint32(b[off : off+4]))
			act := binary.LittleEndian.Uint16(b[off+4 : off+6])
			to := int(binary.LittleEndian.Uint32(b[off+6 : off+10]))
			if err := fn(from, act, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// readSeg appends the n bytes at offset off of seg to buf and returns the
// extended slice: copied from memory for a resident segment, read back
// from the spill file otherwise — always a copy, never an alias of arena
// bytes, so callers may reuse one buffer across reads. A spilled read is
// required reading — traces, graphs and checkpoints are built from it — so
// transient errors retry and persistent ones fail explicitly rather than
// risk a wrong answer.
func (a *stateArena) readSeg(seg *arenaSeg, off, n int, buf []byte) ([]byte, error) {
	if !seg.spilled {
		return append(buf, seg.buf[off:off+n]...), nil
	}
	lo := len(buf)
	buf = slices.Grow(buf, n)[:lo+n]
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff+int64(off))
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena segment: %w", err)
	}
	return buf, nil
}

// flush spills every resident segment — including the current one, which
// is sealed by the act of spilling — to the arena's temp file and drops
// the buffers. Encodings are append-only and never rewritten, so a
// segment's bytes are written exactly once; a failed write retries at the
// same file offset, so a torn attempt is simply overwritten.
//
// Spilling is memory relief, not correctness: on a persistent write
// failure (ENOSPC at the seal) the arena degrades to retaining segments in
// memory — over budget, reported via Result.DegradedMemory — instead of
// failing the run, so appending to the arena never fails. Spilled reads
// stay valid: fileSize only advances past fully written segments.
func (a *stateArena) flush() {
	if a.degraded {
		return
	}
	if a.file == nil {
		err := a.em.retry("arena", func() error {
			f, err := a.fsys.CreateTemp("", "tla-arena-")
			if err != nil {
				return err
			}
			a.file = f
			return nil
		})
		if err != nil {
			a.degraded = true
			a.em.onDegrade("arena")
			return
		}
	}
	if a.spill(a.segs, &a.segsOut) {
		a.spill(a.edgeSegs, &a.edgeSegsOut)
	}
}

// spill writes the resident segments of list, from index *out on, to the
// spill file and advances *out past them, so every segment is looked at
// once over a run however often flush is called. It reports false when a
// persistent write failure degraded the arena.
func (a *stateArena) spill(list []arenaSeg, out *int) bool {
	for ; *out < len(list); *out++ {
		seg := &list[*out]
		if seg.spilled {
			continue
		}
		err := a.em.retry("arena", func() error {
			_, werr := a.file.WriteAt(seg.buf[:seg.size], a.fileSize)
			return werr
		})
		if err != nil {
			a.degraded = true
			a.em.onDegrade("arena")
			return false
		}
		seg.fileOff = a.fileSize
		a.fileSize += int64(seg.size)
		seg.buf = nil
		seg.spilled = true
		a.resident -= int64(seg.size)
		a.em.onArenaSpill(int64(seg.size))
	}
	return true
}

// residentBytes reports the encoding and edge bytes currently held in
// memory — the arena's half of Progress.ResidentBytes. Owner goroutine
// only, like add/flush.
func (a *stateArena) residentBytes() int64 { return a.resident }

// encoding appends state id's canonical encoding to buf and returns the
// extended slice (a copy; see readSeg).
func (a *stateArena) encoding(id int, buf []byte) ([]byte, error) {
	m := *a.rec(id)
	if m.n == 0 {
		return buf, nil
	}
	return a.readSeg(&a.segs[m.seg], int(m.off), int(m.n), buf)
}

// close releases the spill file, if any.
func (a *stateArena) close() error {
	if a.file == nil {
		return nil
	}
	f := a.file
	a.file = nil
	name := f.Name()
	f.Close()
	return a.fsys.Remove(name)
}

// retainer owns discovered-state retention for one checking run: the
// arena's link table (parent, depth, action) for every state, and each
// state's value in fixed-size pages. Live mode (the default) keeps every
// page and stores no encoding. Arena mode (a memory budget or checkpoints;
// see Options.arena) stores each state's plain encoding in the arena and
// drops the pages of expanded states (dropBelow), so it reads a live value
// only to expand a state (stateOf) and decodes for every other read
// (stateAt).
type retainer[S State] struct {
	arena  *stateArena
	acts   []string // interned action names; acts[0] is the initial-state ""
	actIDs []uint16 // per Spec.Actions index: the interned index into acts

	// graphOwned marks that Result.Graph is a view of this retainer: the
	// graph, not the retainer, then owns the arena's spill file, and
	// Graph.Close releases it instead of retainer.close.
	graphOwned bool

	decode bool     // arena mode: values are decoded from stored encodings
	live   pages[S] // values by id; arena mode drops expanded pages (nil)
	spare  [][]S    // arena mode: dropped pages, cleared, for reserve to reuse
}

// pages is a growable array kept in fixed-size pages of pageSize values:
// growing allocates a page and copies no earlier value, and distinct
// indexes below the reserved length may be written concurrently (the
// level-synchronized merge writes each new state into its page from any
// worker).
type pages[T any] [][]T

const (
	pageBits = 10
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// reserve allocates pages for every index below n.
func (p *pages[T]) reserve(n int) {
	for len(*p)<<pageBits < n {
		*p = append(*p, make([]T, pageSize))
	}
}

// at returns the slot of index i, which must be reserved.
func (p pages[T]) at(i int) *T { return &p[i>>pageBits][i&pageMask] }

// clear zeroes the values below n.
func (p pages[T]) clear(n int) {
	for i := 0; i < n; i += pageSize {
		clear(p[i>>pageBits][:min(pageSize, n-i)])
	}
}

func newRetainer[S State](spec *Spec[S], opts Options, em *engineMetrics) *retainer[S] {
	r := &retainer[S]{
		arena:  newStateArena(opts.MemoryBudgetBytes, opts.FS, em),
		acts:   []string{""},
		actIDs: make([]uint16, len(spec.Actions)),
		decode: opts.arena(),
	}
	interned := map[string]uint16{"": 0} // duplicate names share an index
	for i, a := range spec.Actions {
		id, ok := interned[a.Name]
		if !ok {
			id = uint16(len(r.acts))
			interned[a.Name] = id
			r.acts = append(r.acts, a.Name)
		}
		r.actIDs[i] = id
	}
	return r
}

func (r *retainer[S]) len() int { return r.arena.len() }

// add records one newly discovered state under the next id: its value,
// its link and, in arena mode, enc — which must then be the state's plain
// encoding (codec.encode, not an orbit-canonical form that differs from
// it) and is copied.
func (r *retainer[S]) add(s S, enc []byte, parent int, act uint16, depth int) {
	id := r.len()
	r.reserve(id + 1)
	*r.live.at(id) = s
	if !r.decode {
		enc = nil
	}
	r.arena.add(enc, parent, act, depth)
}

// reserve makes room for the values of the ids below n, reusing dropped
// pages before allocating.
func (r *retainer[S]) reserve(n int) {
	for len(r.live)<<pageBits < n {
		if k := len(r.spare); k > 0 {
			r.live, r.spare = append(r.live, r.spare[k-1]), r.spare[:k-1]
		} else {
			r.live = append(r.live, make([]S, pageSize))
		}
	}
}

// dropBelow clears the pages wholly below id and keeps them for reserve:
// arena mode, once every state below id is expanded (live mode keeps every
// value by design).
func (r *retainer[S]) dropBelow(id int) {
	if !r.decode {
		return
	}
	for i, pg := range r.live[:id>>pageBits] {
		if pg != nil {
			clear(pg)
			r.spare, r.live[i] = append(r.spare, pg), nil
		}
	}
}

// stateOf returns the live value of a state not yet expanded.
func (r *retainer[S]) stateOf(id int) S { return *r.live.at(id) }

func (r *retainer[S]) depthOf(id int) int { return int(r.arena.rec(id).depth) }

// stateAt returns the value of state id: the retained value in live mode,
// a decode of its stored encoding in arena mode. Counterexamples and the
// graph's StateAt are served from it; the decode is exact (see the file
// comment). cod must be a codec no expansion worker is using — the merge
// goroutine's, or any codec after the workers joined.
func (r *retainer[S]) stateAt(cod *codec[S], id int) (S, error) {
	if !r.decode {
		return *r.live.at(id), nil
	}
	var zero S
	enc, err := r.arena.encoding(id, nil)
	if err != nil {
		return zero, err
	}
	s, err := cod.dec(enc)
	if err != nil {
		return zero, fmt.Errorf("tla: arena decode: state %d: %w", id, err)
	}
	return s, nil
}

// trace reconstructs the initial-state-to-id trace and its action labels by
// walking the parent links and reading each state on the chain.
func (r *retainer[S]) trace(cod *codec[S], id int) ([]S, []string, error) {
	var rev []int
	for i := id; i >= 0; i = int(r.arena.rec(i).parent) {
		rev = append(rev, i)
	}
	trace := make([]S, 0, len(rev))
	acts := make([]string, 0, len(rev)-1)
	for i := len(rev) - 1; i >= 0; i-- {
		sid := rev[i]
		s, err := r.stateAt(cod, sid)
		if err != nil {
			return nil, nil, err
		}
		if i < len(rev)-1 {
			acts = append(acts, r.acts[r.arena.rec(sid).act])
		}
		trace = append(trace, s)
	}
	return trace, acts, nil
}

// degradedMemory reports whether the arena had to fall back to in-memory
// retention after a persistent spill failure.
func (r *retainer[S]) degradedMemory() bool { return r.arena.degraded }

// close releases the arena's spill file, if any — unless the arena now
// backs Result.Graph, whose Close owns that release.
func (r *retainer[S]) close() error {
	if r.graphOwned {
		return nil
	}
	return r.arena.close()
}
