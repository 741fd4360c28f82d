package tla

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// This file implements the retained-state arena: the answer to the memory
// cap the visited set no longer imposes. A fingerprint set bounds
// deduplication memory at 8 bytes per state (spilling to disk past the
// budget — spill.go), but the engine still used to retain every discovered
// state as a live S value so a counterexample could be reconstructed at a
// violation. For slice-heavy spec states that retention, not the visited
// set, is what caps explorable state spaces.
//
// Options.StateArena replaces live retention with an append-only byte
// arena of canonical encodings plus compact parent links: per state, the
// encoding bytes (already computed for deduplication) and a fixed
// ~24-byte record (parent id, action index, depth, encoding location).
// Live S values are kept only for the unexpanded window — the states a
// frontier will still expand — and dropped as soon as they are expanded.
// Under Options.MemoryBudgetBytes, sealed arena segments are spilled to a
// temp file and read back on demand, so the visited set AND trace storage
// both respect the budget.
//
// Counterexample reconstruction prefers a decode over a replay: when the
// spec state implements BinaryDecoder, the arena walks the violating
// state's parent chain and decodes each stored encoding directly. Specs
// without a decoder fall back to the replay — re-execute the recorded
// action at each step and select the successor whose encoding matches the
// stored bytes. Either way the arena stores each state's plain encoding —
// not the orbit-canonical one the visited store dedups on — because the
// plain encoding identifies the exact state explored (encodings agree
// with Key() by contract), so the reconstructed trace is byte-identical
// to what live retention would have reported, even under symmetry
// reduction, and storing it costs one AppendBinary per distinct state
// instead of an orbit scan.
//
// With a decoder available the arena also doubles as the state graph's
// backing store (Options.RecordGraph + Options.StateArena): graph edges
// (parent id, action index, child id) are appended to their own segment
// list as fixed-width records, spilled to the same temp file under the
// same budget, and Result.Graph serves states and edges lazily from the
// arena instead of retaining live values — see Graph.

// arenaSegBytes is the target size of one arena segment. Segments are
// sealed when full (or when a budget flush forces it) and become the unit
// of disk spilling.
const arenaSegBytes = 1 << 20

// arenaMeta is the fixed-size per-state record: the parent link and where
// the state's canonical encoding lives.
type arenaMeta struct {
	parent int32  // parent state id, -1 for initial states
	depth  int32  // discovery depth (BFS depth under level-sync)
	act    uint16 // interned action name index; 0 is the initial-state sentinel
	seg    uint32 // segment holding the encoding
	off    uint32 // offset of the encoding within the segment
	n      uint32 // encoding length
}

// arenaSeg is one sealed or in-progress run of encoding bytes. Resident
// segments hold their bytes in buf; spilled segments record where in the
// arena's temp file the same bytes live.
type arenaSeg struct {
	buf     []byte
	fileOff int64
	size    int
	spilled bool
}

// stateArena is the append-only encoded-state store. It is single-owner:
// the level-synchronized engine touches it from the merge goroutine only,
// and the work-stealing engine serializes access under its registration
// lock.
type stateArena struct {
	budget   int64 // 0 = never spill
	fsys     FS
	em       *engineMetrics // nil-safe observability sink
	meta     []arenaMeta
	segs     []arenaSeg
	resident int64 // encoding + edge bytes currently held in memory
	file     File
	fileSize int64
	degraded bool // a persistent spill-write failure switched to live retention of segments

	// spilledAtomic mirrors fileSize for lock-free readers: the arena is
	// single-owner, but the work-stealing progress ticker samples spill
	// volume from outside the registration lock.
	spilledAtomic atomic.Int64

	// Edge recording (Options.RecordGraph + Options.StateArena): graph
	// edges live in their own segment list of fixed arenaEdgeBytes records,
	// sharing the resident budget and the spill file with the encodings.
	recordEdges bool
	edgeSegs    []arenaSeg
	edgeCount   int
	lastFrom    int  // highest From appended so far; -1 before the first edge
	edgesMono   bool // From values arrived in nondecreasing order (level-sync)
}

func newStateArena(budget int64, fsys FS, em *engineMetrics) *stateArena {
	return &stateArena{budget: budget, fsys: resolveFS(fsys), em: em, lastFrom: -1, edgesMono: true}
}

// arenaEdgeBytes is the fixed size of one recorded edge: from uint32,
// action index uint16, to uint32, all little-endian.
const arenaEdgeBytes = 10

func (a *stateArena) len() int { return len(a.meta) }

// add appends one state's canonical encoding and parent link. The caller's
// id for the record is the arena's current length before the call; enc is
// copied, so it may alias a codec's scratch buffer.
func (a *stateArena) add(enc []byte, parent int, act uint16, depth int) error {
	if len(a.segs) == 0 || a.segs[len(a.segs)-1].spilled ||
		a.segs[len(a.segs)-1].size+len(enc) > arenaSegBytes {
		a.segs = append(a.segs, arenaSeg{buf: make([]byte, 0, segCap(len(enc)))})
	}
	seg := &a.segs[len(a.segs)-1]
	off := seg.size
	seg.buf = append(seg.buf, enc...)
	seg.size += len(enc)
	a.resident += int64(len(enc))
	a.meta = append(a.meta, arenaMeta{
		parent: int32(parent),
		depth:  int32(depth),
		act:    act,
		seg:    uint32(len(a.segs) - 1),
		off:    uint32(off),
		n:      uint32(len(enc)),
	})
	if a.budget > 0 && a.resident > a.budget {
		return a.flush()
	}
	return nil
}

// segCap sizes a fresh segment: the standard arenaSegBytes, or exactly the
// oversized encoding that would never fit one.
func segCap(need int) int {
	if need > arenaSegBytes {
		return need
	}
	return arenaSegBytes
}

// addEdge appends one graph edge as a fixed-width record. Edge bytes count
// against the same resident budget as encodings and spill with them.
func (a *stateArena) addEdge(from int, act uint16, to int) error {
	if len(a.edgeSegs) == 0 || a.edgeSegs[len(a.edgeSegs)-1].spilled ||
		a.edgeSegs[len(a.edgeSegs)-1].size+arenaEdgeBytes > arenaSegBytes {
		a.edgeSegs = append(a.edgeSegs, arenaSeg{buf: make([]byte, 0, arenaSegBytes)})
	}
	seg := &a.edgeSegs[len(a.edgeSegs)-1]
	var rec [arenaEdgeBytes]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(from))
	binary.LittleEndian.PutUint16(rec[4:6], act)
	binary.LittleEndian.PutUint32(rec[6:10], uint32(to))
	seg.buf = append(seg.buf, rec[:]...)
	seg.size += arenaEdgeBytes
	a.resident += arenaEdgeBytes
	a.edgeCount++
	if from < a.lastFrom {
		a.edgesMono = false
	} else {
		a.lastFrom = from
	}
	if a.budget > 0 && a.resident > a.budget {
		return a.flush()
	}
	return nil
}

// forEachEdge streams every recorded edge, in append order, to fn. Resident
// segments are read in place; spilled segments are read back from the spill
// file one whole segment (≤ arenaSegBytes) at a time. fn returning an error
// stops the walk.
func (a *stateArena) forEachEdge(fn func(from int, act uint16, to int) error) error {
	var buf []byte
	for i := range a.edgeSegs {
		seg := &a.edgeSegs[i]
		var b []byte
		if seg.spilled {
			var err error
			if buf, err = a.edgeSegBytes(i, buf[:0]); err != nil {
				return err
			}
			b = buf
		} else {
			b = seg.buf[:seg.size]
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

// edgeSegBytes appends the full byte run of edge segment i to buf — the
// edge-list analogue of segBytes, used by forEachEdge and checkpointing.
func (a *stateArena) edgeSegBytes(i int, buf []byte) ([]byte, error) {
	seg := &a.edgeSegs[i]
	if !seg.spilled {
		return append(buf, seg.buf[:seg.size]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+seg.size {
		grown := make([]byte, lo, lo+seg.size)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+seg.size]
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena edge segment: %w", err)
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
// failing the run. Spilled reads stay valid: fileSize only advances past
// fully written segments.
func (a *stateArena) flush() error {
	if a.degraded {
		return nil
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
			return nil
		}
	}
	for _, list := range [][]arenaSeg{a.segs, a.edgeSegs} {
		for i := range list {
			seg := &list[i]
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
				return nil
			}
			seg.fileOff = a.fileSize
			a.fileSize += int64(seg.size)
			a.spilledAtomic.Store(a.fileSize)
			seg.buf = nil
			seg.spilled = true
			a.resident -= int64(seg.size)
			a.em.onArenaSpill(int64(seg.size))
		}
	}
	return nil
}

// degradedMemory reports whether a persistent spill failure forced the
// arena to retain segments in memory (Result.DegradedMemory).
func (a *stateArena) degradedMemory() bool { return a.degraded }

// residentBytes reports the encoding and edge bytes currently held in
// memory — the arena's half of Progress.ResidentBytes. Owner goroutine
// only, like add/flush.
func (a *stateArena) residentBytes() int64 { return a.resident }

// spilledBytesAtomic reports the bytes written to the spill file via the
// lock-free mirror of fileSize — safe from any goroutine, which is what
// the work-stealing progress ticker needs.
func (a *stateArena) spilledBytesAtomic() int64 { return a.spilledAtomic.Load() }

// encoding appends state id's canonical encoding to buf and returns the
// extended slice — always a copy, never an alias of a resident segment,
// so callers may reuse one buffer across reads without risking a later
// read scribbling over live arena bytes.
func (a *stateArena) encoding(id int, buf []byte) ([]byte, error) {
	m := a.meta[id]
	seg := &a.segs[m.seg]
	if !seg.spilled {
		return append(buf, seg.buf[m.off:m.off+m.n]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+int(m.n) {
		grown := make([]byte, lo, lo+int(m.n))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+int(m.n)]
	// A spilled encoding is required reading — traces and checkpoints are
	// built from it — so transient errors retry and persistent ones fail
	// explicitly rather than risk a wrong answer.
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff+int64(m.off))
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena segment: %w", err)
	}
	return buf, nil
}

// segBytes appends the full byte run of segment i to buf — from memory for
// resident segments, from the spill file otherwise. Checkpointing uses it
// to stream the arena's encodings out in segment order.
func (a *stateArena) segBytes(i int, buf []byte) ([]byte, error) {
	seg := &a.segs[i]
	if !seg.spilled {
		return append(buf, seg.buf[:seg.size]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+seg.size {
		grown := make([]byte, lo, lo+seg.size)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+seg.size]
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena segment: %w", err)
	}
	return buf, nil
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

// retainer owns discovered-state retention for one checking run, behind
// one concrete type with two modes. Live mode (the default) keeps every
// state and its bookkeeping entry in memory, exactly as the engine always
// has. Arena mode (Options.StateArena) keeps canonical encodings and
// parent links in a stateArena and live S values only for states awaiting
// expansion (retainLive/release bracket the window).
type retainer[S State] struct {
	arena  *stateArena
	acts   []string // interned action names; acts[0] is the initial-state ""
	actIdx map[string]uint16

	// graphOwned marks that Result.Graph serves lazily from the arena: the
	// graph, not the retainer, then owns the arena's spill file, and
	// Graph.Close releases it instead of retainer.close.
	graphOwned bool

	// live mode
	states  []S
	entries []stateEntry

	// arena mode: the unexpanded window
	live map[int]S
}

func newRetainer[S State](spec *Spec[S], opts Options, em *engineMetrics) *retainer[S] {
	if !opts.StateArena {
		return &retainer[S]{}
	}
	r := &retainer[S]{
		arena:  newStateArena(opts.MemoryBudgetBytes, opts.FS, em),
		acts:   []string{""},
		actIdx: map[string]uint16{"": 0},
		live:   map[int]S{},
	}
	for _, a := range spec.Actions {
		if _, ok := r.actIdx[a.Name]; !ok {
			r.actIdx[a.Name] = uint16(len(r.acts))
			r.acts = append(r.acts, a.Name)
		}
	}
	return r
}

func (r *retainer[S]) len() int {
	if r.arena != nil {
		return r.arena.len()
	}
	return len(r.states)
}

// add records one newly discovered state. In arena mode enc must be the
// state's plain encoding — codec.encode, not the orbit-canonical form —
// and is copied; in live mode enc is unused.
func (r *retainer[S]) add(s S, enc []byte, parent int, act string, depth int) error {
	if r.arena != nil {
		return r.arena.add(enc, parent, r.actIdx[act], depth)
	}
	r.states = append(r.states, s)
	r.entries = append(r.entries, stateEntry{id: len(r.states) - 1, parent: parent, act: act, depth: depth})
	return nil
}

// addEdge records one graph edge into the arena's edge segments (arena
// graph mode only; live mode appends to Graph.edges directly).
func (r *retainer[S]) addEdge(from int, act string, to int) error {
	return r.arena.addEdge(from, r.actIdx[act], to)
}

// retainLive parks a live value for a state the engine will expand later.
// Live mode retains everything already; arena mode adds it to the window.
func (r *retainer[S]) retainLive(id int, s S) {
	if r.arena != nil {
		r.live[id] = s
	}
}

// stateOf returns the live value of a not-yet-expanded state. Safe for
// concurrent readers while no add/retainLive/release runs (the
// level-synchronized expansion phase); the work-stealing engine serializes
// calls under its registration lock instead.
func (r *retainer[S]) stateOf(id int) S {
	if r.arena != nil {
		return r.live[id]
	}
	return r.states[id]
}

func (r *retainer[S]) depthOf(id int) int {
	if r.arena != nil {
		return int(r.arena.meta[id].depth)
	}
	return r.entries[id].depth
}

// release drops the live value of an expanded state (arena mode; live mode
// retains by design).
func (r *retainer[S]) release(id int) {
	if r.arena != nil {
		delete(r.live, id)
	}
}

// releaseAll drops the live values of a fully expanded frontier.
func (r *retainer[S]) releaseAll(ids []int) {
	if r.arena == nil {
		return
	}
	for _, id := range ids {
		delete(r.live, id)
	}
}

// trace reconstructs the initial-state-to-id trace and its action labels.
// Live mode walks the retained states. Arena mode decodes each stored
// encoding on the parent chain when the spec implements BinaryDecoder;
// otherwise it replays the recorded actions from the matching initial
// state, selecting at every step the successor whose plain encoding equals
// the stored bytes (see the file comment). Both reconstructions are exact —
// the trace equals the live-mode one byte for byte. cod must be a codec no
// expansion worker is using — the merge goroutine's, or any codec after
// the workers joined.
func (r *retainer[S]) trace(spec *Spec[S], cod *codec[S], id int) ([]S, []string, error) {
	if r.arena == nil {
		trace, acts := rebuildTrace(r.entries, r.states, id)
		return trace, acts, nil
	}
	var rev []int
	for i := id; i >= 0; i = int(r.arena.meta[i].parent) {
		rev = append(rev, i)
	}
	if cod.dec != nil {
		var enc []byte
		trace := make([]S, 0, len(rev))
		acts := make([]string, 0, len(rev)-1)
		for i := len(rev) - 1; i >= 0; i-- {
			sid := rev[i]
			var err error
			enc, err = r.arena.encoding(sid, enc[:0])
			if err != nil {
				return nil, nil, err
			}
			s, err := cod.dec(enc)
			if err != nil {
				return nil, nil, fmt.Errorf("tla: arena decode: state %d: %w", sid, err)
			}
			if i < len(rev)-1 {
				acts = append(acts, r.acts[r.arena.meta[sid].act])
			}
			trace = append(trace, s)
		}
		return trace, acts, nil
	}
	var target, cand []byte
	trace := make([]S, 0, len(rev))
	acts := make([]string, 0, len(rev)-1)
	var cur S
	for i := len(rev) - 1; i >= 0; i-- {
		sid := rev[i]
		var err error
		// encoding copies, so target is reusable across steps and safe to
		// hold while the candidate encodings churn through cand.
		target, err = r.arena.encoding(sid, target[:0])
		if err != nil {
			return nil, nil, err
		}
		found := false
		if i == len(rev)-1 {
			for _, s := range spec.Init() {
				if cand = cod.encode(s, cand[:0]); bytes.Equal(cand, target) {
					cur, found = s, true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("tla: arena replay: no initial state matches the stored encoding of state %d", sid)
			}
		} else {
			actName := r.acts[r.arena.meta[sid].act]
			for _, a := range spec.Actions {
				if a.Name != actName {
					continue
				}
				for _, succ := range a.Next(cur) {
					if cand = cod.encode(succ, cand[:0]); bytes.Equal(cand, target) {
						cur, found = succ, true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("tla: arena replay: no %s-successor matches the stored encoding of state %d", actName, sid)
			}
			acts = append(acts, actName)
		}
		trace = append(trace, cur)
	}
	return trace, acts, nil
}

// decodeState reconstructs one state from its stored encoding (arena mode
// with a bound decoder only). The lazy Graph serves StateAt/KeyAt from it.
func (r *retainer[S]) decodeState(cod *codec[S], id int) (S, error) {
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

// degradedMemory reports whether the arena had to fall back to in-memory
// retention after a persistent spill failure.
func (r *retainer[S]) degradedMemory() bool {
	return r.arena != nil && r.arena.degraded
}

// close releases the arena's spill file, if any — unless the arena now
// backs Result.Graph, whose Close owns that release.
func (r *retainer[S]) close() error {
	if r.arena == nil || r.graphOwned {
		return nil
	}
	return r.arena.close()
}
