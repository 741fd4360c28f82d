package tla

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spillVisited is the disk-spilling visitedStore: TLC's answer to state
// spaces whose fingerprint set outgrows RAM, transcribed to the engine's
// level-synchronized protocol. Resident fingerprints live in the same
// sharded maps as memVisited; when EndLevel finds the resident set over
// the configured budget, every (fingerprint, id) pair is sorted and sealed
// into an immutable run file, and the maps are dropped.
//
// Lookups against sealed runs are deferred — merge-on-lookup, once per
// level: Claim optimistically creates an ID -1 entry for any fingerprint
// not resident, remembering it on the shard's fresh list, and ResolveLevel
// merge-joins the level's sorted fresh claims against each sorted run,
// restoring the spilled ID of the ones that were seen before. The merge
// phase then treats them as the duplicates they are, with graph edges
// pointing at the correct dense id. One sequential pass over the runs per
// BFS level, zero random disk reads — the classic external-memory
// trade the paper credits TLC's engineering with.
//
// All I/O flows through the run's FS seam (fs.go) with the engine's fault
// contract: transient errors are retried with capped backoff; a persistent
// failure to *write* a run (ENOSPC at the seal) degrades the store — the
// resident set is held in memory, over budget, under Result.DegradedMemory
// — because spilling is memory relief, not correctness; a persistent
// failure to *read* a sealed run fails the run explicitly, because the
// dedup information in it is load-bearing for the verdict.
//
// The store dedups fingerprints only (8 bytes of identity, 16 on disk with
// the id); collision-free full-encoding dedup is memory-resident by
// definition, which Options.Validate enforces.

// spillBytesPerEntry is the budget accounting charge per resident
// fingerprint: entry struct + map key/value + amortized bucket overhead.
// It is an estimate — the budget bounds the order of magnitude, not the
// byte — and a constant so forced-spill tests are deterministic.
const spillBytesPerEntry = 48

// spillRec is one on-disk record: a fingerprint and its assigned dense id,
// fixed-width little-endian, 16 bytes.
type spillRec struct {
	fp uint64
	id int64
}

const spillRecSize = 16

type spillShard struct {
	mu   sync.Mutex
	byFP map[uint64]*visitedEntry
	// fresh are the entries created since the last ResolveLevel: the
	// claims that may yet turn out to be duplicates of spilled
	// fingerprints.
	fresh []spillFresh
}

type spillFresh struct {
	fp uint64
	e  *visitedEntry
}

// spillCompactAfter is the sealed-run fan-in the store tolerates: once
// more runs than this accumulate, EndLevel merges them all into one
// sorted run, so a long spilled exploration pays a bounded merge-join per
// BFS level instead of one join per run ever sealed.
const spillCompactAfter = 8

type spillVisited struct {
	budget   int64
	fsys     FS
	em       *engineMetrics // nil-safe observability sink
	dir      string         // temp dir holding the runs; created on first spill
	runs     []string       // paths of sealed sorted run files, oldest first
	seq      int            // run file name sequence (survives compaction)
	resident int            // fingerprints currently held in the shard maps
	sealed   int64          // bytes of sealed run files currently on disk
	degraded bool           // a persistent spill-write failure switched the store to hold-resident
	shards   [visitedShards]spillShard

	// scratch for ResolveLevel/EndLevel, reused across levels.
	freshBuf []spillFresh
	recBuf   []spillRec
}

func newSpillVisited(budget int64, fsys FS, em *engineMetrics) *spillVisited {
	vs := &spillVisited{budget: budget, fsys: resolveFS(fsys), em: em}
	for i := range vs.shards {
		vs.shards[i].byFP = make(map[uint64]*visitedEntry)
	}
	return vs
}

// degradedMemory reports whether a persistent spill failure forced the
// store to hold its resident set over budget (Result.DegradedMemory).
func (vs *spillVisited) degradedMemory() bool { return vs.degraded }

// spilledBytes reports the bytes of sealed runs on disk — the visited
// set's half of Progress.SpillBytes. Merge goroutine only, like the seal
// and compaction paths that maintain it.
func (vs *spillVisited) spilledBytes() int64 { return vs.sealed }

// residentBytes reports the budget charge of the resident fingerprint set —
// the visited set's half of Progress.ResidentBytes. Merge goroutine only.
func (vs *spillVisited) residentBytes() int64 {
	return int64(vs.resident) * spillBytesPerEntry
}

// Claim implements visitedStore. A fingerprint absent from the resident
// maps gets a provisional ID -1 entry even if it was spilled earlier;
// ResolveLevel settles the question before the merge needs the answer.
func (vs *spillVisited) Claim(enc []byte) *visitedEntry {
	fp := fingerprint(enc)
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	e := sh.byFP[fp]
	if e == nil {
		e = &visitedEntry{ID: -1}
		sh.byFP[fp] = e
		sh.fresh = append(sh.fresh, spillFresh{fp: fp, e: e})
	}
	sh.mu.Unlock()
	return e
}

// ResolveLevel merge-joins this level's fresh claims against every sealed
// run, restoring the dense id of fingerprints that were spilled. Runs on
// the merge goroutine; no locks needed (all workers have joined). A
// transient read error retries the whole run's join — the join is
// idempotent (an entry's ID is only ever restored once, and to the same
// value) — and a persistent one fails the run: the sealed dedup records
// are load-bearing, and skipping them could silently prune the space.
func (vs *spillVisited) ResolveLevel() error {
	fresh := vs.freshBuf[:0]
	for i := range vs.shards {
		sh := &vs.shards[i]
		fresh = append(fresh, sh.fresh...)
		sh.fresh = sh.fresh[:0]
	}
	vs.freshBuf = fresh
	vs.resident += len(fresh)
	if len(fresh) == 0 || len(vs.runs) == 0 {
		return nil
	}
	start := time.Now()
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].fp < fresh[j].fp })
	for _, run := range vs.runs {
		if err := vs.em.retry("spill", func() error { return mergeJoinRun(vs.fsys, run, fresh) }); err != nil {
			return err
		}
	}
	vs.em.onMergeJoins(len(vs.runs), time.Since(start))
	return nil
}

// mergeJoinRun streams the sorted run once, advancing through the sorted
// fresh claims in lockstep and restoring the id of every match that is
// still unassigned.
func mergeJoinRun(fsys FS, path string, fresh []spillFresh) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var buf [spillRecSize]byte
	i := 0
	for i < len(fresh) {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("tla: reading spill run %s: %w", path, err)
		}
		fp := binary.LittleEndian.Uint64(buf[:8])
		for i < len(fresh) && fresh[i].fp < fp {
			i++
		}
		if i < len(fresh) && fresh[i].fp == fp && fresh[i].e.ID < 0 {
			fresh[i].e.ID = int(int64(binary.LittleEndian.Uint64(buf[8:])))
		}
	}
	return nil
}

// readRecsFile streams every 16-byte record of one sealed run through fn.
func readRecsFile(fsys FS, path string, fn func(spillRec) error) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var buf [spillRecSize]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("tla: reading spill run %s: %w", path, err)
		}
		rec := spillRec{
			fp: binary.LittleEndian.Uint64(buf[:8]),
			id: int64(binary.LittleEndian.Uint64(buf[8:])),
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// clearResident drops the shard maps after their contents were sealed.
func (vs *spillVisited) clearResident() {
	for i := range vs.shards {
		vs.shards[i].byFP = make(map[uint64]*visitedEntry)
	}
	vs.resident = 0
}

// EndLevel enforces the memory budget after the merge assigned ids: when
// the resident set charges past the budget, every resident (fingerprint,
// id) pair is sorted into a new sealed run and the maps are dropped.
// Revived duplicates may be written to more than one run; they carry the
// same id everywhere, so merge-join correctness is unaffected.
//
// A persistent failure to seal the run (ENOSPC is the canonical case)
// degrades the store instead of failing the checking run: the resident
// maps are kept — deduplication stays exact, memory use exceeds the
// budget — the degradation is reported via Result.DegradedMemory, and a
// best-effort compaction trims the sealed-run fan-in it can no longer
// grow past.
func (vs *spillVisited) EndLevel() error {
	for i := range vs.shards {
		vs.shards[i].fresh = vs.shards[i].fresh[:0]
	}
	if vs.degraded || int64(vs.resident)*spillBytesPerEntry <= vs.budget {
		return nil
	}
	recs := vs.recBuf[:0]
	for i := range vs.shards {
		for fp, e := range vs.shards[i].byFP {
			if e.ID >= 0 { // defensive: never persist an unassigned claim
				recs = append(recs, spillRec{fp: fp, id: int64(e.ID)})
			}
		}
	}
	vs.recBuf = recs[:0]
	if len(recs) == 0 {
		vs.clearResident()
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].fp < recs[j].fp })
	if err := vs.writeRun(recs); err != nil {
		vs.degraded = true
		vs.em.onDegrade("spill")
		if len(vs.runs) > 1 {
			vs.compactRuns() // best-effort; failure keeps the old runs sealed
		}
		return nil
	}
	vs.clearResident()
	if len(vs.runs) > spillCompactAfter {
		// Compaction is an optimization: on failure the original runs stay
		// sealed and consulted — more merge-join fan-in, same answers.
		if vs.compactRuns() == nil {
			vs.em.onCompaction()
		}
	}
	return nil
}

// ensureDir creates the store's temp directory on first use.
func (vs *spillVisited) ensureDir() error {
	if vs.dir != "" {
		return nil
	}
	return vs.em.retry("spill", func() error {
		dir, err := vs.fsys.MkdirTemp("", "tla-spill-")
		if err != nil {
			return fmt.Errorf("tla: creating spill dir: %w", err)
		}
		vs.dir = dir
		return nil
	})
}

func (vs *spillVisited) writeRun(recs []spillRec) error {
	if err := vs.ensureDir(); err != nil {
		return err
	}
	path := filepath.Join(vs.dir, fmt.Sprintf("run-%06d", vs.seq))
	vs.seq++
	// The whole file is rewritten per attempt: a torn write from a failed
	// attempt is overwritten, never appended to.
	if err := vs.em.retry("spill", func() error { return writeRecsFile(vs.fsys, path, recs) }); err != nil {
		return err
	}
	vs.runs = append(vs.runs, path)
	vs.sealed += int64(len(recs)) * spillRecSize
	vs.em.onRunSeal(int64(len(recs)) * spillRecSize)
	return nil
}

// writeRecsFile writes one sorted run file; the partial file is removed on
// any failure so a retry (or the degraded path) never sees torn records.
func writeRecsFile(fsys FS, path string, recs []spillRec) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var buf [spillRecSize]byte
	fail := func(err error) error {
		f.Close()
		fsys.Remove(path)
		return err
	}
	for _, rec := range recs {
		binary.LittleEndian.PutUint64(buf[:8], rec.fp)
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.id))
		if _, err := w.Write(buf[:]); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return err
	}
	return nil
}

// runReader streams one sorted run during compaction.
type runReader struct {
	f   File
	r   *bufio.Reader
	cur spillRec
	eof bool
}

func (rr *runReader) advance() error {
	var buf [spillRecSize]byte
	if _, err := io.ReadFull(rr.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			rr.eof = true
			return nil
		}
		return fmt.Errorf("tla: reading spill run %s during compaction: %w", rr.f.Name(), err)
	}
	rr.cur = spillRec{
		fp: binary.LittleEndian.Uint64(buf[:8]),
		id: int64(binary.LittleEndian.Uint64(buf[8:])),
	}
	return nil
}

// compactRuns streaming-merges every sealed run into one sorted run and
// removes the originals, bounding the per-level merge-join fan-in. A
// fingerprint appearing in several runs (a revived duplicate re-spilled
// later) carries the same id everywhere, so only its first occurrence is
// kept. Runs on the merge goroutine, between levels. On failure the
// partial output is removed and the original runs are left sealed and
// registered — callers treat compaction as optional.
func (vs *spillVisited) compactRuns() error {
	readers := make([]*runReader, 0, len(vs.runs))
	closeAll := func() {
		for _, rr := range readers {
			rr.f.Close()
		}
	}
	for _, path := range vs.runs {
		f, err := vs.fsys.Open(path)
		if err != nil {
			closeAll()
			return err
		}
		rr := &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}
		readers = append(readers, rr)
		if err := rr.advance(); err != nil {
			closeAll()
			return err
		}
	}
	path := filepath.Join(vs.dir, fmt.Sprintf("run-%06d", vs.seq))
	vs.seq++
	out, err := vs.fsys.Create(path)
	if err != nil {
		closeAll()
		return err
	}
	fail := func(err error) error {
		closeAll()
		out.Close()
		vs.fsys.Remove(path)
		return err
	}
	w := bufio.NewWriterSize(out, 1<<16)
	var buf [spillRecSize]byte
	var written int64
	// The fan-in is bounded by spillCompactAfter+1, so a linear min-scan
	// per record beats the bookkeeping of a heap.
	for {
		var min *runReader
		for _, rr := range readers {
			if !rr.eof && (min == nil || rr.cur.fp < min.cur.fp) {
				min = rr
			}
		}
		if min == nil {
			break
		}
		rec := min.cur
		binary.LittleEndian.PutUint64(buf[:8], rec.fp)
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.id))
		if _, err := w.Write(buf[:]); err != nil {
			return fail(err)
		}
		written++
		// Consume this fingerprint from every run that carries it.
		for _, rr := range readers {
			for !rr.eof && rr.cur.fp == rec.fp {
				if err := rr.advance(); err != nil {
					return fail(err)
				}
			}
		}
	}
	closeAll()
	if err := w.Flush(); err != nil {
		out.Close()
		vs.fsys.Remove(path)
		return err
	}
	if err := out.Close(); err != nil {
		vs.fsys.Remove(path)
		return err
	}
	for _, old := range vs.runs {
		if err := vs.fsys.Remove(old); err != nil {
			return err
		}
	}
	vs.runs = vs.runs[:0]
	vs.runs = append(vs.runs, path)
	vs.sealed = written * spillRecSize
	return nil
}

// snapshotRuns seals the store's state into dir for a checkpoint: the
// resident (fingerprint, id) pairs become one fresh sorted run, and every
// sealed run is copied verbatim. Returns the file names (relative to dir).
// The store itself is not modified — a checkpoint must not perturb the run
// it snapshots.
func (vs *spillVisited) snapshotRuns(fsys FS, dir, prefix string) ([]string, error) {
	var names []string
	recs := []spillRec{}
	for i := range vs.shards {
		for fp, e := range vs.shards[i].byFP {
			if e.ID >= 0 {
				recs = append(recs, spillRec{fp: fp, id: int64(e.ID)})
			}
		}
	}
	if len(recs) > 0 {
		sort.Slice(recs, func(i, j int) bool { return recs[i].fp < recs[j].fp })
		name := prefix + "visited-resident"
		if err := vs.em.retry("checkpoint", func() error { return writeRecsFile(fsys, filepath.Join(dir, name), recs) }); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	for i, run := range vs.runs {
		name := fmt.Sprintf("%svisited-%06d", prefix, i)
		if err := vs.em.retry("checkpoint", func() error { return copyFileFS(fsys, run, filepath.Join(dir, name)) }); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// adoptRuns restores a checkpoint's visited runs: each file is copied into
// the store's own temp dir (the checkpoint stays immutable) and registered
// as a sealed run, so the first resumed level's merge-join restores every
// persisted id.
func (vs *spillVisited) adoptRuns(fsys FS, srcDir string, names []string) error {
	if len(names) == 0 {
		return nil
	}
	if err := vs.ensureDir(); err != nil {
		return err
	}
	for _, name := range names {
		dst := filepath.Join(vs.dir, fmt.Sprintf("run-%06d", vs.seq))
		vs.seq++
		if err := vs.em.retry("checkpoint", func() error { return copyFileFS(fsys, filepath.Join(srcDir, name), dst) }); err != nil {
			return err
		}
		vs.runs = append(vs.runs, dst)
	}
	return nil
}

// Close removes the spill directory and every sealed run.
func (vs *spillVisited) Close() error {
	if vs.dir == "" {
		return nil
	}
	dir := vs.dir
	vs.dir, vs.runs = "", nil
	return vs.fsys.RemoveAll(dir)
}
