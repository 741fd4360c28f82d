package tla

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"
)

// The visited set's spill half: TLC's external-memory fingerprint set,
// transcribed to the level-synchronized engine. Without a memory budget the
// set never seals. With one, when EndLevel finds the resident fingerprints
// over the budget, every (fingerprint, id) pair — the table slots and the
// fingerprint-0 cells — is sorted and sealed into an immutable run file,
// and the tables are dropped for fresh minimal ones.
//
// Lookups against sealed runs are deferred — merge-on-lookup, once per
// level: the expansion's probes see only the resident tables, and
// ResolveLevel merge-joins the level's sorted probe misses against each
// sorted run, restoring every spilled (fingerprint, id) it finds into the
// resident tables. The merge's claims then find those states as the
// duplicates they are, with graph edges pointing at the correct dense id.
// One sequential pass over the runs per BFS level, zero random disk reads —
// the classic external-memory trade the paper credits TLC's engineering
// with.
//
// All I/O flows through the run's FS seam (fs.go) with the engine's fault
// contract: transient errors are retried with capped backoff; a persistent
// failure to *write* a run (ENOSPC at the seal) degrades the set — the
// resident fingerprints are held in memory, over budget, under
// Result.DegradedMemory — because spilling is memory relief, not
// correctness; a persistent failure to *read* a sealed run fails the run
// explicitly, because the dedup information in it is load-bearing for the
// verdict.
//
// Only fingerprints spill (8 bytes of identity, 16 on disk with the id);
// collision-free full-encoding dedup is memory-resident by definition,
// which Options.Validate enforces.

// spillBytesPerEntry is the budget accounting charge per resident
// fingerprint: its 16-byte table slot over a load factor between 3/8 and
// 3/4, plus the doubling's transient copy. It is an estimate — the budget
// bounds the order of magnitude, not the byte — and a constant so
// forced-spill tests are deterministic.
const spillBytesPerEntry = 48

// spillRec is one on-disk record: a fingerprint and its assigned dense id,
// fixed-width little-endian, 16 bytes.
type spillRec struct {
	fp uint64
	id int64
}

const spillRecSize = 16

// spillCompactAfter is the sealed-run fan-in the set tolerates: once more
// runs than this accumulate, EndLevel merges them all into one sorted run,
// so a long spilled exploration pays a bounded merge-join per BFS level
// instead of one join per run ever sealed.
const spillCompactAfter = 8

// residentBytes reports the budget charge of the resident fingerprints —
// the visited set's half of Progress.ResidentBytes; 0 without a budget,
// which tracks none. Merge goroutine only.
func (vs *visitedSet) residentBytes() int64 {
	if vs.budget == 0 {
		return 0
	}
	return int64(vs.resident()) * spillBytesPerEntry
}

// restore makes a persisted (fingerprint, id) record resident again; a
// fingerprint already resident keeps its id, which is the same. Merge
// goroutine only, with no claim in flight.
func (vs *visitedSet) restore(rec spillRec) {
	sh := &vs.shards[rec.fp&(visitedShards-1)]
	sh.mu.Lock()
	sh.insert(rec.fp, int(rec.id))
	sh.mu.Unlock()
}

// ResolveLevel merge-joins the level's probe misses (fingerprints, sorted
// here in place) against every sealed run and restores each spilled one it
// finds. Runs on the driver goroutine after all workers joined and before
// the merge claims the misses. A transient read error retries the whole
// run's join — restoring is idempotent — and a persistent one fails the
// run: the sealed dedup records are load-bearing, and skipping them could
// silently prune the space.
func (vs *visitedSet) ResolveLevel(misses []uint64) error {
	if len(misses) == 0 || len(vs.runs) == 0 {
		return nil
	}
	start := time.Now()
	slices.Sort(misses)
	for _, run := range vs.runs {
		if err := vs.em.retry("spill", func() error { return vs.mergeJoinRun(run, misses) }); err != nil {
			return err
		}
	}
	vs.em.onMergeJoins(len(vs.runs), time.Since(start))
	return nil
}

// mergeJoinRun streams the sorted run once, advancing through the sorted
// misses in lockstep and restoring every match; it stops reading once the
// misses are exhausted.
func (vs *visitedSet) mergeJoinRun(path string, misses []uint64) error {
	i := 0
	return readRecsFile(vs.fsys, path, func(rec spillRec) bool {
		for i < len(misses) && misses[i] < rec.fp {
			i++
		}
		if i < len(misses) && misses[i] == rec.fp {
			vs.restore(rec)
		}
		return i < len(misses)
	})
}

// readRecsFile streams the records of one sealed run through fn until the
// run ends or fn returns false.
func readRecsFile(fsys FS, path string, fn func(spillRec) bool) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rr := newRunReader(f, path, "")
	for {
		if err := rr.advance(); err != nil || rr.eof {
			return err
		}
		if !fn(rr.cur) {
			return nil
		}
	}
}

// residentRecs appends every resident (fingerprint, id) pair to recs,
// sorted by fingerprint.
func (vs *visitedSet) residentRecs(recs []spillRec) []spillRec {
	for i := range vs.shards {
		sh := &vs.shards[i]
		if z := sh.zero.Load(); z != 0 {
			recs = append(recs, spillRec{fp: 0, id: z - 1})
		}
		slots := sh.tab.Load().slots
		for j := range slots {
			if fp := slots[j].fp.Load(); fp != 0 {
				recs = append(recs, spillRec{fp: fp, id: slots[j].id.Load()})
			}
		}
	}
	slices.SortFunc(recs, func(a, b spillRec) int { return cmp.Compare(a.fp, b.fp) })
	return recs
}

// EndLevel enforces the memory budget after the merge claimed the level's
// new states: when the resident fingerprints charge past the budget, every
// resident (fingerprint, id) pair is sorted into a new sealed run and the
// tables are dropped. Restored duplicates may be written to more than one
// run; they carry the same id everywhere, so merge-join correctness is
// unaffected.
//
// A persistent failure to seal the run (ENOSPC is the canonical case)
// degrades the set instead of failing the checking run: the resident tables
// are kept — deduplication stays exact, memory use exceeds the budget — the
// degradation is reported via Result.DegradedMemory, and a best-effort
// compaction trims the sealed-run fan-in it can no longer grow past.
func (vs *visitedSet) EndLevel() error {
	if vs.budget == 0 || vs.degraded || vs.residentBytes() <= vs.budget {
		return nil
	}
	recs := vs.residentRecs(vs.recBuf[:0])
	vs.recBuf = recs[:0]
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

// ensureDir creates the set's temp directory on first use.
func (vs *visitedSet) ensureDir() error {
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

func (vs *visitedSet) writeRun(recs []spillRec) error {
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
	w := newRunWriter(f)
	fail := func(err error) error {
		f.Close()
		fsys.Remove(path)
		return err
	}
	for _, rec := range recs {
		if err := w.write(rec); err != nil {
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

// runReader decodes the 16-byte records of one sorted run, one per
// advance: the only reader of the run format.
type runReader struct {
	f    File
	r    *bufio.Reader
	path string
	note string // appended to the path in read errors
	buf  [spillRecSize]byte
	cur  spillRec
	eof  bool
}

func newRunReader(f File, path, note string) *runReader {
	return &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16), path: path, note: note}
}

// advance decodes the next record into cur, or sets eof at the end of the
// run; a torn trailing record is an error.
func (rr *runReader) advance() error {
	if _, err := io.ReadFull(rr.r, rr.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			rr.eof = true
			return nil
		}
		return fmt.Errorf("tla: reading spill run %s%s: %w", rr.path, rr.note, err)
	}
	rr.cur = spillRec{
		fp: binary.LittleEndian.Uint64(rr.buf[:8]),
		id: int64(binary.LittleEndian.Uint64(rr.buf[8:])),
	}
	return nil
}

// runWriter encodes records into a run file through its buffer: the only
// writer of the run format. Callers Flush it when done.
type runWriter struct {
	*bufio.Writer
	buf [spillRecSize]byte
}

func newRunWriter(f File) *runWriter {
	return &runWriter{Writer: bufio.NewWriterSize(f, 1<<16)}
}

func (rw *runWriter) write(rec spillRec) error {
	binary.LittleEndian.PutUint64(rw.buf[:8], rec.fp)
	binary.LittleEndian.PutUint64(rw.buf[8:], uint64(rec.id))
	_, err := rw.Write(rw.buf[:])
	return err
}

// compactRuns streaming-merges every sealed run into one sorted run and
// removes the originals, bounding the per-level merge-join fan-in. A
// fingerprint appearing in several runs (a revived duplicate re-spilled
// later) carries the same id everywhere, so only its first occurrence is
// kept. Runs on the driver goroutine, between levels. On failure the
// partial output is removed and the original runs are left sealed and
// registered — callers treat compaction as optional.
func (vs *visitedSet) compactRuns() error {
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
		rr := newRunReader(f, path, " during compaction")
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
	w := newRunWriter(out)
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
		if err := w.write(rec); err != nil {
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

// snapshotRuns seals the set's state into dir for a checkpoint: the
// resident (fingerprint, id) pairs become one fresh sorted run, and every
// sealed run is copied verbatim. Returns the file names (relative to dir).
// The set itself is not modified — a checkpoint must not perturb the run it
// snapshots.
func (vs *visitedSet) snapshotRuns(fsys FS, dir, prefix string) ([]string, error) {
	var names []string
	recs := vs.residentRecs(vs.recBuf[:0])
	vs.recBuf = recs[:0]
	if len(recs) > 0 {
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

// adoptRuns restores a checkpoint's visited runs. Without a budget every
// persisted (fingerprint, id) pair becomes resident again (a fingerprint in
// several files carries the same id in each), so the resumed run never
// merge-joins. Under a budget each file is copied into the set's own temp dir (the checkpoint stays
// immutable) and registered as a sealed run, so the first resumed level's
// merge-join restores every persisted id.
func (vs *visitedSet) adoptRuns(fsys FS, srcDir string, names []string) error {
	if vs.budget == 0 {
		for _, name := range names {
			err := vs.em.retry("checkpoint", func() error {
				return readRecsFile(fsys, filepath.Join(srcDir, name), func(rec spillRec) bool {
					vs.restore(rec)
					return true
				})
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
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
func (vs *visitedSet) Close() error {
	if vs.dir == "" {
		return nil
	}
	dir := vs.dir
	vs.dir, vs.runs = "", nil
	return vs.fsys.RemoveAll(dir)
}
