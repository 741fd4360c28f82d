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
// over the budget, it merges every (fingerprint, id) pair of the table
// slots, sorted, with the set's one sealed run into a new sorted run file,
// each fingerprint once, removes the old file, and drops the tables for
// fresh minimal ones. The set holds at most one run, 16 bytes per distinct
// spilled fingerprint, as TLC's disk set merges its buffer into one file.
//
// Lookups against the run are deferred — merge-on-lookup, once per level:
// the expansion's probes see only the resident tables, and ResolveLevel
// merge-joins the level's sorted probe misses against the sorted run,
// restoring every spilled (fingerprint, id) it finds into the resident
// tables. The merge's claims then find those states as the duplicates they
// are, with graph edges pointing at the correct dense id. One sequential
// pass over the run per BFS level, zero random disk reads — the classic
// external-memory trade the paper credits TLC's engineering with.
//
// All I/O flows through the run's FS seam (fs.go) with the engine's fault
// contract: transient errors are retried with capped backoff; a persistent
// failure to *write* the new run (ENOSPC at the seal) degrades the set —
// the old run stays valid, and the resident fingerprints are held in
// memory, over budget, under Result.DegradedMemory — because spilling is
// memory relief, not correctness; a persistent failure to *read* the run,
// in a merge-join or in a seal's merge, fails the run explicitly, because
// the dedup information in it is load-bearing for the verdict.
//
// Only fingerprints spill (8 bytes of identity, 16 on disk with the id).
// A keyed table's encodings, which its byte check compares against, stay
// resident by definition, so Options.Validate refuses a budget alongside
// CollisionFree, and a budget makes the sequential oracle unkeyed.

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

// errReadRun is wrapped by every failure to read a run file, so a seal
// tells a failed read of the old run (fatal) from a failed write of the
// new one (degrading).
var errReadRun = errors.New("tla: reading spill run")

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
// goroutine only, with no probe in flight.
func (vs *visitedSet) restore(rec spillRec) {
	sh := vs.shard(rec.fp)
	if _, ok := sh.lookup(rec.fp, nil); !ok {
		sh.insert(rec.fp, nil, int(rec.id))
	}
}

// ResolveLevel merge-joins the level's probe misses (fingerprints, sorted
// here in place) against the sealed run and restores each spilled one it
// finds: one pass over the run that stops once the misses are exhausted.
// Runs on the driver goroutine after all workers joined and before the
// merge claims the misses. A transient read error retries the whole join —
// restoring is idempotent — and a persistent one fails the run: the sealed
// dedup records are load-bearing, and skipping them could silently prune
// the space.
func (vs *visitedSet) ResolveLevel(misses []uint64) error {
	if len(misses) == 0 || vs.run == "" {
		return nil
	}
	start := time.Now()
	slices.Sort(misses)
	err := vs.em.retry("spill", func() error {
		i := 0
		return readRecsFile(vs.fsys, vs.run, func(rec spillRec) bool {
			for i < len(misses) && misses[i] < rec.fp {
				i++
			}
			if i < len(misses) && misses[i] == rec.fp {
				vs.restore(rec)
			}
			return i < len(misses)
		})
	})
	if err != nil {
		return err
	}
	vs.em.onMergeJoin(time.Since(start))
	return nil
}

// readRecsFile streams the records of one run file through fn until the
// file ends or fn returns false.
func readRecsFile(fsys FS, path string, fn func(spillRec) bool) error {
	rr, err := openRun(fsys, path)
	if err != nil {
		return err
	}
	defer rr.f.Close()
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
		slots := vs.shards[i].tab.Load().slots
		for j := range slots {
			if id := slots[j].id.Load(); id != 0 {
				recs = append(recs, spillRec{fp: slots[j].fp.Load(), id: id - 1})
			}
		}
	}
	slices.SortFunc(recs, func(a, b spillRec) int { return cmp.Compare(a.fp, b.fp) })
	return recs
}

// EndLevel enforces the memory budget after the merge claimed the level's
// new states: when the resident fingerprints charge past the budget, they
// are merged with the sealed run into a new one (writeRun), the old file is
// removed and the tables are dropped.
//
// A persistent failure to write the new run (ENOSPC is the canonical case)
// degrades the set instead of failing the checking run: the old run stays
// sealed and consulted, the resident tables are kept — deduplication stays
// exact, memory use exceeds the budget — and the degradation is reported
// via Result.DegradedMemory. A persistent failure to read the old run fails
// the checking run.
func (vs *visitedSet) EndLevel() error {
	if vs.budget == 0 || vs.degraded || vs.residentBytes() <= vs.budget {
		return nil
	}
	recs := vs.residentRecs(vs.recBuf[:0])
	vs.recBuf = recs[:0]
	var n int64
	path, err := vs.nextRunPath()
	if err == nil {
		err = vs.em.retry("spill", func() (err error) {
			n, err = vs.writeRun(vs.fsys, path, recs)
			return err
		})
	}
	switch {
	case errors.Is(err, errReadRun):
		return err
	case err != nil:
		vs.degraded = true
		vs.em.onDegrade("spill")
		return nil
	}
	if vs.run != "" {
		vs.fsys.Remove(vs.run) // best-effort: Close removes the directory
	}
	vs.run, vs.sealed = path, n*spillRecSize
	vs.em.onRunSeal(n * spillRecSize)
	vs.clearResident()
	return nil
}

// nextRunPath names the next run file, creating the set's temp directory
// on first use.
func (vs *visitedSet) nextRunPath() (string, error) {
	if vs.dir == "" {
		err := vs.em.retry("spill", func() (err error) {
			vs.dir, err = vs.fsys.MkdirTemp("", "tla-spill-")
			return err
		})
		if err != nil {
			return "", fmt.Errorf("tla: creating spill dir: %w", err)
		}
	}
	vs.seq++
	return filepath.Join(vs.dir, fmt.Sprintf("run-%06d", vs.seq)), nil
}

// writeRun writes the sorted union of recs (sorted, each fingerprint once)
// and the sealed run into a new run file at path on fsys, each fingerprint
// once — a fingerprint in both carries the same id in both — and returns
// the records written. It is the one writer of the run format, for a seal
// and a checkpoint alike, and leaves the set as it is. On failure the
// partial file is removed, so a retry (or the degraded path) never sees
// torn records; a failure to read the sealed run wraps errReadRun.
func (vs *visitedSet) writeRun(fsys FS, path string, recs []spillRec) (n int64, err error) {
	old := &runReader{eof: true}
	if vs.run != "" {
		if old, err = openRun(vs.fsys, vs.run); err != nil {
			return 0, err
		}
		defer old.f.Close()
		if err := old.advance(); err != nil {
			return 0, err
		}
	}
	f, err := fsys.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fsys.Remove(path)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	var buf [spillRecSize]byte
	var last uint64
	for i := 0; ; {
		var rec spillRec
		switch {
		case i < len(recs) && (old.eof || recs[i].fp <= old.cur.fp):
			rec = recs[i]
			i++
		case !old.eof:
			rec = old.cur
			if err := old.advance(); err != nil {
				return 0, err
			}
		default:
			return n, w.Flush()
		}
		if n > 0 && rec.fp == last {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:8], rec.fp)
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.id))
		if _, err := w.Write(buf[:]); err != nil {
			return 0, err
		}
		last = rec.fp
		n++
	}
}

// runReader decodes the 16-byte records of one sorted run, one per
// advance: the only reader of the run format.
type runReader struct {
	f    File
	r    *bufio.Reader
	path string
	buf  [spillRecSize]byte
	cur  spillRec
	eof  bool
}

// openRun opens the run file at path; every error reading it wraps
// errReadRun.
func openRun(fsys FS, path string) (*runReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w %s: %w", errReadRun, path, err)
	}
	return &runReader{f: f, r: bufio.NewReaderSize(f, 1<<16), path: path}, nil
}

// advance decodes the next record into cur, or sets eof at the end of the
// run; a torn trailing record is an error.
func (rr *runReader) advance() error {
	if _, err := io.ReadFull(rr.r, rr.buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			rr.eof = true
			return nil
		}
		return fmt.Errorf("%w %s: %w", errReadRun, rr.path, err)
	}
	rr.cur = spillRec{
		fp: binary.LittleEndian.Uint64(rr.buf[:8]),
		id: int64(binary.LittleEndian.Uint64(rr.buf[8:])),
	}
	return nil
}

// snapshotRuns writes the set into dir for a checkpoint: the union of the
// resident pairs and the sealed run, through writeRun, as one sorted file
// of each fingerprint once. Returns the file's name (relative to dir) as
// the manifest's visited list. The set itself is not modified — a
// checkpoint must not perturb the run it snapshots.
func (vs *visitedSet) snapshotRuns(fsys FS, dir, prefix string) ([]string, error) {
	recs := vs.residentRecs(vs.recBuf[:0])
	vs.recBuf = recs[:0]
	name := prefix + "visited"
	err := vs.em.retry("checkpoint", func() error {
		_, err := vs.writeRun(fsys, filepath.Join(dir, name), recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// adoptRuns restores a checkpoint's visited files: every persisted
// (fingerprint, id) record is read back resident — a fingerprint in
// several files, as checkpoints of earlier releases list them, carries the
// same id in each — and EndLevel seals the set whenever it charges past
// the budget, so without one the resumed set is fully resident and with
// one it stays within it. A file that cannot be read whole (torn, missing)
// is a bad checkpoint; a failed seal fails or degrades as in a run.
func (vs *visitedSet) adoptRuns(fsys FS, srcDir string, names []string) error {
	for _, name := range names {
		var sealErr error
		err := vs.em.retry("checkpoint", func() error {
			return readRecsFile(fsys, filepath.Join(srcDir, name), func(rec spillRec) bool {
				vs.restore(rec)
				sealErr = vs.EndLevel()
				return sealErr == nil
			})
		})
		if sealErr != nil {
			return sealErr
		}
		if err != nil {
			return fmt.Errorf("%w: visited file %s: %v", ErrBadCheckpoint, name, err)
		}
	}
	return nil
}

// Close removes the spill directory and the sealed run.
func (vs *visitedSet) Close() error {
	if vs.dir == "" {
		return nil
	}
	dir := vs.dir
	vs.dir, vs.run = "", ""
	return vs.fsys.RemoveAll(dir)
}
