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
// set never seals. With one, when EndLevel finds the resident entries over
// the budget, it merges every (fingerprint, id) pair of the table slots,
// sorted, with the set's one sealed run into a new sorted run file, each
// pair once, removes the old file, and drops the tables for fresh minimal
// ones. The set holds at most one run, 16 bytes per distinct spilled state,
// as TLC's disk set merges its buffer into one file.
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
// A keyed set (Options.CollisionFree) spills the same records: its keys go
// with the tables, and a fingerprint holds one record per state that has
// it, so colliding states keep separate ids. ResolveLevel restores a keyed
// match with its key, which it reads back by id from the run's arena — a
// keyed set seals only under a budget, which retains every state's
// encoding there — in id order, one read per arena segment, so spilled
// keys are compared in the claim, as resident ones are, and never per
// probe.
//
// All I/O flows through the run's FS seam (fs.go) with the engine's fault
// contract: transient errors are retried with capped backoff; a persistent
// failure to *write* the new run (ENOSPC at the seal) degrades the set —
// the old run stays valid, and the resident entries are held in memory,
// over budget, under Result.DegradedMemory — because spilling is memory
// relief, not correctness; a persistent failure to *read* the run, in a
// merge-join or in a seal's merge, fails the run explicitly, because the
// dedup information in it is load-bearing for the verdict.

// spillBytesPerEntry is the budget accounting charge per resident
// fingerprint. It was sized for a 16-byte table slot over a load factor
// between 3/8 and 3/4, plus the doubling's transient copy; a slot is now
// 12 bytes (a fingerprint word and an id word), but the charge stays 48 so
// that a given budget seals at the same levels as before: the budget bounds
// the order of magnitude, not the byte, and a constant keeps forced-spill
// tests deterministic.
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

// residentBytes reports the budget charge of the resident entries — the
// visited set's half of Progress.ResidentBytes: spillBytesPerEntry each,
// plus a keyed set's stored keys; 0 without a budget, which tracks none.
// Merge goroutine only.
func (vs *visitedSet) residentBytes() int64 {
	if vs.budget == 0 {
		return 0
	}
	n := int64(0)
	for i := range vs.shards {
		sh := &vs.shards[i]
		n += int64(sh.n)*spillBytesPerEntry + int64(sh.keyBytes)
	}
	return n
}

// keyReader reads back the keys of spilled states for a keyed
// ResolveLevel: it calls restore with each of recs, which ascend by id, and
// that state's key, in order.
type keyReader func(recs []spillRec, restore func(rec spillRec, key []byte)) error

// ResolveLevel merge-joins the level's probe misses (fingerprints, sorted
// here in place) against the sealed run and makes each spilled record it
// finds resident again: one pass over the run that stops once the misses
// are exhausted. Keyed, it first collects the matched records, sorts them
// by id and restores each with the key keys reads back for it, so the keys
// are read in the order the arena stores them. Runs on the driver
// goroutine after all workers joined and before the merge claims the
// misses. A transient read error retries the whole join — restoring is
// idempotent — and a persistent one fails the run: the sealed dedup
// records are load-bearing, and skipping them could silently prune the
// space.
func (vs *visitedSet) ResolveLevel(misses []uint64, keys keyReader) error {
	if len(misses) == 0 || vs.run == "" {
		return nil
	}
	start := time.Now()
	slices.Sort(misses)
	restore := func(rec spillRec, key []byte) {
		if sh := vs.shard(rec.fp); sh.tab.find(rec.fp, key) < 0 {
			sh.insert(rec.fp, key, int(rec.id)) // not restored by an earlier attempt
		}
	}
	var matched []spillRec
	err := vs.em.retry("spill", func() error {
		i := 0
		matched = vs.recBuf[:0]
		return readRecsFile(vs.fsys, vs.run, func(rec spillRec) bool {
			for i < len(misses) && misses[i] < rec.fp {
				i++
			}
			if i < len(misses) && misses[i] == rec.fp {
				if vs.keyed {
					matched = append(matched, rec)
				} else {
					restore(rec, nil)
				}
			}
			return i < len(misses)
		})
	})
	vs.recBuf = matched[:0]
	if err == nil && len(matched) > 0 {
		slices.SortFunc(matched, func(a, b spillRec) int { return cmp.Compare(a.id, b.id) })
		err = keys(matched, restore)
	}
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
// sorted.
func (vs *visitedSet) residentRecs(recs []spillRec) []spillRec {
	for i := range vs.shards {
		tab := &vs.shards[i].tab
		for j, fp := range tab.fps {
			if fp != 0 {
				recs = append(recs, spillRec{fp: fp, id: int64(tab.ids[j])})
			}
		}
	}
	slices.SortFunc(recs, compareRecs)
	return recs
}

// compareRecs orders records by fingerprint, then id: the order of a run.
func compareRecs(a, b spillRec) int {
	return cmp.Or(cmp.Compare(a.fp, b.fp), cmp.Compare(a.id, b.id))
}

// EndLevel enforces the memory budget after the merge claimed the level's
// new states: when the resident entries charge past the budget, their
// records are merged with the sealed run into a new one (writeRun), the
// old file is removed and the tables, keys included, are dropped.
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
			n, err = vs.writeRun(path, recs)
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

// writeRun writes the sorted union of recs (sorted, each pair once) and
// the sealed run into a new run file at path, each pair once — a
// state in both carries the same id in both, and unkeyed a fingerprint has
// only one id — and returns the records written. It is the one writer of
// the run format and leaves the set as it is. On failure the partial file
// is removed, so a retry (or the degraded path) never sees torn records; a
// failure to read the sealed run wraps errReadRun.
func (vs *visitedSet) writeRun(path string, recs []spillRec) (n int64, err error) {
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
	f, err := vs.fsys.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			vs.fsys.Remove(path)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	var buf [spillRecSize]byte
	var last spillRec
	for i := 0; ; {
		var rec spillRec
		switch {
		case i < len(recs) && (old.eof || compareRecs(recs[i], old.cur) <= 0):
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
		if n > 0 && rec == last {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:8], rec.fp)
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.id))
		if _, err := w.Write(buf[:]); err != nil {
			return 0, err
		}
		last = rec
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

// Close removes the spill directory and the sealed run.
func (vs *visitedSet) Close() error {
	if vs.dir == "" {
		return nil
	}
	dir := vs.dir
	vs.dir, vs.run = "", ""
	return vs.fsys.RemoveAll(dir)
}
