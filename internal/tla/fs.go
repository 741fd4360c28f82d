package tla

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the engine's durable-I/O seam. Every byte the checker puts
// on disk — the spill store's run (spill.go), arena segments (arena.go), and
// checkpoints (checkpoint.go) — flows through an FS, so tests inject
// faults (ENOSPC at a segment seal, a transient write error mid-merge, a
// torn manifest) without touching the real filesystem's behaviour, and the
// engine's reaction to each fault class is a tested contract rather than
// an accident:
//
//   - Transient errors (EINTR, EAGAIN, or anything wrapping ErrTransientIO)
//     are retried with capped exponential backoff (retryIO).
//   - Persistent errors (ENOSPC, EIO, a full quota) on *optional* writes —
//     the spilling that relieves memory pressure — degrade the run: the
//     arena and the spill store fall back to resident retention and the
//     Result reports DegradedMemory. The verdict is never wrong, only the
//     memory budget is no longer honoured.
//   - Persistent errors on *required* reads (a spilled segment or sealed
//     run the verdict depends on) fail the run with the error: an explicit
//     failure, never a silently pruned state space.

// File is the subset of *os.File the engine's durable I/O needs. WriteAt
// and ReadAt serve the arena's random-access segment file; the sequential
// Reader/Writer halves serve the spill run and checkpoints.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Closer
	Name() string
}

// FS is the filesystem seam the engine's durable I/O is routed through.
// Options.FS plugs in an implementation; nil selects the real filesystem
// (OSFS). FaultFS wraps any FS with programmable fault injection.
type FS interface {
	Create(name string) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	MkdirTemp(dir, pattern string) (string, error)
	MkdirAll(path string) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS is the default FS: the real filesystem via package os.
var OSFS FS = osFS{}

func (osFS) Create(name string) (File, error)     { return os.Create(name) }
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) MkdirAll(path string) error           { return os.MkdirAll(path, 0o755) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }

func (osFS) CreateTemp(dir, pattern string) (File, error)  { return os.CreateTemp(dir, pattern) }
func (osFS) MkdirTemp(dir, pattern string) (string, error) { return os.MkdirTemp(dir, pattern) }

// resolveFS maps Options.FS to the FS the run uses.
func resolveFS(fsys FS) FS {
	if fsys == nil {
		return OSFS
	}
	return fsys
}

// ErrTransientIO marks an I/O error as transient: the engine retries the
// operation with capped backoff instead of degrading or failing. Fault
// injectors wrap it to exercise the retry path; real EINTR/EAGAIN are
// classified transient as well.
var ErrTransientIO = errors.New("tla: transient I/O fault")

// isTransientIO reports whether err is worth retrying: an injected
// transient fault, or an interrupted/again syscall.
func isTransientIO(err error) bool {
	return errors.Is(err, ErrTransientIO) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

const (
	// ioRetries is how many times a transient error is retried before it
	// is treated as persistent.
	ioRetries = 3
	// ioBackoffBase/Cap bound the retry backoff: 1ms, 4ms, 16ms.
	ioBackoffBase = time.Millisecond
	ioBackoffCap  = 50 * time.Millisecond
)

// retryIO runs op, retrying transient failures with capped exponential
// backoff. The returned error is the last attempt's: nil, or a persistent
// error, or a transient one that survived every retry (then treated as
// persistent by callers). notify (when non-nil) runs once per retried
// attempt, before the backoff sleep, with the zero-based attempt number and
// the transient error being retried: the seam the observability layer
// counts I/O retries through (engineMetrics.retry, the one caller).
func retryIO(op func() error, notify func(attempt int, err error)) error {
	delay := ioBackoffBase
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= ioRetries || !isTransientIO(err) {
			return err
		}
		if notify != nil {
			notify(attempt, err)
		}
		time.Sleep(delay)
		if delay < ioBackoffCap {
			delay *= 4
		}
	}
}

// writeFileFS writes data to name via fsys in one create/write/close
// sequence, removing the partial file on failure.
func writeFileFS(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(name)
		return err
	}
	return nil
}

// readFileFS reads the whole of name via fsys.
func readFileFS(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// FaultOp names the FS operation class a Fault matches.
type FaultOp string

const (
	FaultAny    FaultOp = ""       // any operation
	FaultCreate FaultOp = "create" // Create / CreateTemp
	FaultOpen   FaultOp = "open"
	FaultWrite  FaultOp = "write" // Write / WriteAt on any file
	FaultRead   FaultOp = "read"  // Read / ReadAt on any file
	FaultMkdir  FaultOp = "mkdir" // MkdirTemp / MkdirAll
	FaultRename FaultOp = "rename"
	FaultRemove FaultOp = "remove" // Remove / RemoveAll
	FaultClose  FaultOp = "close"
)

// Fault is one programmable failure of a FaultFS: operations of class Op
// whose path contains Path fail with Err, after the first After matching
// operations succeed, at most Times times (0 = every time). Short makes a
// failing write a torn write: half the bytes reach the underlying file
// before the error is returned.
//
// Delay makes the matching operation slow instead of (or as well as)
// broken: the FaultFS sleeps Delay — through its Sleep hook, so tests can
// fake the clock — and then lets the operation proceed when Err is nil, or
// fail with Err when it is not. A Delay fault with a nil Err still counts
// as fired (it appears in Fired()).
type Fault struct {
	Op    FaultOp
	Path  string
	Err   error
	After int
	Times int
	Short bool
	Delay time.Duration
}

type faultState struct {
	Fault
	seen  int // matching ops observed
	fired int // times the fault has fired
}

// FaultFS wraps an FS with programmable fault injection — the chaos half
// of the durable-I/O contract. It is how the fault-path tests (and the CI
// fault-injection smoke) simulate ENOSPC at a segment seal, transient
// flakiness during a merge-join, or a torn checkpoint manifest. Safe for
// concurrent use.
type FaultFS struct {
	Base FS
	// Sleep, when non-nil, replaces time.Sleep for Delay faults — the hook
	// that lets latency tests measure injected slowness without spending
	// wall-clock time. Set it before the FaultFS is used; it is read
	// without the mutex.
	Sleep func(time.Duration)

	mu     sync.Mutex
	faults []*faultState
	log    []string
}

// NewFaultFS wraps base (nil = OSFS) with an initially fault-free FaultFS.
func NewFaultFS(base FS) *FaultFS {
	return &FaultFS{Base: resolveFS(base)}
}

// Inject arms one fault. Faults are checked in injection order; the first
// match fires.
func (ffs *FaultFS) Inject(f Fault) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.faults = append(ffs.faults, &faultState{Fault: f})
}

// Clear disarms every fault.
func (ffs *FaultFS) Clear() {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	ffs.faults = nil
}

// Fired returns a log of the faults that fired, as "op path" strings.
func (ffs *FaultFS) Fired() []string {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return append([]string(nil), ffs.log...)
}

// check consults the armed faults for an operation under the mutex; the
// caller-facing wrapper is fault, which performs a Delay fault's sleep
// outside the lock so slow I/O on one file never serializes the others.
func (ffs *FaultFS) check(op FaultOp, path string) (err error, short bool, delay time.Duration) {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	for _, f := range ffs.faults {
		if f.Op != FaultAny && f.Op != op {
			continue
		}
		if f.Path != "" && !strings.Contains(path, f.Path) {
			continue
		}
		f.seen++
		if f.seen <= f.After {
			continue
		}
		if f.Times > 0 && f.fired >= f.Times {
			continue
		}
		f.fired++
		ffs.log = append(ffs.log, fmt.Sprintf("%s %s", op, path))
		return f.Err, f.Short, f.Delay
	}
	return nil, false, 0
}

// fault is the per-operation entry point: it matches the armed faults and
// serves a Delay fault's sleep (via the Sleep hook when set) before
// returning the failure verdict.
func (ffs *FaultFS) fault(op FaultOp, path string) (err error, short bool) {
	err, short, delay := ffs.check(op, path)
	if delay > 0 {
		if ffs.Sleep != nil {
			ffs.Sleep(delay)
		} else {
			time.Sleep(delay)
		}
	}
	return err, short
}

func (ffs *FaultFS) Create(name string) (File, error) {
	if err, _ := ffs.fault(FaultCreate, name); err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	f, err := ffs.Base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, ffs: ffs}, nil
}

func (ffs *FaultFS) Open(name string) (File, error) {
	if err, _ := ffs.fault(FaultOpen, name); err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	f, err := ffs.Base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, ffs: ffs}, nil
}

func (ffs *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := ffs.fault(FaultCreate, pattern); err != nil {
		return nil, fmt.Errorf("create temp %s: %w", pattern, err)
	}
	f, err := ffs.Base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, ffs: ffs}, nil
}

func (ffs *FaultFS) MkdirTemp(dir, pattern string) (string, error) {
	if err, _ := ffs.fault(FaultMkdir, pattern); err != nil {
		return "", fmt.Errorf("mkdir temp %s: %w", pattern, err)
	}
	return ffs.Base.MkdirTemp(dir, pattern)
}

func (ffs *FaultFS) MkdirAll(path string) error {
	if err, _ := ffs.fault(FaultMkdir, path); err != nil {
		return fmt.Errorf("mkdir %s: %w", path, err)
	}
	return ffs.Base.MkdirAll(path)
}

func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := ffs.fault(FaultRename, newpath); err != nil {
		return fmt.Errorf("rename %s: %w", newpath, err)
	}
	return ffs.Base.Rename(oldpath, newpath)
}

func (ffs *FaultFS) Remove(name string) error {
	if err, _ := ffs.fault(FaultRemove, name); err != nil {
		return fmt.Errorf("remove %s: %w", name, err)
	}
	return ffs.Base.Remove(name)
}

func (ffs *FaultFS) RemoveAll(path string) error {
	if err, _ := ffs.fault(FaultRemove, path); err != nil {
		return fmt.Errorf("remove %s: %w", path, err)
	}
	return ffs.Base.RemoveAll(path)
}

// faultFile intercepts per-file reads and writes with the owning FaultFS's
// armed faults.
type faultFile struct {
	File
	ffs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err, short := f.ffs.fault(FaultWrite, f.Name()); err != nil {
		if short && len(p) > 0 {
			n, _ := f.File.Write(p[:len(p)/2]) // torn write: half the bytes land
			return n, fmt.Errorf("write %s: %w", f.Name(), err)
		}
		return 0, fmt.Errorf("write %s: %w", f.Name(), err)
	}
	return f.File.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err, short := f.ffs.fault(FaultWrite, f.Name()); err != nil {
		if short && len(p) > 0 {
			n, _ := f.File.WriteAt(p[:len(p)/2], off)
			return n, fmt.Errorf("write %s: %w", f.Name(), err)
		}
		return 0, fmt.Errorf("write %s: %w", f.Name(), err)
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err, _ := f.ffs.fault(FaultRead, f.Name()); err != nil {
		return 0, fmt.Errorf("read %s: %w", f.Name(), err)
	}
	return f.File.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := f.ffs.fault(FaultRead, f.Name()); err != nil {
		return 0, fmt.Errorf("read %s: %w", f.Name(), err)
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Close() error {
	if err, _ := f.ffs.fault(FaultClose, f.Name()); err != nil {
		return fmt.Errorf("close %s: %w", f.Name(), err)
	}
	return f.File.Close()
}
