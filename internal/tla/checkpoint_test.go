package tla

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"testing"
)

// Checkpoint/resume tests. The contract under test (checkpoint.go): a run
// interrupted with Options.CheckpointDir seals its state at the last level
// boundary, and a later run with ResumeFrom continues it to a verdict and
// counters identical to an uninterrupted oracle; the checkpoint directory
// itself is never modified by a resume.

// ckOpts is the option set the checkpoint tests share: parallel, disk-backed
// stores under a tiny budget, which selects arena retention.
func ckOpts() Options {
	return Options{Workers: 4, MemoryBudgetBytes: 1}
}

// interruptedCheckpoint runs spec-with-cancel-after-n into dir and returns
// the partial result. Fails the test unless the run was interrupted and
// wrote a checkpoint.
func interruptedCheckpoint(t *testing.T, max int, dir string, after int64) *Result[counterState] {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := cancelingSpec(counterSpec(max), cancel, after)
	opts := ckOpts()
	opts.Context = ctx
	opts.CheckpointDir = dir
	res, err := Check(spec, opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run (cancel after %d Next calls)", err, after)
	}
	if !res.Interrupted || res.CheckpointPath != dir {
		t.Fatalf("Interrupted = %v, CheckpointPath = %q, want a checkpoint in %q", res.Interrupted, res.CheckpointPath, dir)
	}
	return res
}

// assertSameOutcome compares the counters a resumed run must reproduce
// byte-identically.
func assertSameOutcome[S State](t *testing.T, label string, got, want *Result[S]) {
	t.Helper()
	if got.Distinct != want.Distinct || got.Transitions != want.Transitions ||
		got.Depth != want.Depth || got.Terminal != want.Terminal || got.ConstraintCuts != want.ConstraintCuts {
		t.Fatalf("%s: diverged from the oracle:\n got  distinct=%d transitions=%d depth=%d terminal=%d cuts=%d\n want distinct=%d transitions=%d depth=%d terminal=%d cuts=%d",
			label, got.Distinct, got.Transitions, got.Depth, got.Terminal, got.ConstraintCuts,
			want.Distinct, want.Transitions, want.Depth, want.Terminal, want.ConstraintCuts)
	}
}

// TestCheckpointResumeMatchesOracle is the headline property: interrupt,
// checkpoint, resume with a fresh spec, and the final verdict and counters
// equal an uninterrupted run's.
func TestCheckpointResumeMatchesOracle(t *testing.T) {
	const max = 30
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	partial := interruptedCheckpoint(t, max, dir, 600)
	if partial.Distinct == 0 || partial.Distinct >= oracle.Distinct {
		t.Fatalf("partial run found %d states, oracle %d — the interrupt landed outside the run", partial.Distinct, oracle.Distinct)
	}
	info, err := ReadCheckpointInfo(dir)
	if err != nil {
		t.Fatalf("ReadCheckpointInfo: %v", err)
	}
	if info.Spec != "Counter" || info.Distinct == 0 {
		t.Fatalf("checkpoint info = %+v, want the partial Counter run", info)
	}
	opts := ckOpts()
	opts.ResumeFrom = dir
	res, err := Check(counterSpec(max), opts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Interrupted {
		t.Fatal("resumed run still reports Interrupted")
	}
	assertSameOutcome(t, "resume", res, oracle)

	// A run that degraded before the interrupt (every arena segment write
	// fails with ENOSPC) records it in the manifest, and the resumed run —
	// fault-free itself — must keep reporting it.
	ddir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ffs := NewFaultFS(nil)
	ffs.Inject(Fault{Op: FaultWrite, Path: "tla-arena-", Err: syscall.ENOSPC})
	dopts := ckOpts()
	dopts.Context, dopts.CheckpointDir, dopts.FS = ctx, ddir, ffs
	dres, err := Check(cancelingSpec(counterSpec(max), cancel, 600), dopts)
	if !errors.Is(err, ErrInterrupted) || !dres.DegradedMemory {
		t.Fatalf("degrading run: err = %v, DegradedMemory = %v, want an interrupted degraded run", err, dres.DegradedMemory)
	}
	ropts := ckOpts()
	ropts.ResumeFrom = ddir
	rres, err := Check(counterSpec(max), ropts)
	if err != nil {
		t.Fatalf("resuming the degraded run: %v", err)
	}
	if !rres.DegradedMemory {
		t.Fatal("the resumed run lost the DegradedMemory of the run it continues")
	}
	assertSameOutcome(t, "degraded-resume", rres, oracle)
}

// TestMultiHopResume interrupts, resumes, interrupts again — each hop
// checkpointing into the same directory and picking up the generation
// sequence — until the run completes; the final counters still equal the
// oracle's.
func TestMultiHopResume(t *testing.T) {
	const max = 20
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	interruptedCheckpoint(t, max, dir, 120)
	var res *Result[counterState]
	for hop := 0; ; hop++ {
		if hop > 100 {
			t.Fatal("resume loop did not converge in 100 hops")
		}
		ctx, cancel := context.WithCancel(context.Background())
		spec := cancelingSpec(counterSpec(max), cancel, 120)
		opts := ckOpts()
		opts.Context = ctx
		opts.ResumeFrom = dir
		opts.CheckpointDir = dir
		res, err = Check(spec, opts)
		cancel()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("hop %d: %v", hop, err)
		}
	}
	assertSameOutcome(t, "multi-hop", res, oracle)
}

// TestPeriodicCheckpoint: CheckpointEvery seals generations mid-run without
// an interrupt; the run completes normally, the last checkpoint is
// resumable, and resuming it (pointlessly but legally) replays the tail to
// the same answer.
func TestPeriodicCheckpoint(t *testing.T) {
	const max = 16
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	opts := ckOpts()
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 3
	opts.CheckpointMeta = map[string]string{"spec": "counter", "max": "16"}
	res, err := Check(counterSpec(max), opts)
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if res.CheckpointPath != dir {
		t.Fatalf("CheckpointPath = %q, want %q", res.CheckpointPath, dir)
	}
	assertSameOutcome(t, "periodic", res, oracle)
	info, err := ReadCheckpointInfo(dir)
	if err != nil {
		t.Fatalf("ReadCheckpointInfo: %v", err)
	}
	if info.Meta["spec"] != "counter" || info.Meta["max"] != "16" {
		t.Fatalf("CheckpointMeta did not round-trip: %+v", info.Meta)
	}
	ropts := ckOpts()
	ropts.ResumeFrom = dir
	rres, err := Check(counterSpec(max), ropts)
	if err != nil {
		t.Fatalf("resuming the periodic checkpoint: %v", err)
	}
	assertSameOutcome(t, "periodic-resume", rres, oracle)
}

// TestResumeValidation: structurally incompatible resumes are rejected with
// ErrBadCheckpoint instead of replayed into nonsense.
func TestResumeValidation(t *testing.T) {
	const max = 20
	dir := t.TempDir()
	interruptedCheckpoint(t, max, dir, 200)

	resume := func(spec *Spec[counterState], mutate func(*Options)) error {
		opts := ckOpts()
		opts.ResumeFrom = dir
		if mutate != nil {
			mutate(&opts)
		}
		_, err := Check(spec, opts)
		return err
	}

	renamed := counterSpec(max)
	renamed.Name = "NotCounter"
	if err := resume(renamed, nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("renamed spec: err = %v, want ErrBadCheckpoint", err)
	}

	extended := counterSpec(max)
	extended.Actions = append(extended.Actions, Action[counterState]{
		Name: "Extra", Next: func(counterState) []counterState { return nil },
	})
	if err := resume(extended, nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("added action: err = %v, want ErrBadCheckpoint", err)
	}

	if err := resume(counterSpec(max), func(o *Options) { o.MaxStates = 10000 }); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("different MaxStates: err = %v, want ErrBadCheckpoint", err)
	}

	if err := resume(counterSpec(max), func(o *Options) { o.ResumeFrom = t.TempDir() }); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("empty checkpoint dir: err = %v, want ErrBadCheckpoint", err)
	}

	// Delete the arena meta file of a second checkpoint: a checkpoint
	// missing a file is bad, not a transient fault to retry.
	metaless := t.TempDir()
	interruptedCheckpoint(t, max, metaless, 200)
	mm, err := readManifest(OSFS, metaless)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(metaless, mm.MetaFile)); err != nil {
		t.Fatal(err)
	}
	if err := resume(counterSpec(max), func(o *Options) { o.ResumeFrom = metaless }); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("missing arena meta file: err = %v, want ErrBadCheckpoint", err)
	}

	// Corrupt one field of every arena meta record of a third checkpoint:
	// an encoding outside its segment, a parent that does not precede its
	// child or an action the manifest never interned is a bad checkpoint,
	// caught before the arena is read.
	corrupt := t.TempDir()
	interruptedCheckpoint(t, max, corrupt, 200)
	cm, err := readManifest(OSFS, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(corrupt, cm.MetaFile)
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		field string
		put   func(rec []byte)
	}{
		{"seg", func(rec []byte) { binary.LittleEndian.PutUint32(rec[10:], 0xFFFFFF) }},
		{"off", func(rec []byte) { binary.LittleEndian.PutUint32(rec[14:], 0x7FFFFFF0) }},
		{"n", func(rec []byte) { binary.LittleEndian.PutUint32(rec[18:], 0x7FFFFFFF) }},
		{"parent", func(rec []byte) { binary.LittleEndian.PutUint32(rec[0:], 0x7FFFFFFF) }},
		{"act", func(rec []byte) { binary.LittleEndian.PutUint16(rec[8:], 0xFFFF) }},
	} {
		blob := slices.Clone(meta)
		for off := 0; off < len(blob); off += ckMetaRecSize {
			c.put(blob[off:])
		}
		if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resume(counterSpec(max), func(o *Options) { o.ResumeFrom = corrupt }); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("corrupt arena meta %s: err = %v, want ErrBadCheckpoint", c.field, err)
		}
	}
	// A negative segment size in the manifest would let every record pass
	// the bounds check above.
	if err := os.WriteFile(metaPath, meta, 0o644); err != nil {
		t.Fatal(err)
	}
	cm.SegSizes[0] = -1
	mblob, err := json.Marshal(cm)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, ckManifestName), mblob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(counterSpec(max), func(o *Options) { o.ResumeFrom = corrupt }); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("negative arena segment size: err = %v, want ErrBadCheckpoint", err)
	}

	// Tear a visited file: a cut record is a bad checkpoint at resume, with
	// or without a budget, not an I/O error of the resumed run.
	m, err := readManifest(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	vpath := filepath.Join(dir, m.VisitedRuns[0])
	vblob, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vpath, vblob[:len(vblob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		if err := resume(counterSpec(max), func(o *Options) { o.MemoryBudgetBytes = budget }); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("torn visited file, budget %d: err = %v, want ErrBadCheckpoint", budget, err)
		}
	}

	// Tear the manifest: half its bytes is invalid JSON, detected as a torn
	// checkpoint rather than parsed into a half-restored run.
	mpath := filepath.Join(dir, "MANIFEST.json")
	blob, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(counterSpec(max), nil); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("torn manifest: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestResumeSeveralVisitedFiles resumes a checkpoint shaped like those of
// earlier releases, whose manifest lists several visited files that share
// fingerprints: the visited records are split into three overlapping
// sorted files. It must resume to the uninterrupted counts with and without
// a budget.
func TestResumeSeveralVisitedFiles(t *testing.T) {
	const max = 30
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	interruptedCheckpoint(t, max, dir, 600)
	m, err := readManifest(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.VisitedRuns) != 1 {
		t.Fatalf("checkpoint lists %d visited files, want 1", len(m.VisitedRuns))
	}
	blob, err := os.ReadFile(filepath.Join(dir, m.VisitedRuns[0]))
	if err != nil {
		t.Fatal(err)
	}
	n := len(blob) / spillRecSize
	if n < 6 {
		t.Fatalf("checkpoint holds %d visited records, too few to split", n)
	}
	parts := map[string][]byte{
		"g000000-visited-resident": blob[:2*n/3*spillRecSize],
		"g000000-visited-000000":   blob[n/3*spillRecSize:],
		"g000000-visited-000001":   blob[n/2*spillRecSize : (n/2+1)*spillRecSize],
	}
	m.VisitedRuns = nil
	for name, part := range parts {
		if err := os.WriteFile(filepath.Join(dir, name), part, 0o644); err != nil {
			t.Fatal(err)
		}
		m.VisitedRuns = append(m.VisitedRuns, name)
	}
	sort.Strings(m.VisitedRuns)
	mblob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckManifestName), mblob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		// Adopted alone, the files restore every record, each fingerprint
		// once: resident without a budget, sealed into the run under one.
		vs := newVisitedSet(Options{MemoryBudgetBytes: budget}, nil)
		if err := vs.adoptRuns(OSFS, dir, m.VisitedRuns); err != nil {
			t.Fatalf("budget %d: adoptRuns: %v", budget, err)
		}
		wantResident, wantSealed := n, 0
		if budget > 0 {
			wantResident, wantSealed = 0, n
		}
		if vs.resident() != wantResident || vs.sealed != int64(wantSealed*spillRecSize) {
			t.Fatalf("budget %d: adopted %d resident records and a %d-byte run, want %d and %d bytes",
				budget, vs.resident(), vs.sealed, wantResident, wantSealed*spillRecSize)
		}
		vs.Close()

		opts := ckOpts()
		opts.MemoryBudgetBytes = budget
		opts.ResumeFrom = dir
		res, err := Check(counterSpec(max), opts)
		if err != nil {
			t.Fatalf("budget %d: resume: %v", budget, err)
		}
		assertSameOutcome(t, fmt.Sprintf("budget %d", budget), res, oracle)
	}
}

// FuzzReadManifest feeds arbitrary bytes to readManifest as MANIFEST.json:
// it never panics, and every failure wraps ErrBadCheckpoint.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"version": 1, "spec": "Counter", "frontier": [0], "visited_runs": ["g000000-visited"]}`))
	f.Add([]byte(`{"version": 2}`))
	f.Add([]byte(`{"version": 1, "frontier": "x"}`))
	f.Add([]byte(`{"version"`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckManifestName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(OSFS, dir)
		if err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("readManifest failed without ErrBadCheckpoint: %v", err)
		}
		if err == nil && m.Version != ckVersion {
			t.Fatalf("readManifest accepted version %d", m.Version)
		}
	})
}

// FuzzResumeArenaMeta puts arbitrary bytes in place of a valid checkpoint's
// arena meta file and resumes: the resume returns nil or an error wrapping
// ErrBadCheckpoint, and never panics, hangs or reads outside the
// checkpoint's segments. The spec has no invariant, and a window of its
// data file decodes, if at all, to counters within its bound, so any
// resume that passes validation ends in a bounded exploration.
func FuzzResumeArenaMeta(f *testing.F) {
	const max = 6
	spec := func() *Spec[counterState] {
		spec := counterSpec(max)
		spec.Invariants = nil
		return spec
	}
	dir := f.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1, MemoryBudgetBytes: 1, Context: ctx, CheckpointDir: dir}
	if _, err := Check(cancelingSpec(spec(), cancel, 12), opts); !errors.Is(err, ErrInterrupted) {
		f.Fatalf("err = %v, want an interrupted run", err)
	}
	m, err := readManifest(OSFS, dir)
	if err != nil {
		f.Fatal(err)
	}
	if len(m.Frontier) == 0 {
		f.Fatal("the checkpoint has an empty frontier")
	}
	metaPath := filepath.Join(dir, m.MetaFile)
	meta, err := os.ReadFile(metaPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta)
	f.Add(meta[:len(meta)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Check(spec(), Options{Workers: 1, MemoryBudgetBytes: 1, ResumeFrom: dir})
		if err != nil && !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("resume failed without ErrBadCheckpoint: %v", err)
		}
	})
}

// dirListing snapshots a directory as "name size" lines.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d", e.Name(), fi.Size()))
	}
	sort.Strings(out)
	return out
}

// TestResumeLeavesCheckpointIntact: a resume reads the checkpoint but never
// writes to it, so one checkpoint seeds any number of runs.
func TestResumeLeavesCheckpointIntact(t *testing.T) {
	const max = 20
	dir := t.TempDir()
	interruptedCheckpoint(t, max, dir, 200)
	before := dirListing(t, dir)

	var results []*Result[counterState]
	for i := 0; i < 2; i++ {
		opts := ckOpts()
		opts.ResumeFrom = dir
		res, err := Check(counterSpec(max), opts)
		if err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
		results = append(results, res)
	}
	assertSameOutcome(t, "second resume", results[1], results[0])

	after := dirListing(t, dir)
	if len(before) != len(after) {
		t.Fatalf("resume changed the checkpoint dir: %v -> %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("resume changed the checkpoint dir: %q -> %q", before[i], after[i])
		}
	}
}

// TestCrashSafeGenerations: a failing periodic checkpoint (rename of the
// new manifest fails — the commit point) fails the run explicitly, but the
// previous generation survives in the directory and resumes to the oracle's
// answer: a crash mid-checkpoint never costs the earlier checkpoint.
func TestCrashSafeGenerations(t *testing.T) {
	const max = 16
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	// First manifest rename (gen 0) lands; the second (gen 1) crashes.
	ffs.Inject(Fault{Op: FaultRename, Path: "MANIFEST.json", After: 1, Err: syscall.EIO})
	opts := ckOpts()
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 2
	opts.FS = ffs
	_, err = Check(counterSpec(max), opts)
	if err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("run with crashing checkpoint: err = %v, want the rename failure surfaced", err)
	}
	if len(ffs.Fired()) == 0 {
		t.Fatal("rename fault never fired")
	}

	info, err := ReadCheckpointInfo(dir)
	if err != nil {
		t.Fatalf("generation 0 did not survive the crash: %v", err)
	}
	if info.Levels == 0 {
		t.Fatalf("surviving checkpoint is empty: %+v", info)
	}
	ropts := ckOpts()
	ropts.ResumeFrom = dir
	res, err := Check(counterSpec(max), ropts)
	if err != nil {
		t.Fatalf("resuming the surviving generation: %v", err)
	}
	assertSameOutcome(t, "crash-resume", res, oracle)
}

// TestCheckpointSequentialWorker: checkpointing forces fingerprint dedup
// even on the otherwise collision-free sequential path; the single-worker
// checkpointed run must still match the parallel oracle.
func TestCheckpointSequentialWorker(t *testing.T) {
	const max = 14
	oracle, err := Check(counterSpec(max), ckOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := cancelingSpec(counterSpec(max), cancel, 80)
	res, err := Check(spec, Options{Workers: 1, CheckpointDir: dir, Context: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	if res.CheckpointPath != dir {
		t.Fatalf("no checkpoint written: %+v", res)
	}
	rres, err := Check(counterSpec(max), Options{Workers: 1, ResumeFrom: dir})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSameOutcome(t, "sequential", rres, oracle)
}

// TestOptionsFingerprintStable pins the options hash checkpoint manifests
// and verdict caches are keyed on: retiring an option must keep its slot in
// the hashed text, so checkpoints and cached verdicts written before stay
// valid.
func TestOptionsFingerprintStable(t *testing.T) {
	if got := fmt.Sprintf("%016x", Options{}.Fingerprint()); got != "80c9dbd03255416a" {
		t.Fatalf("Options{}.Fingerprint() = %s, want 80c9dbd03255416a", got)
	}
}
