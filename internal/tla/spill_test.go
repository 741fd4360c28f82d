package tla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestOptionsValidate pins the named-error contract: nonsensical options
// are rejected up front with ErrInvalidOptions instead of being silently
// reinterpreted, and valid combinations pass.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{MaxStates: -5},
		{MemoryBudgetBytes: -1},
		{MemoryBudgetBytes: 1 << 20, CollisionFree: true},
		{Schedule: Schedule(7)},
		{Schedule: Schedule(-1)},
	}
	for _, opts := range bad {
		if err := opts.Validate(); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := Check(counterSpec(3), opts); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Check with %+v = %v, want ErrInvalidOptions", opts, err)
		}
	}
	good := []Options{
		{},
		{Workers: 0, MaxStates: 0},
		{Workers: 4, CollisionFree: true},
		{MemoryBudgetBytes: 1},
		{Schedule: ScheduleWorkSteal},
		{Schedule: ScheduleWorkSteal, CollisionFree: true},
		{StateArena: true},
		{StateArena: true, MemoryBudgetBytes: 1},
	}
	for _, opts := range good {
		if err := opts.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
	if _, err := CheckTraceWith(counterSpec(3), []Observation[counterState]{
		FullObservation[counterState]{counterState{0, 0}},
	}, TraceOptions{Workers: -3}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("CheckTraceWith(Workers: -3) = %v, want ErrInvalidOptions", err)
	}
}

// checkExplores runs Check on spec and reports whether it got as far as
// calling Init — the first step of every exploration, fresh or resumed.
func checkExplores[S State](spec *Spec[S], opts Options) (bool, error) {
	explored := false
	init := spec.Init
	spec.Init = func() []S {
		explored = true
		return init()
	}
	_, err := Check(spec, opts)
	return explored, err
}

// TestOptionsRejectedBeforeExploring pins every option combination the
// engine used to reinterpret silently — a work-steal run downgraded to
// level-sync, a POR request ignored on a spec without a declaration, the
// arena replaying actions for a state it cannot decode (the "key-only"
// rows). Each must now be
// an ErrInvalidOptions from Check before a single state is explored.
func TestOptionsRejectedBeforeExploring(t *testing.T) {
	incomplete := func() *Spec[gridState] {
		spec := gridSpec(2, 2, -1)
		spec.Independence.Procs = nil
		return spec
	}
	// *ptrState encodes but does not decode: the arena cannot retain it.
	noDecoder := func() *Spec[*ptrState] {
		return &Spec[*ptrState]{Name: "ptr", Init: func() []*ptrState { return []*ptrState{{}} }}
	}
	for _, tc := range []struct {
		name string
		run  func() (bool, error)
	}{
		{"worksteal-MemoryBudgetBytes", func() (bool, error) {
			return checkExplores(counterSpec(5), Options{Schedule: ScheduleWorkSteal, MemoryBudgetBytes: 1})
		}},
		{"worksteal-CheckpointDir", func() (bool, error) {
			return checkExplores(counterSpec(5), Options{Schedule: ScheduleWorkSteal, CheckpointDir: t.TempDir()})
		}},
		{"worksteal-ResumeFrom", func() (bool, error) {
			return checkExplores(counterSpec(5), Options{Schedule: ScheduleWorkSteal, ResumeFrom: t.TempDir()})
		}},
		{"PartialOrder-no-Independence", func() (bool, error) {
			return checkExplores(counterSpec(5), Options{PartialOrder: true})
		}},
		{"PartialOrder-nil-Procs", func() (bool, error) {
			return checkExplores(incomplete(), Options{PartialOrder: true})
		}},
		{"StateArena-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{StateArena: true})
		}},
		{"CheckpointDir-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{CheckpointDir: t.TempDir()})
		}},
		{"StateArena-RecordGraph-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{StateArena: true, RecordGraph: true})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			explored, err := tc.run()
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("err = %v, want ErrInvalidOptions", err)
			}
			if explored {
				t.Fatal("the run explored states before rejecting its options")
			}
		})
	}
}

// TestSpillMatchesMemoryStore is the engine-level cross-check of the
// disk-spilling visited store: with a one-byte budget (every level seals a
// run, every later level merge-joins against the accumulated runs) the
// counters, recorded graph and shortest counterexample must be
// byte-identical to the fully resident store, at every worker count,
// including on the randomized spec family and under bounds.
func TestSpillMatchesMemoryStore(t *testing.T) {
	check := func(label string, spec *Spec[counterState], opts Options) {
		t.Helper()
		want, wantErr := Check(spec, opts)
		for _, w := range []int{1, 2, 8} {
			sopts := opts
			sopts.Workers = w
			sopts.MemoryBudgetBytes = 1
			got, gotErr := Check(spec, sopts)
			assertResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, w), want, got, wantErr, gotErr)
			closeGraph(t, got)
		}
	}
	check("counter", counterSpec(12), Options{RecordGraph: true})
	check("counter-bounded", counterSpec(40), Options{MaxStates: 100, RecordGraph: true})

	viol := counterSpec(8)
	viol.Invariants = append(viol.Invariants, Invariant[counterState]{
		Name: "ANeverFive",
		Check: func(s counterState) error {
			if s.A == 5 {
				return errors.New("A reached 5")
			}
			return nil
		},
	})
	check("counter-violation", viol, Options{RecordGraph: true})

	for seed := int64(0); seed < 8; seed++ {
		spec := randomSpec(seed)
		want, wantErr := Check(spec, Options{RecordGraph: true})
		got, gotErr := Check(spec, Options{RecordGraph: true, Workers: 4, MemoryBudgetBytes: 1})
		assertResultsEqual(t, spec.Name+"-spill", want, got, wantErr, gotErr)
		closeGraph(t, got)
	}
}

// closeGraph releases the spill file of res's graph, if any: under a
// budget a recorded graph's edges spill, and the graph owns the file.
func closeGraph[S State](t *testing.T, res *Result[S]) {
	t.Helper()
	if res != nil && res.Graph != nil {
		if err := res.Graph.Close(); err != nil {
			t.Fatalf("Graph.Close: %v", err)
		}
	}
}

// TestSpillStoreSealsAndRevives hands runEngine a spilling visited set it
// can inspect afterwards: a forced-spill exploration must actually seal runs
// on disk, reproduce the resident result exactly, and remove its spill
// directory on Close.
func TestSpillStoreSealsAndRevives(t *testing.T) {
	opts := Options{RecordGraph: true, Workers: 2}
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, opts.Workers, nil)
	want, wantErr := Check(counterSpec(15), opts)
	got, gotErr := runEngine(counterSpec(15), opts, opts.Workers, st, nil)
	assertResultsEqual(t, "inspected-spill", want, got, wantErr, gotErr)
	if len(st.runs) == 0 {
		t.Fatal("one-byte budget explored the space without sealing a single run — the spill path never engaged")
	}
	dir := st.dir
	if dir == "" {
		t.Fatal("runs sealed but no spill directory recorded")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("spill directory missing before Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill directory survived Close: stat err = %v", err)
	}
}

// allocID returns a claim callback that assigns id.
func allocID(id int) func() int { return func() int { return id } }

// TestSpillStoreProtocol exercises the visited set's probe/claim/resolve/
// seal cycle directly, without the engine: a spilled fingerprint must be
// revived with its original id by the next level's merge-on-lookup, and an
// unseen one must stay unknown.
func TestSpillStoreProtocol(t *testing.T) {
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, 2, nil)
	defer st.Close()

	a, b := []byte("a"), []byte("b")
	fa, fb := fingerprint(a), fingerprint(b)
	if _, ok := st.probe(fa, a); ok {
		t.Fatal("probe of an unseen encoding hit")
	}
	if id, isNew := st.claim(fa, a, allocID(7)); id != 7 || !isNew {
		t.Fatalf("first claim = (%d, %t), want (7, true)", id, isNew)
	}
	if id, isNew := st.claim(fa, a, allocID(8)); id != 7 || isNew {
		t.Fatalf("re-claim = (%d, %t), want the first claim's (7, false)", id, isNew)
	}
	if err := st.ResolveLevel([]uint64{fa}); err != nil {
		t.Fatal(err)
	}
	if err := st.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if len(st.runs) != 1 || st.resident() != 0 {
		t.Fatalf("over-budget EndLevel left %d runs and %d resident ids, want 1 and 0", len(st.runs), st.resident())
	}

	if _, ok := st.probe(fa, a); ok {
		t.Fatal("probe after the seal hit a fingerprint that is only on disk")
	}
	if err := st.ResolveLevel([]uint64{fb, fa}); err != nil {
		t.Fatal(err)
	}
	if id, ok := st.probe(fa, a); !ok || id != 7 {
		t.Fatalf("revived probe = (%d, %t), want the spilled (7, true)", id, ok)
	}
	if id, ok := st.probe(fb, b); ok {
		t.Fatalf("unseen fingerprint resolved to id %d", id)
	}
}

// TestSpillRunCompaction pins the run-compaction contract: once more
// than spillCompactAfter sorted runs accumulate, EndLevel merges them
// into one, previously spilled ids still revive through the compacted
// run, and duplicate fingerprints across runs collapse to one record.
func TestSpillRunCompaction(t *testing.T) {
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, 2, nil)
	defer st.Close()

	ids := map[string]int{}
	nextID := 0
	alloc := func() int { nextID++; return nextID - 1 }
	// Drive spillCompactAfter+1 levels, each sealing one run; the final
	// EndLevel must compact. Key "dup" is claimed every level, so the same
	// fingerprint lands in every run with the same id.
	for level := 0; level <= spillCompactAfter; level++ {
		keys := []string{fmt.Sprintf("key-%d", level), "dup"}
		var misses []uint64
		for _, key := range keys {
			misses = append(misses, fingerprint([]byte(key)))
		}
		if err := st.ResolveLevel(misses); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			id, _ := st.claim(fingerprint([]byte(key)), []byte(key), alloc)
			if prev, ok := ids[key]; ok && prev != id {
				t.Fatalf("level %d: %s claimed as id %d, spilled as %d", level, key, id, prev)
			}
			ids[key] = id
		}
		if err := st.EndLevel(); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.runs) != 1 {
		t.Fatalf("after %d over-budget levels the set holds %d runs, want 1 compacted", spillCompactAfter+1, len(st.runs))
	}
	// Every spilled fingerprint must revive with its original id through
	// the compacted run.
	var misses []uint64
	for key := range ids {
		misses = append(misses, fingerprint([]byte(key)))
	}
	if err := st.ResolveLevel(misses); err != nil {
		t.Fatal(err)
	}
	for key, want := range ids {
		if got, ok := st.probe(fingerprint([]byte(key)), []byte(key)); !ok || got != want {
			t.Fatalf("key %s revived as (%d, %t) through the compacted run, want id %d", key, got, ok, want)
		}
	}
	// The compacted run holds each fingerprint once: its record count is
	// the distinct-claim count, not the sum of the input runs.
	fi, err := os.Stat(st.runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(ids) * spillRecSize); fi.Size() != want {
		t.Fatalf("compacted run is %d bytes, want %d (%d distinct records)", fi.Size(), want, len(ids))
	}
}

// TestClaimDoesNotAllocate pins the visited set's tables: a claim of a
// fresh state allocates nothing beyond amortized table doubling and, keyed,
// key storage blocks — the encoding is copied into its shard's storage,
// not into a string of its own.
func TestClaimDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, 2, nil)
		next := 0
		alloc := func() int { next++; return next - 1 }
		var enc [8]byte
		const perRun = 4096
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < perRun; i++ {
				binary.LittleEndian.PutUint64(enc[:], uint64(next))
				vs.claim(fingerprint(enc[:]), enc[:], alloc)
			}
		})
		if perClaim := avg / perRun; perClaim >= 0.5 {
			t.Fatalf("keyed=%t: claiming a fresh state allocates %.2f times on average, want < 0.5", keyed, perClaim)
		}
	}
}

// TestLevelFrontierRecycles pins the double-buffering contract: the slice
// handed out by NextLevel stays valid while the next level accumulates.
func TestLevelFrontierRecycles(t *testing.T) {
	f := newLevelFrontier()
	f.Push(1)
	f.Push(2)
	level := f.NextLevel()
	f.Push(3) // must not clobber level's backing array
	if len(level) != 2 || level[0] != 1 || level[1] != 2 {
		t.Fatalf("level = %v, want [1 2]", level)
	}
	if next := f.NextLevel(); len(next) != 1 || next[0] != 3 {
		t.Fatalf("next level = %v, want [3]", next)
	}
	if empty := f.NextLevel(); len(empty) != 0 {
		t.Fatalf("drained frontier returned %v", empty)
	}
}
