package tla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/race"
)

// TestOptionsValidate pins the named-error contract: nonsensical options
// are rejected up front with ErrInvalidOptions instead of being silently
// reinterpreted, and valid combinations pass.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workers: -1},
		{MaxStates: -5},
		{MemoryBudgetBytes: -1},
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
		{CheckpointDir: "ck", MemoryBudgetBytes: 1},
		{MemoryBudgetBytes: 1 << 20, CollisionFree: true},
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
// engine used to reinterpret silently — a POR request ignored on a spec
// without a declaration, the arena replaying actions for a state it cannot
// decode (the "key-only" rows). Each must now be an ErrInvalidOptions from
// Check before a single state is explored.
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
		{"PartialOrder-no-Independence", func() (bool, error) {
			return checkExplores(counterSpec(5), Options{PartialOrder: true})
		}},
		{"PartialOrder-nil-Procs", func() (bool, error) {
			return checkExplores(incomplete(), Options{PartialOrder: true})
		}},
		{"MemoryBudgetBytes-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{MemoryBudgetBytes: 1})
		}},
		{"CheckpointDir-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{CheckpointDir: t.TempDir()})
		}},
		{"MemoryBudgetBytes-RecordGraph-key-only", func() (bool, error) {
			return checkExplores(noDecoder(), Options{MemoryBudgetBytes: 1, RecordGraph: true})
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
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, nil)
	want, wantErr := Check(counterSpec(15), opts)
	got, gotErr := runEngine(counterSpec(15), opts, opts.Workers, st, nil)
	assertResultsEqual(t, "inspected-spill", want, got, wantErr, gotErr)
	if st.run == "" {
		t.Fatal("one-byte budget explored the space without sealing a run — the spill path never engaged")
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

// TestSpillStoreProtocol exercises the visited set's probe/own/resolve/
// seal cycle directly, without the engine: a spilled fingerprint must be
// revived with its original id by the next level's merge-on-lookup, and an
// unseen one must stay unknown.
func TestSpillStoreProtocol(t *testing.T) {
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, nil)
	defer st.Close()

	a, b := []byte("a"), []byte("b")
	fa, fb := fingerprint(a), fingerprint(b)
	if _, ok := st.probe(fa, a); ok {
		t.Fatal("probe of an unseen encoding hit")
	}
	if id, isNew := st.own(fa, a, 7); id != 7 || !isNew {
		t.Fatalf("first own = (%d, %t), want (7, true)", id, isNew)
	}
	if id, isNew := st.own(fa, a, 8); id != 7 || isNew {
		t.Fatalf("second own = (%d, %t), want the first's (7, false)", id, isNew)
	}
	if err := st.ResolveLevel([]uint64{fa}, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if st.run == "" || st.resident() != 0 {
		t.Fatalf("over-budget EndLevel left run %q and %d resident ids, want a run and 0", st.run, st.resident())
	}

	if _, ok := st.probe(fa, a); ok {
		t.Fatal("probe after the seal hit a fingerprint that is only on disk")
	}
	if err := st.ResolveLevel([]uint64{fb, fa}, nil); err != nil {
		t.Fatal(err)
	}
	if id, ok := st.probe(fa, a); !ok || id != 7 {
		t.Fatalf("revived probe = (%d, %t), want the spilled (7, true)", id, ok)
	}
	if id, ok := st.probe(fb, b); ok {
		t.Fatalf("unseen fingerprint resolved to id %d", id)
	}
}

// TestSpillSingleRun pins the single-run contract: after every
// over-budget level the spill directory holds one run file, it lists each
// spilled fingerprint once, in order — its size is 16 bytes per distinct
// spilled state, though key "dup" is claimed, revived and resealed every
// level — and every spilled id revives through it.
func TestSpillSingleRun(t *testing.T) {
	st := newVisitedSet(Options{MemoryBudgetBytes: 1}, nil)
	defer st.Close()

	ids := map[string]int{}
	nextID := 0
	for level := 0; level < 10; level++ {
		keys := []string{fmt.Sprintf("key-%d", level), "dup"}
		var misses []uint64
		for _, key := range keys {
			misses = append(misses, fingerprint([]byte(key)))
		}
		if err := st.ResolveLevel(misses, nil); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			id, isNew := st.own(fingerprint([]byte(key)), []byte(key), nextID)
			if isNew {
				nextID++
			}
			if prev, ok := ids[key]; ok && prev != id {
				t.Fatalf("level %d: %s claimed as id %d, spilled as %d", level, key, id, prev)
			}
			ids[key] = id
		}
		if err := st.EndLevel(); err != nil {
			t.Fatal(err)
		}

		ents, err := os.ReadDir(st.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || filepath.Join(st.dir, ents[0].Name()) != st.run {
			t.Fatalf("level %d: spill directory holds %d files, want the one run %s", level, len(ents), st.run)
		}
		var recs []spillRec
		if err := readRecsFile(OSFS, st.run, func(r spillRec) bool { recs = append(recs, r); return true }); err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(ids) {
			t.Fatalf("level %d: the run holds %d records, want one per distinct state (%d)", level, len(recs), len(ids))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i-1].fp >= recs[i].fp {
				t.Fatalf("level %d: run records %d and %d are out of order or repeated", level, i-1, i)
			}
		}
		if st.sealed != int64(len(ids)*spillRecSize) {
			t.Fatalf("level %d: sealed = %d bytes, want %d", level, st.sealed, len(ids)*spillRecSize)
		}
		misses = misses[:0]
		for key := range ids {
			misses = append(misses, fingerprint([]byte(key)))
		}
		if err := st.ResolveLevel(misses, nil); err != nil {
			t.Fatal(err)
		}
		for key, want := range ids {
			if got, ok := st.probe(fingerprint([]byte(key)), []byte(key)); !ok || got != want {
				t.Fatalf("level %d: key %s revived as (%d, %t), want id %d", level, key, got, ok, want)
			}
		}
	}
}

// FuzzSpillRun feeds arbitrary bytes to the run reader as a run file: it
// never panics and fails exactly when the file ends in a torn record. A
// valid, sorted run merged by writeRun with a set of resident records gives
// their sorted union, each (fingerprint, id) pair once.
func FuzzSpillRun(f *testing.F) {
	rec := func(fp uint64, id int64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, fp), uint64(id))
	}
	f.Add([]byte{}, []byte{})
	f.Add(append(rec(1, 10), rec(5, 50)...), binary.LittleEndian.AppendUint64(nil, 5))
	f.Add(append(rec(0, 0), rec(0, 7)...), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(rec(3, 3)[:13], []byte{})
	f.Fuzz(func(t *testing.T, run, resident []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "run-in")
		if err := os.WriteFile(path, run, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []spillRec
		err := readRecsFile(OSFS, path, func(r spillRec) bool { recs = append(recs, r); return true })
		if torn := len(run)%spillRecSize != 0; torn != (err != nil) || (torn && !errors.Is(err, errReadRun)) {
			t.Fatalf("%d-byte run: err = %v, want an errReadRun exactly on a torn tail", len(run), err)
		}
		if len(recs) != len(run)/spillRecSize {
			t.Fatalf("%d-byte run decoded %d records", len(run), len(recs))
		}
		if err != nil || !slices.IsSortedFunc(recs, compareRecs) {
			return
		}

		var res []spillRec // sorted, each pair once, like residentRecs; ids 0 and 8 recur
		for i := 0; i+8 <= len(resident); i += 8 {
			res = append(res, spillRec{fp: binary.LittleEndian.Uint64(resident[i:]), id: int64(i % 16)})
		}
		slices.SortFunc(res, compareRecs)
		res = slices.Compact(res)
		want := append(slices.Clone(res), recs...)
		slices.SortFunc(want, compareRecs)
		want = slices.Compact(want)

		vs := &visitedSet{fsys: OSFS, run: path}
		out := filepath.Join(dir, "run-out")
		n, err := vs.writeRun(out, res)
		if err != nil {
			t.Fatal(err)
		}
		var got []spillRec
		if err := readRecsFile(OSFS, out, func(r spillRec) bool { got = append(got, r); return true }); err != nil {
			t.Fatal(err)
		}
		if int(n) != len(want) || !slices.Equal(got, want) {
			t.Fatalf("merged %d records %v, want the %d distinct pairs %v", n, got, len(want), want)
		}
	})
}

// TestClaimDoesNotAllocate pins the claim pass's common case: a state
// already present — nine successors in ten on a small-state spec — is
// found without allocating, keyed or not.
func TestClaimDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, nil)
		encs := make([][]byte, 4096)
		for i := range encs {
			encs[i] = binary.LittleEndian.AppendUint64(nil, uint64(i))
			vs.own(fingerprint(encs[i]), encs[i], i)
		}
		avg := testing.AllocsPerRun(10, func() {
			for i, enc := range encs {
				vs.own(fingerprint(enc), enc, -1-i)
			}
		})
		if avg != 0 {
			t.Fatalf("keyed=%t: owning %d present states allocates %.1f times, want 0", keyed, len(encs), avg)
		}
	}
}

// TestLevelFrontierRecycles pins the double-buffering contract: the slice
// handed out by NextLevel stays valid while the next level accumulates.
func TestLevelFrontierRecycles(t *testing.T) {
	var f levelFrontier
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
