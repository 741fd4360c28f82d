package tla

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// TestArenaRoundTrip is the arena's core property test: every encoding
// added comes back byte-identical, across segment boundaries and through
// forced disk spills.
func TestArenaRoundTrip(t *testing.T) {
	for _, budget := range []int64{0, 1, 1 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			a := newStateArena(budget, nil, nil)
			defer a.close()
			rng := rand.New(rand.NewSource(1))
			var want [][]byte
			for i := 0; i < 500; i++ {
				enc := make([]byte, rng.Intn(64)+1)
				rng.Read(enc)
				want = append(want, enc)
				a.add(enc, i-1, uint16(i%3), i)
			}
			if a.len() != len(want) {
				t.Fatalf("arena holds %d records, want %d", a.len(), len(want))
			}
			// One buffer reused across reads: encoding copies, so earlier
			// results must never be clobbered by later reads.
			var buf []byte
			for id, enc := range want {
				var err error
				buf, err = a.encoding(id, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				got := buf
				if !bytes.Equal(got, enc) {
					t.Fatalf("budget=%d id=%d: round-trip %x != original %x", budget, id, got, enc)
				}
				m := *a.rec(id)
				if int(m.parent) != id-1 || int(m.depth) != id || int(m.act) != id%3 {
					t.Fatalf("id=%d meta = %+v", id, m)
				}
			}
		})
	}
}

// TestArenaOversizedEncoding pins the dedicated-segment path: an encoding
// larger than a whole segment still round-trips, resident and spilled.
func TestArenaOversizedEncoding(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		a := newStateArena(budget, nil, nil)
		big := bytes.Repeat([]byte{0xAB}, arenaSegBytes+17)
		a.add([]byte("small"), -1, 0, 0)
		a.add(big, 0, 1, 1)
		got, err := a.encoding(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, big) {
			t.Fatalf("budget=%d: oversized encoding corrupted (len %d vs %d)", budget, len(got), len(big))
		}
		a.close()
	}
}

// TestArenaFlushLinear: at a one-byte budget every record is sealed into
// its own segment and spilled at once, so a run flushes once per record.
// Each flush must start past the segments already spilled — rescanning
// the lists from index 0 makes this test quadratic, tens of seconds
// instead of well under one. Every encoding and edge must read back.
func TestArenaFlushLinear(t *testing.T) {
	const n = 100_000
	a := newStateArena(1, nil, nil)
	defer a.close()
	var enc [4]byte
	for i := range n {
		binary.LittleEndian.PutUint32(enc[:], uint32(i))
		a.add(enc[:], i-1, 0, i)
		if i%10 == 0 {
			a.addEdge(i, 1, i+1)
		}
	}
	if len(a.segs) != n || a.segsOut != n || a.edgeSegsOut != len(a.edgeSegs) || a.residentBytes() != 0 {
		t.Fatalf("%d segments, %d known spilled, %d of %d edge segments known spilled, %d bytes resident; want one spilled segment per record and nothing resident",
			len(a.segs), a.segsOut, a.edgeSegsOut, len(a.edgeSegs), a.residentBytes())
	}
	var buf []byte
	for id := range n {
		var err error
		if buf, err = a.encoding(id, buf[:0]); err != nil {
			t.Fatal(err)
		}
		if len(buf) != 4 || binary.LittleEndian.Uint32(buf) != uint32(id) {
			t.Fatalf("id=%d: read back %x", id, buf)
		}
	}
	edges := 0
	if err := a.forEachEdge(func(from int, act uint16, to int) error {
		if from != 10*edges || act != 1 || to != from+1 {
			return fmt.Errorf("edge %d = (%d, %d, %d)", edges, from, act, to)
		}
		edges++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if edges != n/10 {
		t.Fatalf("read back %d edges, want %d", edges, n/10)
	}
}

// TestArenaSpillFileLifecycle pins the disk-backing contract: a
// one-byte budget spills every segment, the spill file exists during the
// run, and close removes it.
func TestArenaSpillFileLifecycle(t *testing.T) {
	a := newStateArena(1, nil, nil)
	a.add([]byte("abc"), -1, 0, 0)
	if a.file == nil {
		t.Fatal("one-byte budget did not open a spill file")
	}
	name := a.file.Name()
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("spill file missing during run: %v", err)
	}
	if !a.segs[0].spilled {
		t.Fatal("segment not marked spilled under a one-byte budget")
	}
	if err := a.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("spill file survived close: stat err = %v", err)
	}
	// Closing a never-spilled arena is a no-op.
	if err := newStateArena(0, nil, nil).close(); err != nil {
		t.Fatal(err)
	}
}

// bigBudget is a memory budget no test reaches: it selects arena retention
// and spills nothing.
const bigBudget = 1 << 40

// assertArenaAgrees cross-checks arena retention (a memory budget) against
// live retention: identical counters and — where both report traces — a
// byte-identical trace, since the decoded encodings are injective.
func assertArenaAgrees[S State](t *testing.T, label string, spec *Spec[S], opts Options) {
	t.Helper()
	want, wantErr := Check(spec, opts)
	for _, budget := range []int64{bigBudget, 1} {
		aOpts := opts
		aOpts.MemoryBudgetBytes = budget
		got, gotErr := Check(spec, aOpts)
		desc := fmt.Sprintf("%s/arena-budget=%d", label, budget)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err = %v, want %v", desc, gotErr, wantErr)
		}
		if got.Distinct != want.Distinct || got.Transitions != want.Transitions ||
			got.Depth != want.Depth || got.Terminal != want.Terminal ||
			got.ConstraintCuts != want.ConstraintCuts {
			t.Fatalf("%s: counters differ:\n got  %+v\n want %+v", desc, got, want)
		}
		if (want.Violation == nil) != (got.Violation == nil) {
			t.Fatalf("%s: violation = %v, want %v", desc, got.Violation, want.Violation)
		}
		if want.Violation != nil {
			wv, gv := want.Violation, got.Violation
			if gv.Invariant != wv.Invariant {
				t.Fatalf("%s: invariant %s, want %s", desc, gv.Invariant, wv.Invariant)
			}
			wk, gk := traceKeys(wv.Trace), traceKeys(gv.Trace)
			if len(wk) != len(gk) {
				t.Fatalf("%s: trace lengths differ: %d vs %d", desc, len(gk), len(wk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Fatalf("%s: decoded trace diverges at %d: %s vs %s", desc, i, gk[i], wk[i])
				}
			}
		}
	}
}

// TestArenaMatchesLiveRetention is the engine-level arena cross-check:
// level-synchronized explorations with encoded retention (resident and
// forced-to-disk) must be observationally identical to live retention —
// counters, verdicts, and decoded counterexample traces — at several
// worker counts, on the hand-written and randomized spec families.
func TestArenaMatchesLiveRetention(t *testing.T) {
	for _, w := range []int{1, 4} {
		assertArenaAgrees(t, fmt.Sprintf("counter/workers=%d", w), counterSpec(12), Options{Workers: w})
	}

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
	assertArenaAgrees(t, "counter-violation", viol, Options{})
	assertArenaAgrees(t, "counter-bounded", counterSpec(40), Options{MaxStates: 100})

	for seed := int64(0); seed < 8; seed++ {
		assertArenaAgrees(t, fmt.Sprintf("random-%d", seed), randomSpec(seed), Options{Workers: 4})
	}
}

// TestArenaSymmetryTrace pins the exact-decode property under symmetry
// reduction: the arena stores plain (not orbit-canonical) encodings, so
// the decoded counterexample is byte-identical to live retention's even
// though the visited set dedups on orbit representatives.
func TestArenaSymmetryTrace(t *testing.T) {
	mk := func() *Spec[binState] {
		spec := binSpecVisitor(20)
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow7",
			Check: func(s binState) error {
				if s.A+s.B >= 7 {
					return errors.New("sum reached 7")
				}
				return nil
			},
		}}
		return spec
	}
	want, wantErr := Check(mk(), Options{})
	got, gotErr := Check(mk(), Options{MemoryBudgetBytes: bigBudget})
	if !errors.Is(wantErr, ErrInvariantViolated) || !errors.Is(gotErr, ErrInvariantViolated) {
		t.Fatalf("verdicts: live=%v arena=%v, want violations", wantErr, gotErr)
	}
	wk, gk := traceKeys(want.Violation.Trace), traceKeys(got.Violation.Trace)
	if !reflect.DeepEqual(gk, wk) {
		t.Fatalf("decoded trace differs from live retention under symmetry:\n got  %v\n want %v", gk, wk)
	}
	if !reflect.DeepEqual(got.Violation.TraceActs, want.Violation.TraceActs) {
		t.Fatalf("decoded acts differ: %v vs %v", got.Violation.TraceActs, want.Violation.TraceActs)
	}
	assertTraceIsBehaviour(t, "arena-symmetry", mk(), got.Violation)
}

// assertTraceIsBehaviour replays a reported counterexample against the
// spec: Trace[0] must be an initial state, every step must be producible
// by the recorded action, and the final state must violate the named
// invariant: a real behaviour, whatever the retention mode.
func assertTraceIsBehaviour[S State](t *testing.T, label string, spec *Spec[S], v *Violation[S]) {
	t.Helper()
	if v == nil || len(v.Trace) == 0 {
		t.Fatalf("%s: violation without a trace", label)
	}
	isInit := false
	for _, s := range spec.Init() {
		if s.Key() == v.Trace[0].Key() {
			isInit = true
			break
		}
	}
	if !isInit {
		t.Fatalf("%s: trace does not start in an initial state: %s", label, v.Trace[0].Key())
	}
	for i := 1; i < len(v.Trace); i++ {
		actName := v.TraceActs[i-1]
		found := false
		for _, a := range spec.Actions {
			if a.Name != actName {
				continue
			}
			for _, succ := range a.Next(v.Trace[i-1]) {
				if succ.Key() == v.Trace[i].Key() {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("%s: step %d: %s does not lead from %s to %s", label, i, actName, v.Trace[i-1].Key(), v.Trace[i].Key())
		}
	}
	last := v.Trace[len(v.Trace)-1]
	violated := false
	for _, inv := range spec.Invariants {
		if inv.Name == v.Invariant {
			violated = inv.Check(last) != nil
		}
	}
	if !violated {
		t.Fatalf("%s: final trace state does not violate %s: %s", label, v.Invariant, last.Key())
	}
}
