package tla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// assertResultsEqual fails the test unless two checking runs produced
// byte-identical observable results: counters, recorded graph, and
// violation counterexample.
func assertResultsEqual[S State](t *testing.T, label string, want, got *Result[S], wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil && errors.Is(wantErr, ErrStateLimit) != errors.Is(gotErr, ErrStateLimit) {
		t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
	}
	if want == nil || got == nil {
		if (want == nil) != (got == nil) {
			t.Fatalf("%s: result nilness differs: %v vs %v", label, want, got)
		}
		return
	}
	if got.Distinct != want.Distinct || got.Transitions != want.Transitions ||
		got.Depth != want.Depth || got.Terminal != want.Terminal ||
		got.ConstraintCuts != want.ConstraintCuts {
		t.Fatalf("%s: counters differ:\n got  distinct=%d transitions=%d depth=%d terminal=%d cuts=%d\n want distinct=%d transitions=%d depth=%d terminal=%d cuts=%d",
			label,
			got.Distinct, got.Transitions, got.Depth, got.Terminal, got.ConstraintCuts,
			want.Distinct, want.Transitions, want.Depth, want.Terminal, want.ConstraintCuts)
	}
	if (want.Violation == nil) != (got.Violation == nil) {
		t.Fatalf("%s: violation = %v, want %v", label, got.Violation, want.Violation)
	}
	if want.Violation != nil {
		wv, gv := want.Violation, got.Violation
		if gv.Invariant != wv.Invariant || gv.Err.Error() != wv.Err.Error() {
			t.Fatalf("%s: violation %s/%v, want %s/%v", label, gv.Invariant, gv.Err, wv.Invariant, wv.Err)
		}
		if !reflect.DeepEqual(traceKeys(gv.Trace), traceKeys(wv.Trace)) {
			t.Fatalf("%s: violation trace %v, want %v", label, traceKeys(gv.Trace), traceKeys(wv.Trace))
		}
		if !reflect.DeepEqual(gv.TraceActs, wv.TraceActs) {
			t.Fatalf("%s: violation acts %v, want %v", label, gv.TraceActs, wv.TraceActs)
		}
	}
	if (want.Graph == nil) != (got.Graph == nil) {
		t.Fatalf("%s: graph nilness differs", label)
	}
	if failedWithGraph(want, wantErr) || failedWithGraph(got, gotErr) {
		t.Fatalf("%s: a run that failed without a violation returned a graph (err %v / %v)", label, wantErr, gotErr)
	}
	if want.Graph != nil {
		if gk, wk := graphKeys(got.Graph), graphKeys(want.Graph); !reflect.DeepEqual(gk, wk) {
			t.Fatalf("%s: graph keys differ:\n got  %v\n want %v", label, gk, wk)
		}
		if ge, we := graphEdges(t, got.Graph), graphEdges(t, want.Graph); !reflect.DeepEqual(ge, we) {
			t.Fatalf("%s: graph edges differ (got %d, want %d)", label, len(ge), len(we))
		}
		if !reflect.DeepEqual(got.Graph.Inits, want.Graph.Inits) {
			t.Fatalf("%s: graph inits %v, want %v", label, got.Graph.Inits, want.Graph.Inits)
		}
	}
}

// failedWithGraph reports a breach of the failed-run rule: a run that
// ended in an error other than a violation must return no graph.
func failedWithGraph[S State](res *Result[S], err error) bool {
	return err != nil && res.Violation == nil && res.Graph != nil
}

// graphKeys lists the keys of g's states in id order.
func graphKeys[S State](g *Graph[S]) []string {
	out := make([]string, g.Len())
	for id := range out {
		out[id] = g.KeyAt(id)
	}
	return out
}

// graphEdges lists g's edges in recorded order.
func graphEdges[S State](t *testing.T, g *Graph[S]) []Edge {
	t.Helper()
	var out []Edge
	if err := g.ForEachEdge(func(e Edge) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatalf("ForEachEdge: %v", err)
	}
	return out
}

func traceKeys[S State](trace []S) []string {
	out := make([]string, len(trace))
	for i, s := range trace {
		out[i] = s.Key()
	}
	return out
}

func crossCheck[S State](t *testing.T, label string, spec *Spec[S], opts Options) {
	t.Helper()
	seqOpts := opts
	seqOpts.Workers = 1
	want, wantErr := Check(spec, seqOpts)
	for _, w := range []int{2, 3, 8} {
		popts := opts
		popts.Workers = w
		got, gotErr := Check(spec, popts)
		assertResultsEqual(t, fmt.Sprintf("%s/workers=%d", label, w), want, got, wantErr, gotErr)
	}
}

func TestParallelMatchesSequentialCounter(t *testing.T) {
	for _, max := range []int{0, 1, 2, 5, 20} {
		crossCheck(t, fmt.Sprintf("counter-%d", max), counterSpec(max), Options{})
		crossCheck(t, fmt.Sprintf("counter-%d-graph", max), counterSpec(max), Options{RecordGraph: true})
		crossCheck(t, fmt.Sprintf("counter-%d-cf", max), counterSpec(max), Options{RecordGraph: true, CollisionFree: true})
	}
}

func TestParallelMatchesSequentialBounds(t *testing.T) {
	crossCheck(t, "maxstates", counterSpec(1000), Options{MaxStates: 50, RecordGraph: true})
	constrained := counterSpec(100)
	constrained.Constraint = func(s counterState) bool { return s.A <= 4 }
	crossCheck(t, "constraint", constrained, Options{RecordGraph: true})
}

func TestParallelMatchesSequentialViolation(t *testing.T) {
	spec := counterSpec(8)
	spec.Invariants = append(spec.Invariants, Invariant[counterState]{
		Name: "ANeverFive",
		Check: func(s counterState) error {
			if s.A == 5 {
				return errors.New("A reached 5")
			}
			return nil
		},
	})
	crossCheck(t, "violation", spec, Options{RecordGraph: true})

	// The parallel path must preserve the shortest-counterexample
	// guarantee on its own, not just match the oracle.
	res, err := Check(spec, Options{Workers: 4})
	var v *Violation[counterState]
	if !errors.As(err, &v) || res.Violation != v {
		t.Fatalf("expected violation, got %v", err)
	}
	if len(v.Trace) != 6 {
		t.Fatalf("trace length = %d, want 6 (shortest)", len(v.Trace))
	}
	for _, a := range v.TraceActs {
		if a != "IncA" {
			t.Fatalf("counterexample should be all IncA, got %v", v.TraceActs)
		}
	}
}

// randState is an opaque integer state for the randomized cross-check,
// encoded as four big-endian bytes.
type randState uint32

func (s randState) Key() string { return fmt.Sprintf("%d", uint32(s)) }

func (s randState) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint32(buf, uint32(s))
}

func (randState) DecodeBinary(enc []byte) (randState, error) {
	if len(enc) != 4 {
		return 0, fmt.Errorf("randState: decode: length %d, want 4", len(enc))
	}
	return randState(binary.BigEndian.Uint32(enc)), nil
}

// mix is a deterministic integer hash used to derive pseudo-random yet
// reproducible transition relations.
func mix(vals ...uint32) uint32 {
	h := uint32(2166136261)
	for _, v := range vals {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 16777619
		}
	}
	return h
}

// randomSpec builds a reproducible spec over a bounded integer space whose
// transition structure is derived from the seed: a few actions, each state
// having zero to three successors per action, an occasional constraint,
// and an invariant that trips on a seed-chosen subset of states.
func randomSpec(seed int64) *Spec[randState] {
	rng := rand.New(rand.NewSource(seed))
	space := uint32(rng.Intn(4000) + 100)
	nActions := rng.Intn(4) + 1
	nInits := rng.Intn(3) + 1
	salt := rng.Uint32()
	badState := uint32(rng.Intn(int(space) * 4)) // often unreachable
	withConstraint := rng.Intn(2) == 0

	spec := &Spec[randState]{
		Name: fmt.Sprintf("random-%d", seed),
		Init: func() []randState {
			out := make([]randState, nInits)
			for i := range out {
				out[i] = randState(mix(salt, 0xdead, uint32(i)) % space)
			}
			return out
		},
		Invariants: []Invariant[randState]{{
			Name: "NotBad",
			Check: func(s randState) error {
				if uint32(s) == badState {
					return fmt.Errorf("reached bad state %d", badState)
				}
				return nil
			},
		}},
	}
	for a := 0; a < nActions; a++ {
		a := a
		spec.Actions = append(spec.Actions, Action[randState]{
			Name: fmt.Sprintf("Act%d", a),
			Next: func(s randState) []randState {
				h := mix(salt, uint32(a), uint32(s))
				n := int(h % 4) // 0..3 successors
				out := make([]randState, 0, n)
				for i := 0; i < n; i++ {
					out = append(out, randState(mix(salt, uint32(a), uint32(s), uint32(i+1))%space))
				}
				return out
			},
		})
	}
	if withConstraint {
		spec.Constraint = func(s randState) bool { return uint32(s)%17 != 3 }
	}
	return spec
}

// TestParallelRandomizedCrossCheck is the randomized oracle test: across
// many derived specs — different branching, init sets, constraints, and
// reachable or unreachable violations — the parallel checker must agree
// with the sequential one on every observable output.
func TestParallelRandomizedCrossCheck(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		spec := randomSpec(seed)
		crossCheck(t, spec.Name, spec, Options{})
		crossCheck(t, spec.Name+"-graph", spec, Options{RecordGraph: true})
		crossCheck(t, spec.Name+"-bounded", spec, Options{MaxStates: 500, RecordGraph: true})
	}
}

// TestFingerprintCollisions substitutes deliberately weak fingerprint
// functions — every state hashed to 0, every state to one non-zero value,
// and a hash with two values — and requires keyed deduplication
// (CollisionFree, at any worker count, and under a one-byte budget, which
// spills every level's records and restores the colliding states by their
// keys) to find exactly what a textbook BFS finds: colliding states share
// a fingerprint chain, never a slot. Fingerprint mode, which trusts the
// fingerprint, merges every state of one fingerprint into the first.
func TestFingerprintCollisions(t *testing.T) {
	weak := []struct {
		name   string
		values int // the fingerprints the function can return
		fp     func([]byte) uint64
	}{
		{"zero", 1, func([]byte) uint64 { return 0 }},
		{"constant", 1, func([]byte) uint64 { return 0x9e3779b97f4a7c15 }},
		{"two-valued", 2, func(b []byte) uint64 { return fnv1a64(b) & (1 << 40) }},
	}
	specs := []latticeSpec{
		{name: "counter-5", check: func(t *testing.T, opts Options, _ bool) latticeRun {
			return runLattice(t, func(bool) *Spec[counterState] { return counterSpec(5) }, opts, false)
		}, ref: func(bool) referenceRun { return referenceBFS(counterSpec(5), 0) }},
		latticeRandom(22, false), // constraint cuts
		latticeGrid(3, 3, 2),     // a violation mid-level
	}
	orig := fingerprint
	defer func() { fingerprint = orig }()
	for _, w := range weak {
		fingerprint = w.fp
		for _, ls := range specs {
			ref := ls.ref(false)
			for _, opts := range []Options{
				{Workers: 1, CollisionFree: true},
				{Workers: 2, CollisionFree: true},
				{Workers: 4, CollisionFree: true},
				{Workers: 1, CollisionFree: true, MemoryBudgetBytes: 1},
				{Workers: 2, CollisionFree: true, MemoryBudgetBytes: 1},
			} {
				opts.RecordGraph = true
				label := fmt.Sprintf("%s/%s/workers=%d/budget=%d", w.name, ls.name, opts.Workers, opts.MemoryBudgetBytes)
				got := ls.check(t, opts, false)
				if got.unsound != "" {
					t.Fatalf("%s: recorded graph: %s", label, got.unsound)
				}
				if d := referenceMismatch(ref, got); d != "" {
					t.Fatalf("%s: vs reference BFS: %s", label, d)
				}
			}
			merged := ls.check(t, Options{Workers: 2}, false)
			if merged.res == nil || merged.res.Distinct > w.values {
				t.Fatalf("%s/%s: fingerprint mode kept %v distinct states under %d fingerprint values; it must merge them",
					w.name, ls.name, merged.res, w.values)
			}
		}
	}
}

// TestWorkersDoNotChooseDedup pins that the worker count is only a speed
// setting: under a fingerprint function with two values, one worker
// merges colliding states exactly as two workers do, and CollisionFree
// makes both find the textbook BFS's count.
func TestWorkersDoNotChooseDedup(t *testing.T) {
	orig := fingerprint
	defer func() { fingerprint = orig }()
	fingerprint = func(b []byte) uint64 { return fnv1a64(b) & (1 << 40) }
	spec := gridSpec(3, 3, -1)
	ref := referenceBFS(spec, 0)
	for _, exact := range []bool{false, true} {
		var distinct [2]int
		for i, w := range []int{1, 2} {
			res, err := Check(spec, Options{Workers: w, CollisionFree: exact})
			if err != nil {
				t.Fatal(err)
			}
			distinct[i] = res.Distinct
		}
		switch {
		case distinct[0] != distinct[1]:
			t.Fatalf("CollisionFree=%t: Workers 1 found %d states, Workers 2 %d", exact, distinct[0], distinct[1])
		case exact && distinct[0] != ref.distinct:
			t.Fatalf("CollisionFree: %d states, the reference BFS %d", distinct[0], ref.distinct)
		case !exact && distinct[0] > 2:
			t.Fatalf("fingerprint mode kept %d states under 2 fingerprint values; it must merge them", distinct[0])
		}
	}
}

func TestParallelNoInit(t *testing.T) {
	if _, err := Check(&Spec[counterState]{Name: "empty"}, Options{Workers: 4}); err == nil {
		t.Fatal("expected error for spec without Init")
	}
}

// TestParallelTraceMatchesSequential cross-checks the parallel frontier
// advance of the trace checker against the sequential one, including
// partial observations, stuttering, and divergence.
func TestParallelTraceMatchesSequential(t *testing.T) {
	spec := counterSpec(6)
	traces := map[string][]Observation[counterState]{
		"full": {
			FullObservation[counterState]{counterState{0, 0}},
			FullObservation[counterState]{counterState{1, 0}},
			FullObservation[counterState]{counterState{1, 1}},
			FullObservation[counterState]{counterState{2, 1}},
		},
		"partial": {
			partialObs{a: 0},
			partialObs{a: 1},
			partialObs{a: 1, atLeast: true},
			partialObs{a: 2, atLeast: true},
			partialObs{a: 2, atLeast: true},
		},
		"diverges": {
			FullObservation[counterState]{counterState{0, 0}},
			FullObservation[counterState]{counterState{2, 0}},
		},
		"badInit": {
			FullObservation[counterState]{counterState{3, 3}},
		},
	}
	for name, trace := range traces {
		for _, stutter := range []bool{false, true} {
			want, wantErr := CheckTraceWith(spec, trace, TraceOptions{Workers: 1, Stuttering: stutter})
			for _, w := range []int{2, 4, 8} {
				got, gotErr := CheckTraceWith(spec, trace, TraceOptions{Workers: w, Stuttering: stutter})
				label := fmt.Sprintf("%s/stutter=%v/workers=%d", name, stutter, w)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got  %+v\n want %+v", label, got, want)
				}
			}
		}
	}
}
