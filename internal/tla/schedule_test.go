package tla

import (
	"errors"
	"fmt"
	"testing"
)

// assertWorkStealAgrees is the work-stealing cross-check: against a
// level-sync run of the same spec and options, a work-stealing run must
// produce the same verdict (violation-ness via errors.Is, state-limit-ness)
// and — on runs that complete — the same distinct, transition, terminal
// and constraint-cut counts. Depth and order are exempt by contract:
// work-stealing reports discovery depths, not BFS depths.
func assertWorkStealAgrees[S State](t *testing.T, label string, spec *Spec[S], opts Options) {
	t.Helper()
	lsOpts := opts
	lsOpts.Schedule = ScheduleLevelSync
	want, wantErr := Check(spec, lsOpts)
	for _, w := range []int{1, 2, 4, 8} {
		wsOpts := opts
		wsOpts.Schedule = ScheduleWorkSteal
		wsOpts.Workers = w
		got, gotErr := Check(spec, wsOpts)
		desc := fmt.Sprintf("%s/workers=%d", label, w)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: verdicts differ: levelsync err=%v worksteal err=%v", desc, wantErr, gotErr)
		}
		if errors.Is(wantErr, ErrInvariantViolated) != errors.Is(gotErr, ErrInvariantViolated) {
			t.Fatalf("%s: violation-ness differs: levelsync err=%v worksteal err=%v", desc, wantErr, gotErr)
		}
		if errors.Is(wantErr, ErrStateLimit) != errors.Is(gotErr, ErrStateLimit) {
			t.Fatalf("%s: limit-ness differs: levelsync err=%v worksteal err=%v", desc, wantErr, gotErr)
		}
		if wantErr != nil {
			// An aborted exploration's counters depend on when the abort
			// landed; only the verdict is comparable. A violation's trace
			// must still be a real behaviour ending in the violation.
			if errors.Is(gotErr, ErrInvariantViolated) {
				assertTraceIsBehaviour(t, desc, spec, got.Violation)
			}
			continue
		}
		if got.Distinct != want.Distinct || got.Transitions != want.Transitions ||
			got.Terminal != want.Terminal || got.ConstraintCuts != want.ConstraintCuts {
			t.Fatalf("%s: counters differ:\n got  distinct=%d transitions=%d terminal=%d cuts=%d\n want distinct=%d transitions=%d terminal=%d cuts=%d",
				desc,
				got.Distinct, got.Transitions, got.Terminal, got.ConstraintCuts,
				want.Distinct, want.Transitions, want.Terminal, want.ConstraintCuts)
		}
		if got.Depth < want.Depth {
			t.Fatalf("%s: work-steal depth %d below the BFS depth %d — discovery depth must be an upper bound", desc, got.Depth, want.Depth)
		}
	}
}

// assertTraceIsBehaviour replays a reported counterexample against the
// spec: Trace[0] must be an initial state, every step must be producible
// by the recorded action, and the final state must violate the named
// invariant. This is the work-stealing counterexample contract — a real
// trace, though not necessarily a shortest one.
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

func TestWorkStealMatchesLevelSyncCounter(t *testing.T) {
	for _, max := range []int{0, 1, 2, 5, 20} {
		assertWorkStealAgrees(t, fmt.Sprintf("counter-%d", max), counterSpec(max), Options{})
		assertWorkStealAgrees(t, fmt.Sprintf("counter-%d-cf", max), counterSpec(max), Options{CollisionFree: true})
	}
	constrained := counterSpec(100)
	constrained.Constraint = func(s counterState) bool { return s.A <= 4 }
	assertWorkStealAgrees(t, "counter-constraint", constrained, Options{})
}

// TestWorkStealMatchesLevelSyncRandomized is the randomized oracle test
// for the barrier-free loop: across derived specs with different
// branching, init sets, constraints, and reachable or unreachable
// violations, work-stealing must agree with level-sync on every verdict
// and clean-run counter.
func TestWorkStealMatchesLevelSyncRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		spec := randomSpec(seed)
		assertWorkStealAgrees(t, spec.Name, spec, Options{})
	}
}

func TestWorkStealViolation(t *testing.T) {
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
	assertWorkStealAgrees(t, "violation", spec, Options{})

	// The trace is a real behaviour but need not be shortest; it must
	// still recover through errors.As like every violation.
	res, err := Check(spec, Options{Workers: 4, Schedule: ScheduleWorkSteal})
	var v *Violation[counterState]
	if !errors.As(err, &v) || res.Violation != v {
		t.Fatalf("expected violation, got %v", err)
	}
	if !errors.Is(err, ErrInvariantViolated) {
		t.Fatalf("violation does not match ErrInvariantViolated: %v", err)
	}
	assertTraceIsBehaviour(t, "worksteal-violation", spec, v)
}

func TestWorkStealInitViolation(t *testing.T) {
	spec := counterSpec(4)
	spec.Invariants = append(spec.Invariants, Invariant[counterState]{
		Name:  "NoInit",
		Check: func(s counterState) error { return errors.New("init rejected") },
	})
	res, err := Check(spec, Options{Workers: 4, Schedule: ScheduleWorkSteal})
	if !errors.Is(err, ErrInvariantViolated) {
		t.Fatalf("err = %v, want invariant violation at the initial state", err)
	}
	if len(res.Violation.Trace) != 1 {
		t.Fatalf("init violation trace length = %d, want 1", len(res.Violation.Trace))
	}
}

func TestWorkStealStateLimit(t *testing.T) {
	res, err := Check(counterSpec(1000), Options{Workers: 4, Schedule: ScheduleWorkSteal, MaxStates: 50})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if res.Distinct != 50 {
		t.Fatalf("distinct at the limit = %d, want exactly 50", res.Distinct)
	}
}

// TestWorkStealGraph pins graph recording under work-stealing: the
// recorded graph has the same states (as a set), the same edge multiset,
// and the same init set as the level-sync one — only the order is
// schedule-dependent.
func TestWorkStealGraph(t *testing.T) {
	want, err := Check(counterSpec(10), Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Check(counterSpec(10), Options{RecordGraph: true, Workers: 4, Schedule: ScheduleWorkSteal})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Graph.states) != len(want.Graph.states) || len(got.Graph.edges) != len(want.Graph.edges) {
		t.Fatalf("graph sizes differ: got %d states/%d edges, want %d/%d",
			len(got.Graph.states), len(got.Graph.edges), len(want.Graph.states), len(want.Graph.edges))
	}
	keyOf := func(g *Graph[counterState], id int) string { return g.keys[id] }
	wantEdges := map[string]int{}
	for _, e := range want.Graph.edges {
		wantEdges[keyOf(want.Graph, e.From)+"|"+e.Action+"|"+keyOf(want.Graph, e.To)]++
	}
	for _, e := range got.Graph.edges {
		k := keyOf(got.Graph, e.From) + "|" + e.Action + "|" + keyOf(got.Graph, e.To)
		wantEdges[k]--
		if wantEdges[k] < 0 {
			t.Fatalf("work-steal graph has extra edge %s", k)
		}
	}
	for k, n := range wantEdges {
		if n != 0 {
			t.Fatalf("work-steal graph is missing edge %s", k)
		}
	}
	if len(got.Graph.Inits) != len(want.Graph.Inits) {
		t.Fatalf("inits differ: %d vs %d", len(got.Graph.Inits), len(want.Graph.Inits))
	}
	// CheckEventuallyWithin is order-independent; it must agree on the
	// recorded graph regardless of schedule.
	p := func(s counterState) bool { return s.A == 10 && s.B == 10 }
	if w, g := CheckEventuallyWithin(want.Graph, p, nil), CheckEventuallyWithin(got.Graph, p, nil); (w == -1) != (g == -1) {
		t.Fatalf("CheckEventuallyWithin disagrees across schedules: levelsync=%d worksteal=%d", w, g)
	}
}

// TestWorkStealFallsBack pins the documented level-sync fallbacks: depth
// bounds and the spilling visited store need level semantics, so Check
// must run them level-synchronized — observable through the exact
// level-sync results (which work-stealing could only reproduce by
// accident, e.g. the exact BFS Depth on a depth-bounded run).
func TestWorkStealFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"maxdepth", Options{Schedule: ScheduleWorkSteal, MaxDepth: 3, RecordGraph: true}},
		{"membudget", Options{Schedule: ScheduleWorkSteal, MemoryBudgetBytes: 1, RecordGraph: true}},
	} {
		if got := tc.opts.effectiveSchedule(); got != ScheduleLevelSync {
			t.Fatalf("%s: effectiveSchedule = %v, want the level-sync fallback", tc.name, got)
		}
		lsOpts := tc.opts
		lsOpts.Schedule = ScheduleLevelSync
		want, wantErr := Check(counterSpec(12), lsOpts)
		got, gotErr := Check(counterSpec(12), tc.opts)
		assertResultsEqual(t, "fallback-"+tc.name, want, got, wantErr, gotErr)
	}
	if got := (Options{Schedule: ScheduleWorkSteal}).effectiveSchedule(); got != ScheduleWorkSteal {
		t.Fatalf("unconstrained work-steal resolved to %v", got)
	}
}

func TestScheduleStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Schedule
	}{
		{"levelsync", ScheduleLevelSync},
		{"level-sync", ScheduleLevelSync},
		{"worksteal", ScheduleWorkSteal},
		{"work-steal", ScheduleWorkSteal},
	} {
		got, err := ParseSchedule(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSchedule(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSchedule("dfs"); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("ParseSchedule(dfs) = %v, want ErrInvalidOptions", err)
	}
	if s := ScheduleLevelSync.String(); s != "levelsync" {
		t.Fatalf("ScheduleLevelSync.String() = %q", s)
	}
	if s := ScheduleWorkSteal.String(); s != "worksteal" {
		t.Fatalf("ScheduleWorkSteal.String() = %q", s)
	}
	if s := Schedule(42).String(); s != "Schedule(42)" {
		t.Fatalf("Schedule(42).String() = %q", s)
	}
}

// TestWSDequeStealHalf pins the deque mechanics: owner LIFO at the
// bottom, thieves take the oldest half from the top, and nothing is lost
// or duplicated.
func TestWSDequeStealHalf(t *testing.T) {
	var d wsDeque
	for i := 0; i < 8; i++ {
		d.push(wsItem{id: i})
	}
	var buf []wsItem
	if n := d.stealHalf(&buf); n != 4 {
		t.Fatalf("stole %d of 8, want the older half (4)", n)
	}
	for i, it := range buf[:4] {
		if it.id != i {
			t.Fatalf("stolen[%d] = %d, want the oldest items in order", i, it.id)
		}
	}
	if it, ok := d.pop(); !ok || it.id != 7 {
		t.Fatalf("owner pop = %v/%v, want the newest item 7", it, ok)
	}
	// Drain: 6, 5, 4 remain.
	seen := map[int]bool{}
	for {
		it, ok := d.pop()
		if !ok {
			break
		}
		seen[it.id] = true
	}
	if len(seen) != 3 || !seen[4] || !seen[5] || !seen[6] {
		t.Fatalf("remaining items = %v, want {4,5,6}", seen)
	}
	if n := d.stealHalf(&buf); n != 0 {
		t.Fatalf("stole %d from an empty deque", n)
	}
	// A single-item deque yields its item to a thief.
	d.push(wsItem{id: 9})
	if n := d.stealHalf(&buf); n != 1 || buf[0].id != 9 {
		t.Fatalf("single-item steal = %d/%v", n, buf[:n])
	}
}

// TestWorkStealCollisions mirrors TestFingerprintCollisions for the
// claim-on-insert store: under a degenerate everything-collides
// fingerprint, default mode merges the space into one state and
// CollisionFree buys back exactness.
func TestWorkStealCollisions(t *testing.T) {
	orig := fingerprint
	fingerprint = func([]byte) uint64 { return 0 }
	defer func() { fingerprint = orig }()

	res, err := Check(counterSpec(5), Options{Workers: 4, Schedule: ScheduleWorkSteal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != 1 {
		t.Fatalf("with total collisions distinct = %d, want 1", res.Distinct)
	}
	got, err := Check(counterSpec(5), Options{Workers: 4, Schedule: ScheduleWorkSteal, CollisionFree: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Distinct != 21 { // (5+1)(5+2)/2
		t.Fatalf("collision-free distinct = %d, want 21", got.Distinct)
	}
}

// TestWorkStealSymmetry cross-checks the work-stealing loop under
// symmetry reduction: the quotient counts must match level-sync's.
func TestWorkStealSymmetry(t *testing.T) {
	assertWorkStealAgrees(t, "symmetric-counter", binSpecVisitor(30), Options{})
}
