package tla

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/race"
)

// laneState is a step count N on lane L. Boom makes its encoding panic, so
// a test can see which states the trace checker encodes.
type laneState struct {
	N, L int
	Boom bool
}

func (s laneState) Key() string { return fmt.Sprintf("%d/%d", s.N, s.L) }

func (s laneState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s laneState) AppendBinary(buf []byte) []byte {
	if s.Boom {
		panic("AppendBinary bug at " + s.Key())
	}
	return binary.AppendVarint(binary.AppendVarint(buf, int64(s.N)), int64(s.L))
}

// laneSpec starts one state on each of lanes; Step stays on the lane and
// Hop moves ten lanes up, so a frontier state's two successors are never
// equal, but a state on lane l and one on lane l+10 reach the same
// successor. A state of step boomAt panics when encoded.
func laneSpec(lanes []int, boomAt int) *Spec[laneState] {
	next := func(dl int) func(laneState) []laneState {
		return func(s laneState) []laneState {
			return []laneState{{N: s.N + 1, L: s.L + dl, Boom: s.N+1 == boomAt}}
		}
	}
	return &Spec[laneState]{
		Name: "Lanes",
		Init: func() []laneState {
			var inits []laneState
			for _, l := range lanes {
				inits = append(inits, laneState{L: l, Boom: boomAt == 0})
			}
			return inits
		},
		Actions: []Action[laneState]{{Name: "Step", Next: next(0)}, {Name: "Hop", Next: next(10)}},
	}
}

// laneObs observes step n on one of lanes (any lane when lanes is nil).
type laneObs struct {
	n     int
	lanes []int
}

func (o laneObs) Matches(s laneState) bool {
	return s.N == o.n && (o.lanes == nil || slices.Contains(o.lanes, s.L))
}

func (o laneObs) String() string { return fmt.Sprintf("step %d on lanes %v", o.n, o.lanes) }

// stepObs is a laneObs whose event says the lane did not change.
type stepObs struct{ laneObs }

var stepHint = []string{"Step"}

func (stepObs) ActionHints() []string { return stepHint }

// TestTraceMergeDedupsAcrossChunks: at four workers a five-state frontier
// is five chunks. Two of them each hold one match, the same state reached
// from lane 0 by Hop and from lane 10 by Step: neither chunk encodes its
// lone match, so the merge must, and the next frontier holds the state
// once, as at one worker.
func TestTraceMergeDedupsAcrossChunks(t *testing.T) {
	spec := laneSpec([]int{0, 1, 2, 3, 10}, -1)
	trace := []Observation[laneState]{laneObs{0, nil}, laneObs{1, []int{10}}, laneObs{2, []int{10, 20}}}
	want := &TraceResult{Steps: 3, OK: true, FailedStep: -1, FrontierSizes: []int{5, 1, 2},
		Explanations: [][]string{{"Hop", "Step"}, {"Hop", "Step"}}}
	for _, workers := range []int{1, 4} {
		res, err := CheckTraceWith(spec, trace, TraceOptions{Workers: workers})
		if err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d: %+v, %v; want %+v", workers, res, err, want)
		}
	}
}

// TestTraceCheckEncodesOnlyToBreakATie: an observation that matches one
// state encodes nothing — neither the initial one nor a later one, at any
// worker count — so a state whose encoding panics passes when it is the
// only match.
func TestTraceCheckEncodesOnlyToBreakATie(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  *Spec[laneState]
		trace []Observation[laneState]
	}{
		{"Initial", laneSpec([]int{0, 1, 2, 3, 4}, 0), []Observation[laneState]{laneObs{0, []int{2}}}},
		{"Step", laneSpec([]int{0, 1, 2, 3, 4}, 1), []Observation[laneState]{laneObs{0, nil}, laneObs{1, []int{12}}}},
	} {
		for _, workers := range []int{1, 4} {
			if res, err := CheckTraceWith(tc.spec, tc.trace, TraceOptions{Workers: workers}); err != nil || !res.OK {
				t.Fatalf("%s/workers=%d: %+v, %v; want a pass", tc.name, workers, res, err)
			}
		}
	}
}

// TestTraceCheckAllocsPerCall pins what a trace check allocates besides
// the spec: nothing per observation on a narrow frontier, so a long trace
// costs the results of its non-empty Next calls plus a per-run constant —
// the result and its slices, the frontier buffers and the chunk table —
// whatever its length. In the narrow rows every step matches two states,
// so each step encodes and dedups; the frontier stays below
// inlineFrontier, the guided trace's usual width, so four workers advance
// it inline too. In the wide row four workers cut every step into four
// chunks, two of which match, so each step merges across chunks: it may
// cost one pool start (the closure, its counter and wait group, a
// goroutine each: about 7 allocations), never a second one to break the
// tie.
func TestTraceCheckAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const perRun = 32
	var calls atomic.Int64
	counted := func(spec *Spec[laneState]) *Spec[laneState] {
		for i := range spec.Actions {
			next := spec.Actions[i].Next
			spec.Actions[i].Next = func(s laneState) []laneState {
				calls.Add(1) // every call returns one successor
				return next(s)
			}
		}
		return spec
	}
	narrow, wide := counted(laneSpec([]int{0, 1}, -1)), counted(crossSpec())
	for _, tc := range []struct {
		name    string
		spec    *Spec[laneState]
		lanes   []int
		hinted  bool // every other observation names Step
		workers int
		perStep float64
	}{
		{"Narrow", narrow, []int{0, 1}, true, 1, 0},
		{"Narrow", narrow, []int{0, 1}, true, 4, 0},
		{"Wide", wide, []int{0, 1, 2, 3}, false, 4, 10},
	} {
		for _, n := range []int{500, 2000} {
			trace := []Observation[laneState]{laneObs{0, tc.lanes}}
			for k := 1; k <= n; k++ {
				var o Observation[laneState] = laneObs{k, tc.lanes}
				if tc.hinted && k%2 == 0 {
					o = stepObs{laneObs{k, tc.lanes}}
				}
				trace = append(trace, o)
			}
			opts := TraceOptions{Workers: tc.workers}
			calls.Store(0)
			res, err := CheckTraceWith(tc.spec, trace, opts)
			if err != nil || !res.OK || slices.Min(res.FrontierSizes) != len(tc.lanes) || slices.Max(res.FrontierSizes) != len(tc.lanes) {
				t.Fatalf("%s n=%d workers=%d: %+v, %v; want a pass on a %d-state frontier", tc.name, n, tc.workers, res, err, len(tc.lanes))
			}
			results := calls.Load()
			allocs := testing.AllocsPerRun(5, func() { CheckTraceWith(tc.spec, trace, opts) })
			if extra, bound := allocs-float64(results), perRun+tc.perStep*float64(n); extra > bound {
				t.Errorf("%s n=%d workers=%d: %.0f allocations for %d Next results, %.0f more, want at most %.0f", tc.name, n, tc.workers, allocs, results, extra, bound)
			}
		}
	}
}

// crossSpec starts one state on each of lanes 0 to 3. From lanes 0 and 1,
// Step stays on the lane and Cross moves two lanes up; from lanes 2 and 3
// both leave lanes 0 to 3. An observation of lanes 0 to 3 therefore keeps
// the four-state frontier, matched by two of its states, two matches each.
func crossSpec() *Spec[laneState] {
	next := func(near, far int) func(laneState) []laneState {
		return func(s laneState) []laneState {
			if s.L < 2 {
				return []laneState{{N: s.N + 1, L: s.L + near}}
			}
			return []laneState{{N: s.N + 1, L: s.L + far}}
		}
	}
	return &Spec[laneState]{
		Name:    "Cross",
		Init:    func() []laneState { return []laneState{{L: 0}, {L: 1}, {L: 2}, {L: 3}} },
		Actions: []Action[laneState]{{Name: "Step", Next: next(0, 10)}, {Name: "Cross", Next: next(2, 20)}},
	}
}
