package tla

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// hinted attaches action hints to any counter observation.
type hinted struct {
	Observation[counterState]
	hints []string
}

func (h hinted) ActionHints() []string { return h.hints }

func full(a, b int) Observation[counterState] {
	return FullObservation[counterState]{counterState{a, b}}
}

// sumObs observes only A+B, the number of steps taken.
type sumObs int

func (o sumObs) Matches(s counterState) bool { return s.A+s.B == int(o) }
func (o sumObs) String() string              { return fmt.Sprintf("A+B=%d", int(o)) }

// stripHints returns the trace with every hint hidden from the checker.
func stripHints(trace []Observation[counterState]) []Observation[counterState] {
	out := make([]Observation[counterState], len(trace))
	for i, o := range trace {
		if h, ok := o.(hinted); ok {
			o = h.Observation
		}
		out[i] = o
	}
	return out
}

// sameButGuidance compares two results field by field, ignoring the three
// fields that only describe how the guided run went.
func sameButGuidance(a, b *TraceResult) bool {
	x, y := *a, *b
	x.GuidedSteps, x.HintFallbacks, x.Rechecked = 0, 0, false
	y.GuidedSteps, y.HintFallbacks, y.Rechecked = 0, 0, false
	return reflect.DeepEqual(x, y)
}

func TestGuidedHintNarrowsTheFrontier(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		partialObs{a: 0},
		hinted{partialObs{a: 1}, []string{"IncA"}},
		// Unguided: (2,0) by IncA or (1,1) by IncB. The event says IncA.
		hinted{partialObs{a: 1, atLeast: true}, []string{"IncA"}},
		hinted{partialObs{a: 2}, []string{"IncB"}},
	}
	guided, err := CheckTrace(spec, trace)
	if err != nil {
		t.Fatal(err)
	}
	unguided, err := CheckTrace(spec, stripHints(trace))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1}; !slices.Equal(guided.FrontierSizes, want) {
		t.Errorf("guided frontier sizes = %v, want %v", guided.FrontierSizes, want)
	}
	if want := []int{1, 1, 2, 1}; !slices.Equal(unguided.FrontierSizes, want) {
		t.Errorf("unguided frontier sizes = %v, want %v", unguided.FrontierSizes, want)
	}
	if guided.GuidedSteps != 3 || guided.HintFallbacks != 0 || guided.Rechecked {
		t.Errorf("guided = %+v", guided)
	}
	if unguided.GuidedSteps != 0 {
		t.Errorf("unguided run counted %d guided steps", unguided.GuidedSteps)
	}
	if want := [][]string{{"IncA"}, {"IncA"}, {"IncB"}}; !reflect.DeepEqual(guided.Explanations, want) {
		t.Errorf("guided explanations = %v, want %v", guided.Explanations, want)
	}
}

func TestGuidedWrongHintFallsBackToEveryAction(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		full(0, 0),
		hinted{full(1, 0), []string{"IncB"}}, // IncA fired; the label lies
		hinted{full(1, 1), []string{"IncB"}},
	}
	res, err := CheckTrace(spec, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.GuidedSteps != 2 || res.HintFallbacks != 1 || res.Rechecked {
		t.Errorf("res = %+v", res)
	}
	if want := [][]string{{"IncA"}, {"IncB"}}; !reflect.DeepEqual(res.Explanations, want) {
		t.Errorf("explanations = %v, want %v", res.Explanations, want)
	}
}

// A hint none of whose names the spec declares (a V2 label against V1), a
// nil hint, and a hint naming every action all mean "any action": the step
// is not guided and the result is the unguided one.
func TestGuidedUnusableHintsMeanAnyAction(t *testing.T) {
	spec := counterSpec(3)
	for name, hints := range map[string][]string{
		"unknown": {"UpdateTermThroughHeartbeat"},
		"nil":     nil,
		"every":   {"IncA", "IncB", "IncA"},
	} {
		trace := []Observation[counterState]{
			partialObs{a: 0},
			hinted{partialObs{a: 1}, hints},
			hinted{partialObs{a: 1, atLeast: true}, hints},
		}
		got, err := CheckTrace(spec, trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := CheckTrace(spec, stripHints(trace))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got, want)
		}
	}
	// A name the spec lacks next to one it has: the known one guides.
	res, err := CheckTrace(spec, []Observation[counterState]{
		full(0, 0),
		hinted{full(1, 0), []string{"LearnCommitPoint", "IncA"}},
	})
	if err != nil || res.GuidedSteps != 1 || res.HintFallbacks != 0 {
		t.Errorf("res = %+v, err = %v", res, err)
	}
}

func TestGuidedDivergenceIsReportedByTheUnguidedChecker(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		partialObs{a: 0},
		hinted{partialObs{a: 1}, []string{"IncA"}},
		hinted{partialObs{a: 1, atLeast: true}, []string{"IncA"}},
		hinted{full(3, 3), []string{"IncB"}}, // two steps away from anything
	}
	got, gotErr := CheckTrace(spec, trace)
	want, wantErr := CheckTrace(spec, stripHints(trace))
	var te *TraceError
	if !errors.As(gotErr, &te) || gotErr.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want %v", gotErr, wantErr)
	}
	if !sameButGuidance(got, want) {
		t.Errorf("guided divergence report differs from the unguided one:\n got  %+v\n want %+v", got, want)
	}
	// The report shows the unguided frontier (2 at step 2), not the guided 1.
	if !got.Rechecked || got.GuidedSteps != 3 || got.HintFallbacks != 1 || got.FrontierSizes[2] != 2 {
		t.Errorf("got = %+v", got)
	}
}

// A hint can prune the one state a later observation needs. The guided run
// then diverges where the unguided checker would not; the re-check keeps
// that from becoming a false alarm.
func TestGuidedNeverFailsATraceThatPassesUnguided(t *testing.T) {
	spec := counterSpec(3)
	trace := []Observation[counterState]{
		partialObs{a: 0},
		partialObs{a: 1},
		// IncB really fired, (1,1); the label says IncA and IncA also
		// matches, so the guided frontier is {(2,0)} and (1,1) is lost.
		hinted{sumObs(2), []string{"IncA"}},
		full(1, 1), // a stutter of the lost state; unreachable from (2,0)
	}
	opts := TraceOptions{Stuttering: true}
	got, err := CheckTraceWith(spec, trace, opts)
	if err != nil {
		t.Fatalf("guided run failed a trace the unguided checker passes: %v", err)
	}
	want, err := CheckTraceWith(spec, stripHints(trace), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.OK || !got.Rechecked || !sameButGuidance(got, want) {
		t.Errorf("got %+v\nwant %+v", got, want)
	}
}

func TestGuidedStepStillAdmitsStuttering(t *testing.T) {
	spec := counterSpec(2)
	trace := []Observation[counterState]{
		full(0, 0),
		hinted{full(0, 0), []string{"IncA"}}, // changed no modelled variable
		hinted{full(1, 0), []string{"IncA"}},
	}
	if _, err := CheckTrace(spec, trace); err == nil {
		t.Fatal("strict checker should reject stuttering, hinted or not")
	}
	res, err := CheckTraceWith(spec, trace, TraceOptions{Stuttering: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{stutterAction}, {"IncA"}}; !reflect.DeepEqual(res.Explanations, want) {
		t.Errorf("explanations = %v, want %v", res.Explanations, want)
	}
	if res.GuidedSteps != 2 || res.HintFallbacks != 0 {
		t.Errorf("res = %+v", res)
	}
}

// Guided results are the same at any worker count, on a frontier wide
// enough to leave the inline path, and never wider than the unguided ones.
func TestGuidedParallelMatchesSequential(t *testing.T) {
	spec := counterSpec(30)
	anything := partialObs{a: 0, atLeast: true}
	trace := []Observation[counterState]{partialObs{a: 0}}
	for i := 0; i < 16; i++ {
		trace = append(trace, anything) // widen: every state i steps away stays
	}
	for i := 0; i < 6; i++ {
		trace = append(trace, hinted{anything, []string{[]string{"IncA", "IncB"}[i%2]}})
	}
	trace = append(trace, hinted{partialObs{a: 31}, []string{"IncA"}}) // diverges: A <= 30
	for _, tr := range [][]Observation[counterState]{trace[:len(trace)-1], trace} {
		for _, stutter := range []bool{false, true} {
			want, wantErr := CheckTraceWith(spec, tr, TraceOptions{Workers: 1, Stuttering: stutter})
			if slices.Max(want.FrontierSizes) < 2*inlineFrontier {
				t.Fatalf("frontier sizes %v never leave the inline path", want.FrontierSizes)
			}
			for _, w := range []int{2, 4, 8} {
				got, gotErr := CheckTraceWith(spec, tr, TraceOptions{Workers: w, Stuttering: stutter})
				if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("stutter=%v workers=%d: err %v, want %v\n got  %+v\n want %+v", stutter, w, gotErr, wantErr, got, want)
				}
			}
			unguided, _ := CheckTraceWith(spec, stripHints(tr), TraceOptions{Workers: 1, Stuttering: stutter})
			if want.OK != unguided.OK || want.FailedStep != unguided.FailedStep {
				t.Fatalf("stutter=%v: guided verdict %v/%d, unguided %v/%d", stutter, want.OK, want.FailedStep, unguided.OK, unguided.FailedStep)
			}
			if !want.OK {
				if !sameButGuidance(want, unguided) {
					t.Fatalf("stutter=%v: failing reports differ:\n got  %+v\n want %+v", stutter, want, unguided)
				}
				continue
			}
			for i, n := range want.FrontierSizes {
				if n > unguided.FrontierSizes[i] {
					t.Fatalf("stutter=%v: guided frontier %d is %d, unguided %d", stutter, i, n, unguided.FrontierSizes[i])
				}
			}
		}
	}
}
