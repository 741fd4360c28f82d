package mbtc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fuzzer"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/scenarios"
	"repro/internal/tla"
	"repro/internal/trace"
)

// unhinted hides an observation's ActionHints from the trace checker.
type unhinted struct {
	tla.Observation[raftmongo.State]
}

// checkUnguided is CheckEventsOpts with the events' action labels kept from
// the checker: the plain frontier method, the oracle guided runs are held to.
func checkUnguided(t *testing.T, nodes int, events []trace.Event, spec *tla.Spec[raftmongo.State], workers int) *Report {
	t.Helper()
	processed, err := trace.Process(nodes, events, trace.ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		t.Fatal(err)
	}
	obs := ObservationsFromProcessed(nodes, events, processed)
	for i, o := range obs {
		obs[i] = unhinted{o}
	}
	rep, err := checkObservations(events, processed, obs, spec, tla.TraceOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuidedSteps != 0 || rep.HintFallbacks != 0 || rep.Rechecked {
		t.Fatalf("the unguided oracle was guided: %+v", rep)
	}
	return rep
}

func fuzzTrace(t *testing.T, seed int64, steps int, syncFirst bool) []trace.Event {
	t.Helper()
	cfg := fuzzer.DefaultRollbackConfig()
	cfg.Seed, cfg.Steps, cfg.SyncBeforeWrites = seed, steps, syncFirst
	events, err := RunTraced(replset.Config{Nodes: cfg.Nodes, Seed: seed}, func(c *replset.Cluster) error {
		_, err := fuzzer.FuzzRollback(cfg, c)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// withoutGuidance is rep with the three fields that describe the guided
// attempt cleared, for comparison with an unguided report.
func withoutGuidance(rep *Report) Report {
	r := *rep
	r.GuidedSteps, r.HintFallbacks, r.Rechecked = 0, 0, false
	return r
}

// holdToUnguided asserts what guidance may and may not change: never the
// verdict, never a failing report, and a passing run's frontiers only
// downwards.
func holdToUnguided(t *testing.T, label string, guided, unguided *Report) {
	t.Helper()
	if guided.OK != unguided.OK || guided.FailedStep != unguided.FailedStep {
		t.Fatalf("%s: guided verdict ok=%v step %d, unguided ok=%v step %d",
			label, guided.OK, guided.FailedStep, unguided.OK, unguided.FailedStep)
	}
	if !guided.OK {
		if got := withoutGuidance(guided); !reflect.DeepEqual(got, *unguided) {
			t.Fatalf("%s: failing report differs from the unguided one:\n got  %+v\n want %+v", label, got, *unguided)
		}
		return
	}
	if len(guided.StatesVisited) != len(unguided.StatesVisited) {
		t.Fatalf("%s: %d guided frontiers, %d unguided", label, len(guided.StatesVisited), len(unguided.StatesVisited))
	}
	for i, n := range guided.StatesVisited {
		if n > unguided.StatesVisited[i] {
			t.Fatalf("%s: guided frontier %d holds %d states, unguided %d", label, i, n, unguided.StatesVisited[i])
		}
	}
}

// TestGuidedMatchesUnguidedOnFuzzerTraces is the differential behind the
// guided trace checker: on rollback-fuzzer traces of seeds 1–14, against
// both specification variants (V1 diverges on every one of them, V2 passes
// the synced runs), the verdict and failing step are the unguided
// checker's, a passing run's frontiers are elementwise no larger, and the
// guided result is the same at 1, 2 and 4 workers.
func TestGuidedMatchesUnguidedOnFuzzerTraces(t *testing.T) {
	seeds := 14
	if testing.Short() {
		seeds = 3
	}
	narrower := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// Odd seeds sync every follower before writing (the paper's
		// mitigation; V2 passes), even seeds do not (V2 may diverge).
		events := fuzzTrace(t, seed, 300, seed%2 == 1)
		for _, spec := range []*tla.Spec[raftmongo.State]{raftmongo.SpecV1(CheckConfig(3)), raftmongo.SpecV2(CheckConfig(3))} {
			label := fmt.Sprintf("seed %d %s", seed, spec.Name)
			unguided := checkUnguided(t, 3, events, spec, 2)
			var first *Report
			for _, w := range []int{1, 2, 4} {
				guided, err := CheckEventsOpts(3, events, spec, tla.TraceOptions{Workers: w})
				if err != nil {
					t.Fatalf("%s workers %d: %v", label, w, err)
				}
				holdToUnguided(t, fmt.Sprintf("%s workers %d", label, w), guided, unguided)
				if first == nil {
					first = guided
				} else if !reflect.DeepEqual(guided, first) {
					t.Fatalf("%s: guided report at %d workers differs from 1 worker:\n got  %+v\n want %+v", label, w, guided, first)
				}
			}
			if first.OK && first.GuidedSteps != first.Events {
				t.Errorf("%s: %d of %d events were guided; every fuzzer label is in the table", label, first.GuidedSteps, first.Events)
			}
			if first.OK && first.MaxFrontier < unguided.MaxFrontier {
				narrower++
			}
		}
	}
	if narrower == 0 {
		t.Error("guidance narrowed no passing trace's frontier")
	}
}

// TestGuidedKeepsEveryScenarioVerdict holds the handwritten scenarios —
// passing ones and the two-leader divergence — to the unguided checker.
func TestGuidedKeepsEveryScenarioVerdict(t *testing.T) {
	for _, sc := range scenarios.TracingCompatible() {
		events, err := RunTraced(replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1}, sc.Run)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, spec := range []*tla.Spec[raftmongo.State]{raftmongo.SpecV1(CheckConfig(sc.Nodes)), raftmongo.SpecV2(CheckConfig(sc.Nodes))} {
			guided, err := CheckEventsOpts(sc.Nodes, events, spec, tla.TraceOptions{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			holdToUnguided(t, sc.Name+" "+spec.Name, guided, checkUnguided(t, sc.Nodes, events, spec, 2))
		}
	}
}

// TestGuidedSurvivesAdversarialLabels: the action label is advice. A trace
// that passes must pass whatever its labels say — shuffled among the
// events, drawn at random from the table, or missing.
func TestGuidedSurvivesAdversarialLabels(t *testing.T) {
	events := fuzzTrace(t, 7, 300, true)
	spec := raftmongo.SpecV2(CheckConfig(3))
	honest, err := CheckEventsOpts(3, events, spec, tla.TraceOptions{Workers: 2})
	if err != nil || !honest.OK || honest.HintFallbacks != 0 {
		t.Fatalf("the honest trace must pass without fallbacks: %+v, %v", honest, err)
	}
	unguided := checkUnguided(t, 3, events, spec, 2)

	labels := make([]string, 0, len(specActions))
	for l := range specActions {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	rng := rand.New(rand.NewSource(1))
	relabel := func(f func(i int) string) []trace.Event {
		out := slices.Clone(events)
		for i := range out {
			out[i].Action = f(i)
		}
		return out
	}
	perm := rng.Perm(len(events))
	for name, lying := range map[string][]trace.Event{
		"permuted": relabel(func(i int) string { return events[perm[i]].Action }),
		"random":   relabel(func(int) string { return labels[rng.Intn(len(labels))] }),
	} {
		rep, err := CheckEventsOpts(3, lying, spec, tla.TraceOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK {
			t.Fatalf("%s labels failed a trace that passes: step %d (%s)", name, rep.FailedStep, rep.FailedEvent)
		}
		if rep.HintFallbacks == 0 {
			t.Errorf("%s labels caused no hint fallback: %+v", name, rep)
		}
		t.Logf("%s labels: %d guided steps, %d fallbacks, rechecked=%v", name, rep.GuidedSteps, rep.HintFallbacks, rep.Rechecked)
	}

	// A label the table does not know — here none at all — means any action.
	blank := relabel(func(i int) string {
		if i%3 == 0 {
			return ""
		}
		return events[i].Action
	})
	rep, err := CheckEventsOpts(3, blank, spec, tla.TraceOptions{Workers: 2})
	if err != nil || !rep.OK {
		t.Fatalf("partly unlabelled trace: %+v, %v", rep, err)
	}
	if want := len(events) - (len(events)+2)/3; rep.GuidedSteps != want || rep.HintFallbacks != 0 {
		t.Errorf("partly unlabelled trace: %d guided steps, %d fallbacks; want %d and 0", rep.GuidedSteps, rep.HintFallbacks, want)
	}
	rep, err = CheckEventsOpts(3, relabel(func(int) string { return "" }), spec, tla.TraceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, unguided) {
		t.Errorf("an unlabelled trace must be checked exactly as the unguided one:\n got  %+v\n want %+v", rep, unguided)
	}
}

// TestGuidedDegradesOnASpecLackingTheAction: the implementation's labels
// are V2's. Against V1, which has no UpdateTermThroughHeartbeat, such an
// event is expanded in full instead of erroring or being skipped, and the
// two commit-point labels resolve to V1's single LearnCommitPoint.
func TestGuidedDegradesOnASpecLackingTheAction(t *testing.T) {
	v1 := map[string]bool{}
	for _, a := range raftmongo.SpecV1(CheckConfig(3)).Actions {
		v1[a.Name] = true
	}
	v2 := map[string]bool{}
	for _, a := range raftmongo.SpecV2(CheckConfig(3)).Actions {
		v2[a.Name] = true
	}
	for label, names := range specActions {
		in1, in2 := 0, 0
		for _, n := range names {
			if !v1[n] && !v2[n] {
				t.Errorf("label %s names %s, an action of neither variant", label, n)
			}
			if v1[n] {
				in1++
			}
			if v2[n] {
				in2++
			}
		}
		// Every label is one action of V2 and, bar the term gossip V1 does
		// not model, one action of V1.
		wantV1 := 1
		if label == "UpdateTermThroughHeartbeat" {
			wantV1 = 0
		}
		if in1 != wantV1 || in2 != 1 {
			t.Errorf("label %s resolves to %d V1 and %d V2 actions, want %d and 1", label, in1, in2, wantV1)
		}
	}

	// rollback_after_partition has the old leader learn the new term by
	// heartbeat once the partition heals — an event V1 cannot name.
	var sc scenarios.Scenario
	for _, c := range scenarios.All() {
		if c.Name == "rollback_after_partition" {
			sc = c
		}
	}
	if sc.Run == nil {
		t.Fatal("scenario rollback_after_partition missing from the catalogue")
	}
	events, err := RunTraced(replset.Config{Nodes: sc.Nodes, Seed: 1}, sc.Run)
	if err != nil {
		t.Fatal(err)
	}
	unnamed := slices.IndexFunc(events, func(e trace.Event) bool { return e.Action == "UpdateTermThroughHeartbeat" })
	if unnamed < 0 {
		t.Fatal("the scenario produced no UpdateTermThroughHeartbeat event")
	}
	spec := raftmongo.SpecV1(CheckConfig(sc.Nodes))
	rep, err := CheckEventsOpts(sc.Nodes, events, spec, tla.TraceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	holdToUnguided(t, "V2 labels against V1", rep, checkUnguided(t, sc.Nodes, events, spec, 1))
	// Observation 0 is the initial state, so event i is observation i+1.
	if rep.Checked <= unnamed+1 {
		t.Errorf("matched %d observations; the event V1 cannot name is observation %d and other actions explain it", rep.Checked, unnamed+1)
	}
}
