package checkd

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tla"
)

// The test registry: probe specs the supervision-policy tests drive.
//
//	"slow"    a bounded counter whose Next sleeps, so a run stays catchable
//	          mid-flight. Params: Nodes = counter max, MaxTerm = the sleep
//	          per Next call in microseconds.
//	"crashy"  delegates to the counter spec but panics in the runner (not
//	          the spec) while crashyRemaining > 0 — the worker-crash probe.
//	"panicky" a counter spec whose invariant panics at one state — the
//	          spec-bug probe that must fail permanently.
//
// Test specs fall through normalizeParams verbatim, so Nodes/MaxTerm are
// free knobs and distinct configurations get distinct cache fingerprints.

// ctrState mirrors the tla package's toy counter state, decoder included:
// every job runs under the state arena its checkpoints imply.
type ctrState struct{ A, B int }

func (s ctrState) Key() string { return fmt.Sprintf("%d/%d", s.A, s.B) }

func (s ctrState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s ctrState) AppendBinary(buf []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(buf, int64(s.A)), int64(s.B))
}

func (ctrState) DecodeBinary(enc []byte) (ctrState, error) {
	a, n := binary.Varint(enc)
	if n <= 0 {
		return ctrState{}, fmt.Errorf("ctrState: decode: bad A in %x", enc)
	}
	b, m := binary.Varint(enc[n:])
	if m <= 0 || n+m != len(enc) {
		return ctrState{}, fmt.Errorf("ctrState: decode: bad B in %x", enc)
	}
	return ctrState{int(a), int(b)}, nil
}

// ctrSpec counts A up to max and B up to A: (max+1)(max+2)/2 distinct
// states, depth 2·max, one terminal state — fully predictable counters.
func ctrSpec(name string, max int, sleep time.Duration) *tla.Spec[ctrState] {
	step := func(next func(ctrState) []ctrState) func(ctrState) []ctrState {
		return func(s ctrState) []ctrState {
			if sleep > 0 {
				time.Sleep(sleep)
			}
			return next(s)
		}
	}
	return &tla.Spec[ctrState]{
		Name: name,
		Init: func() []ctrState { return []ctrState{{0, 0}} },
		Actions: []tla.Action[ctrState]{
			{Name: "IncA", Next: step(func(s ctrState) []ctrState {
				if s.A >= max {
					return nil
				}
				return []ctrState{{s.A + 1, s.B}}
			})},
			{Name: "IncB", Next: step(func(s ctrState) []ctrState {
				if s.B >= s.A {
					return nil
				}
				return []ctrState{{s.A, s.B + 1}}
			})},
		},
		Invariants: []tla.Invariant[ctrState]{
			{Name: "BLeqA", Check: func(s ctrState) error {
				if s.B > s.A {
					return fmt.Errorf("B=%d > A=%d", s.B, s.A)
				}
				return nil
			}},
		},
	}
}

func ctrDistinct(max int) int { return (max + 1) * (max + 2) / 2 }

// crashyRemaining arms the "crashy" spec: each run decrements it and
// panics while it was positive. Set per test; tests using it cannot run
// in parallel with each other.
var crashyRemaining atomic.Int32

func init() {
	Register("slow", func(p SpecParams) RunFunc {
		max, sleep := p.Nodes, time.Duration(p.MaxTerm)*time.Microsecond
		return func(opts tla.Options) (*Outcome, error) {
			return RunSpec(ctrSpec("slow", max, sleep), opts)
		}
	})
	Register("crashy", func(p SpecParams) RunFunc {
		max := p.Nodes
		return func(opts tla.Options) (*Outcome, error) {
			if crashyRemaining.Add(-1) >= 0 {
				panic("injected runner crash")
			}
			return RunSpec(ctrSpec("crashy", max, 0), opts)
		}
	})
	Register("panicky", func(p SpecParams) RunFunc {
		max := p.Nodes
		return func(opts tla.Options) (*Outcome, error) {
			spec := ctrSpec("panicky", max, 0)
			spec.Invariants = append(spec.Invariants, tla.Invariant[ctrState]{
				Name: "Explode",
				Check: func(s ctrState) error {
					if s.A == 2 && s.B == 2 {
						panic("invariant bug")
					}
					return nil
				},
			})
			return RunSpec(spec, opts)
		}
	})
}

// oracleOutcome runs a request's spec directly — same checkpoint-shaped
// options the supervisor uses, so the visited-store selection matches —
// and returns the outcome the service must reproduce.
func oracleOutcome(t *testing.T, spec string, p SpecParams) *Outcome {
	t.Helper()
	run, err := lookupSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalizeParams(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(norm)(tla.Options{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatalf("oracle %s: %v", spec, err)
	}
	return out
}

// newTestSup builds a supervisor over a temp root with test-friendly
// defaults; mutate cfg via prep before construction.
func newTestSup(t *testing.T, prep func(*Config)) *Supervisor {
	t.Helper()
	cfg := Config{
		Root:        t.TempDir(),
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Logf:        t.Logf,
	}
	if prep != nil {
		prep(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

// waitJob polls until the job reaches want (or any terminal state, to fail
// fast on the wrong verdict) and returns its final result.
func waitJob(t *testing.T, s *Supervisor, id string, want JobState) JobResult {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if res.State == want {
			return res
		}
		if res.State.Terminal() {
			t.Fatalf("job %s reached %q (err %q), want %q", id, res.State, res.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %q in time", id, want)
	return JobResult{}
}

// waitRunningProgress polls until the job is running and has reported
// engine progress of at least minDistinct states.
func waitRunningProgress(t *testing.T, s *Supervisor, id string, minDistinct int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q before progress threshold", id, st.State)
		}
		if st.State == JobRunning && st.Progress != nil && st.Progress.Distinct >= minDistinct {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reported %d distinct states while running", id, minDistinct)
}

func assertOutcomeEqual(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: outcome got %v, want %v", label, got, want)
	}
	if got.Verdict != want.Verdict || got.Distinct != want.Distinct ||
		got.Transitions != want.Transitions || got.Depth != want.Depth || got.Terminal != want.Terminal {
		t.Fatalf("%s: diverged from oracle:\n got  %+v\n want %+v", label, got, want)
	}
}
