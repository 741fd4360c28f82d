package tla

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// Arena-backed state graph tests. The contract under test (arena.go,
// engine.go, dot.go, checkpoint.go): StateArena+RecordGraph serves
// Result.Graph from the arena's append-only segments — resident or
// spilled — and the graph is indistinguishable from a live RecordGraph
// run's: same nodes, same keys, same edges, byte-identical DOT output.

// dotBytes renders g as DOT, failing the test on error.
func dotBytes[S State](t *testing.T, g *Graph[S], name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, name); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	return buf.Bytes()
}

// cancelAfter wraps every action of spec to cancel ctx after the given
// number of Next calls — the generic twin of cancelingSpec.
func cancelAfter[S State](spec *Spec[S], cancel context.CancelFunc, after int64) *Spec[S] {
	var calls atomic.Int64
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s S) []S {
			if calls.Add(1) >= after {
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
			return next(s)
		}
	}
	return spec
}

// TestArenaGraphMatchesResident is the headline property: a RecordGraph
// run whose retained storage spills to disk under a one-byte memory budget
// — the edges alone under live retention, encodings and edges under
// StateArena — or keeps the arena resident produces a graph byte-identical
// in DOT form to a plain resident RecordGraph run, at one and at four
// workers.
func TestArenaGraphMatchesResident(t *testing.T) {
	const max = 25
	for _, w := range []int{1, 4} {
		want, err := Check(binSpec(max, false), Options{RecordGraph: true, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d live: %v", w, err)
		}
		wantDOT := dotBytes(t, want.Graph, "bincounter")
		for _, mode := range []struct {
			arena  bool
			budget int64
		}{{true, 0}, {true, 1}, {false, 1}} {
			label := fmt.Sprintf("workers=%d/arena=%t/budget=%d", w, mode.arena, mode.budget)
			got, err := Check(binSpec(max, false), Options{
				RecordGraph: true, Workers: w, StateArena: mode.arena, MemoryBudgetBytes: mode.budget,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Graph.Len() != want.Graph.Len() || got.Graph.NumEdges() != want.Graph.NumEdges() {
				t.Fatalf("%s: graph = %d nodes %d edges, want %d nodes %d edges",
					label, got.Graph.Len(), got.Graph.NumEdges(), want.Graph.Len(), want.Graph.NumEdges())
			}
			for id := 0; id < want.Graph.Len(); id++ {
				if gk, wk := got.Graph.KeyAt(id), want.Graph.KeyAt(id); gk != wk {
					t.Fatalf("%s: node %d key = %q, want %q", label, id, gk, wk)
				}
				if sk := got.Graph.StateAt(id).Key(); sk != want.Graph.KeyAt(id) {
					t.Fatalf("%s: StateAt(%d).Key() = %q, want %q", label, id, sk, want.Graph.KeyAt(id))
				}
			}
			if gotDOT := dotBytes(t, got.Graph, "bincounter"); !bytes.Equal(gotDOT, wantDOT) {
				t.Fatalf("%s: DOT differs from the resident run's", label)
			}
			if err := got.Graph.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			if err := got.Graph.Close(); err != nil {
				t.Fatalf("%s: second Close: %v", label, err)
			}
		}
	}
}

// keyEdges projects a graph's edges onto state keys — the id-independent
// form work-steal runs (nondeterministic numbering) are compared in.
func keyEdges[S State](t *testing.T, g *Graph[S]) []string {
	t.Helper()
	var out []string
	if err := g.ForEachEdge(func(e Edge) error {
		out = append(out, g.KeyAt(e.From)+" -"+e.Action+"-> "+g.KeyAt(e.To))
		return nil
	}); err != nil {
		t.Fatalf("ForEachEdge: %v", err)
	}
	sort.Strings(out)
	return out
}

// TestArenaGraphWorkSteal: the work-steal schedule records the arena graph
// too; state numbering is nondeterministic, so the comparison with the
// level-sync run is on key-projected edges.
func TestArenaGraphWorkSteal(t *testing.T) {
	const max = 15
	want, err := Check(binSpec(max, false), Options{RecordGraph: true})
	if err != nil {
		t.Fatalf("levelsync: %v", err)
	}
	got, err := Check(binSpec(max, false), Options{
		RecordGraph: true, StateArena: true, Schedule: ScheduleWorkSteal, Workers: 4,
	})
	if err != nil {
		t.Fatalf("worksteal: %v", err)
	}
	if got.Graph.Len() != want.Graph.Len() {
		t.Fatalf("worksteal graph = %d nodes, want %d", got.Graph.Len(), want.Graph.Len())
	}
	gk, wk := keyEdges(t, got.Graph), keyEdges(t, want.Graph)
	if len(gk) != len(wk) {
		t.Fatalf("worksteal graph = %d edges, want %d", len(gk), len(wk))
	}
	for i := range wk {
		if gk[i] != wk[i] {
			t.Fatalf("edge %d: %q, want %q", i, gk[i], wk[i])
		}
	}
	// The DOT renderer must cope with nondecreasing-From being false.
	var buf bytes.Buffer
	if err := got.Graph.WriteDOT(&buf, "bincounter"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	if err := got.Graph.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestArenaDecodeTrace: a violation under StateArena reconstructs its
// counterexample by decoding arena encodings, and the trace equals the
// live run's.
func TestArenaDecodeTrace(t *testing.T) {
	mk := func() *Spec[binState] {
		spec := binSpec(25, false)
		spec.Invariants = []Invariant[binState]{{
			Name: "SumBelow9",
			Check: func(s binState) error {
				if s.A+s.B >= 9 {
					return errors.New("sum reached 9")
				}
				return nil
			},
		}}
		return spec
	}
	want, wantErr := Check(mk(), Options{})
	got, gotErr := Check(mk(), Options{StateArena: true})
	if !errors.Is(wantErr, ErrInvariantViolated) || !errors.Is(gotErr, ErrInvariantViolated) {
		t.Fatalf("verdicts: live=%v arena=%v, want violations", wantErr, gotErr)
	}
	if len(got.Violation.Trace) != len(want.Violation.Trace) {
		t.Fatalf("trace lengths: %d vs %d", len(got.Violation.Trace), len(want.Violation.Trace))
	}
	for i := range want.Violation.Trace {
		if gk, wk := got.Violation.Trace[i].Key(), want.Violation.Trace[i].Key(); gk != wk {
			t.Fatalf("trace step %d: %q, want %q", i, gk, wk)
		}
	}
	for i := range want.Violation.TraceActs {
		if got.Violation.TraceActs[i] != want.Violation.TraceActs[i] {
			t.Fatalf("trace act %d: %q, want %q", i, got.Violation.TraceActs[i], want.Violation.TraceActs[i])
		}
	}
}

// ckGraphOpts is the option set the graph-checkpoint tests share.
func ckGraphOpts() Options {
	return Options{RecordGraph: true, StateArena: true, MemoryBudgetBytes: 1, Workers: 4}
}

// TestCheckpointArenaGraph: a checkpointing run records its graph into the
// arena, an interrupt seals the edge segments into the checkpoint, and the
// resumed run finishes with a graph byte-identical to an uninterrupted
// run's — the spilled arena as a durable on-disk state-graph format.
func TestCheckpointArenaGraph(t *testing.T) {
	const max = 20
	oracle, err := Check(binSpec(max, false), ckGraphOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	oracleDOT := dotBytes(t, oracle.Graph, "bincounter")
	if err := oracle.Graph.Close(); err != nil {
		t.Fatalf("oracle Close: %v", err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ckGraphOpts()
	opts.Context = ctx
	opts.CheckpointDir = dir
	partial, err := Check(cancelAfter(binSpec(max, false), cancel, 200), opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	if !partial.Interrupted || partial.CheckpointPath != dir {
		t.Fatalf("Interrupted = %v, CheckpointPath = %q, want a checkpoint in %q",
			partial.Interrupted, partial.CheckpointPath, dir)
	}

	ropts := ckGraphOpts()
	ropts.ResumeFrom = dir
	res, err := Check(binSpec(max, false), ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Graph == nil {
		t.Fatal("resumed run has no graph")
	}
	if gotDOT := dotBytes(t, res.Graph, "bincounter"); !bytes.Equal(gotDOT, oracleDOT) {
		t.Fatal("resumed graph DOT differs from the uninterrupted run's")
	}
	if err := res.Graph.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestResumeGraphRequiresEdges: resuming with RecordGraph from a
// checkpoint whose manifest predates edge recording (none written) is
// rejected with ErrBadCheckpoint instead of resumed into a partial graph.
func TestResumeGraphRequiresEdges(t *testing.T) {
	const max = 20
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{StateArena: true, MemoryBudgetBytes: 1, Workers: 4, Context: ctx, CheckpointDir: dir}
	if _, err := Check(cancelAfter(binSpec(max, false), cancel, 200), opts); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	ropts := ckGraphOpts()
	ropts.ResumeFrom = dir
	if _, err := Check(binSpec(max, false), ropts); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("resume with RecordGraph from an edge-free checkpoint = %v, want ErrBadCheckpoint", err)
	}
	// Without the graph request the same checkpoint resumes fine.
	ropts.RecordGraph = false
	if _, err := Check(binSpec(max, false), ropts); err != nil {
		t.Fatalf("plain resume: %v", err)
	}
}
