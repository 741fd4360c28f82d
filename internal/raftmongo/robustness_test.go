package raftmongo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/tla"
)

// cancelAfter wraps every action of spec to cancel ctx after n Next calls —
// a deterministic mid-exploration interrupt on the real replica-set spec.
// The action names are unchanged, so the wrapped spec checkpoints and the
// plain spec resumes: exactly the SIGINT-then-restart sequence a user runs.
func cancelAfter(spec *tla.Spec[State], cancel context.CancelFunc, n int64) *tla.Spec[State] {
	var calls atomic.Int64
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s State) []State {
			if calls.Add(1) >= n {
				cancel()
			}
			return next(s)
		}
	}
	return spec
}

// TestInterruptResumeMatchesOracle is the acceptance check for
// checkpoint/resume on the paper's replica-set specification: a run under
// the paper-scale configuration is interrupted mid-exploration with a
// checkpoint directory, resumed by a fresh process-equivalent run, and the
// final verdict, distinct-state and transition counts must be identical to
// an uninterrupted oracle — with the disk-backed stores (spilling visited
// set + state arena) engaged, the configuration every long run would
// actually use.
func TestInterruptResumeMatchesOracle(t *testing.T) {
	cfg := Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	mkOpts := func() tla.Options {
		return tla.Options{Workers: 4, MemoryBudgetBytes: 1}
	}
	oracle, err := tla.Check(SpecV2(cfg), mkOpts())
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := mkOpts()
	opts.Context = ctx
	opts.CheckpointDir = dir
	partial, err := tla.Check(cancelAfter(SpecV2(cfg), cancel, 2000), opts)
	if !errors.Is(err, tla.ErrInterrupted) {
		t.Fatalf("err = %v, want an interrupted run", err)
	}
	if !partial.Interrupted || partial.CheckpointPath != dir {
		t.Fatalf("Interrupted=%v CheckpointPath=%q, want a checkpoint in %q", partial.Interrupted, partial.CheckpointPath, dir)
	}
	if partial.Distinct == 0 || partial.Distinct >= oracle.Distinct {
		t.Fatalf("partial run found %d states, oracle %d — the interrupt landed outside the run", partial.Distinct, oracle.Distinct)
	}

	ropts := mkOpts()
	ropts.ResumeFrom = dir
	res, err := tla.Check(SpecV2(cfg), ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Interrupted {
		t.Fatal("resumed run still reports Interrupted")
	}
	if res.Distinct != oracle.Distinct || res.Transitions != oracle.Transitions ||
		res.Depth != oracle.Depth || res.Terminal != oracle.Terminal {
		t.Fatalf("resumed run diverged from the uninterrupted oracle:\n got  distinct=%d transitions=%d depth=%d terminal=%d\n want distinct=%d transitions=%d depth=%d terminal=%d",
			res.Distinct, res.Transitions, res.Depth, res.Terminal,
			oracle.Distinct, oracle.Transitions, oracle.Depth, oracle.Terminal)
	}
}
