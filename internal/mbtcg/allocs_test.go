package mbtcg

import (
	"fmt"
	"testing"

	"repro/internal/ot"
	"repro/internal/race"
)

// recordingTransformer records every TransformLists call a Run makes, with
// the rebased batch the deployment applies: asOut.
type recordingTransformer struct {
	tr    ot.BatchTransformer
	calls []transformCall
}

type transformCall struct{ as, bs, asOut []ot.Op }

func (r *recordingTransformer) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	asOut, bsOut, err := r.tr.TransformLists(as, bs)
	r.calls = append(r.calls, transformCall{as, bs, asOut})
	return asOut, bsOut, err
}

// TestRunAllocsPerCase pins what running a generated case costs: the log
// block and the three per-client slices of the deployment (its Network
// stays on Run's stack, and its peers share the case's initial array),
// each client's array for its own op (none after a clear), and per merge
// side the reference transformer's one block when both tails are
// non-empty and one array when the rebased batch is. No log grows: each is
// pre-sized to the case.
func TestRunAllocsPerCase(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	tr := ot.NewTransformer(nil, false)
	cases := generate(t)
	var got, bound float64
	for i := 0; i < len(cases); i += 7 {
		tc := cases[i]
		rec := &recordingTransformer{tr: tr}
		if m := Run(tc, rec); len(m) != 0 {
			t.Fatalf("%s: %v", tc.Name, m)
		}
		want := 4.0
		for _, op := range tc.ClientOps {
			if op.Kind != ot.KindClear {
				want++
			}
		}
		for _, call := range rec.calls {
			if len(call.as) > 0 && len(call.bs) > 0 {
				want++
			}
			if len(call.asOut) > 0 {
				want++
			}
		}
		n := testing.AllocsPerRun(5, func() { Run(tc, tr) })
		if n > want {
			t.Fatalf("%s: Run allocates %.0f times, want at most %.0f", tc.Name, n, want)
		}
		got, bound = got+n, bound+want
	}
	t.Logf("%.0f allocations, bound %.0f", got, bound)
}

// inflatingTransformer appends an extra insert to every non-empty batch it
// rebases, so the logs of a deployment it drives outgrow the shares Run
// pre-sizes them to.
type inflatingTransformer struct{ tr ot.BatchTransformer }

func (i inflatingTransformer) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	asOut, bsOut, err := i.tr.TransformLists(as, bs)
	if err != nil || len(asOut) == 0 {
		return asOut, bsOut, err
	}
	return append(append([]ot.Op(nil), asOut...), ot.Insert(0, 99)), bsOut, nil
}

// TestReplayViewLogsStayApart replays sampled cases on the deployment Run
// builds and on ot.NewNetwork's, driven by the reference transformer and
// by one whose batches overflow the pre-sized logs: both deployments must
// hold the same logs, arrays and progress after every step, so an overflow
// reallocates its log rather than writing into a neighbour's share.
func TestReplayViewLogsStayApart(t *testing.T) {
	ref := ot.NewTransformer(nil, false)
	cases := generate(t)
	for _, tr := range []ot.BatchTransformer{ref, inflatingTransformer{ref}} {
		for i := 0; i < len(cases); i += 11 {
			tc := cases[i]
			k := len(tc.ClientOps)
			got := ot.NetworkFromView(tr, replayView(tc.Initial, k))
			want := ot.NewNetwork(tr, tc.Initial, k)
			step := func(what string, errGot, errWant error) {
				t.Helper()
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("%s, %s: error %v, on ot.NewNetwork %v", tc.Name, what, errGot, errWant)
				}
				if g, w := got.View(), want.View(); !sameView(g, w) {
					t.Fatalf("%s, %s: deployment %+v, on ot.NewNetwork %+v", tc.Name, what, g, w)
				}
			}
			for c, op := range tc.ClientOps {
				step(fmt.Sprintf("client %d performs %s", c, op), got.Perform(c, op), want.Perform(c, op))
			}
			for round := 0; round < 3; round++ {
				for c := 0; c < k; c++ {
					step(fmt.Sprintf("round %d, client %d merges", round, c), got.Merge(c), want.Merge(c))
				}
			}
		}
	}
}

func sameView(a, b ot.View) bool {
	if !opsEqual(a.ServerLog, b.ServerLog) || !intsEqual(a.ServerState, b.ServerState) || len(a.ClientLog) != len(b.ClientLog) {
		return false
	}
	for c := range a.ClientLog {
		if !opsEqual(a.ClientLog[c], b.ClientLog[c]) || !intsEqual(a.ClientState[c], b.ClientState[c]) || a.Progress[c] != b.Progress[c] {
			return false
		}
	}
	return true
}
