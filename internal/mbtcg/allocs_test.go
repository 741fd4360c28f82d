package mbtcg

import (
	"testing"

	"repro/internal/ot"
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

// TestRunAllocsPerCase pins what running a generated case costs beyond the
// merge rules: the deployment and its shared initial array, each client's
// array (none after a clear) and log for its own op, and one array and one
// log per merge side that receives a non-empty batch. The transformer's
// own allocations — the implementation under test — are measured by
// replaying the case's TransformLists calls, and added to the bound.
func TestRunAllocsPerCase(t *testing.T) {
	if raceEnabled {
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
		want := 2.0
		for _, op := range tc.ClientOps {
			want += 2
			if op.Kind == ot.KindClear {
				want--
			}
		}
		for _, call := range rec.calls {
			if len(call.asOut) > 0 {
				want += 2
			}
		}
		want += testing.AllocsPerRun(5, func() {
			for _, call := range rec.calls {
				tr.TransformLists(call.as, call.bs)
			}
		})
		n := testing.AllocsPerRun(5, func() { Run(tc, tr) })
		if n > want {
			t.Fatalf("%s: Run allocates %.0f times, want at most %.0f", tc.Name, n, want)
		}
		got, bound = got+n, bound+want
	}
	t.Logf("%.0f allocations, bound %.0f", got, bound)
}
