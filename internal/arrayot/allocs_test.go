package arrayot

import (
	"testing"

	"repro/internal/ot"
	"repro/internal/tla"
)

// TestNextAllocsPerSuccessor pins what an array_ot successor costs on a
// sample of the paper configuration's reachable states. A ClientOp
// successor is its deployment's one-allocation block, the client's new
// array (none for a clear) and its log, plus per call one result slice and
// the Performed counts every successor shares. A MergeAction successor is
// the block, the result slice, and per merge side the reference
// transformer's one block when both unmerged tails are non-empty, and one
// array and one log when the rebased batch is.
func TestNextAllocsPerSuccessor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cfg := DefaultConfig()
	spec := Spec(cfg)
	res, err := tla.Check(spec, tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	clientOpNext, mergeNext := spec.Actions[0].Next, spec.Actions[1].Next
	var ops, merges int
	var got, bound float64
	for id := 0; id < res.Graph.Len(); id += 13 {
		s := res.Graph.StateAt(id)
		if succs := clientOpNext(s); len(succs) > 0 {
			ops++
			want := float64(2 + 3*len(succs) - 1) // the result and the shared counts; one choice is the clear
			n := testing.AllocsPerRun(5, func() { clientOpNext(s) })
			if n > want {
				t.Fatalf("ClientOp allocates %.0f times for %d successors of %s, want at most %.0f", n, len(succs), s.Key(), want)
			}
			got, bound = got+n, bound+want
		}
		if len(mergeNext(s)) == 0 {
			continue
		}
		merges++
		c := 0
		for !s.Net.HasUnmerged(c) {
			c++
		}
		serverTail, clientTail := s.Net.Unmerged(c)
		clientT, _, _ := cfg.Transformer.TransformLists(clientTail, serverTail)
		serverT, _, _ := cfg.Transformer.TransformLists(serverTail, clientTail)
		want := 2.0
		if len(serverTail) > 0 && len(clientTail) > 0 {
			want += 2
		}
		for _, batch := range [][]ot.Op{clientT, serverT} {
			if len(batch) > 0 {
				want += 2
			}
		}
		n := testing.AllocsPerRun(5, func() { mergeNext(s) })
		if n > want {
			t.Fatalf("MergeAction allocates %.0f times for %s, want at most %.0f", n, s.Key(), want)
		}
		got, bound = got+n, bound+want
	}
	if ops == 0 || merges == 0 {
		t.Fatalf("sampled %d ClientOp and %d MergeAction states, want some of each", ops, merges)
	}
	t.Logf("%d ClientOp and %d MergeAction states sampled: %.0f allocations, bound %.0f", ops, merges, got, bound)
}
