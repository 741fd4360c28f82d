package locking

import (
	"testing"

	"repro/internal/race"
	"repro/internal/tla"
)

// TestNextAllocsPerSuccessor pins what Acquire and Release allocate: one
// exactly sized result slice per call that has successors, and nothing per
// successor. A SpecState is a pointer-free value, so a successor is a copy
// of its parent inside that slice — no row slice of its own, no append
// regrowth — and a retained successor pins only its own 25 bytes.
func TestNextAllocsPerSuccessor(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	spec := Spec(SpecConfig{Actors: 3})
	res, err := tla.Check(spec, tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	var sample []SpecState
	succs, calls := 0, 0
	for id := 0; id < res.Graph.Len(); id++ {
		s := res.Graph.StateAt(id)
		sample = append(sample, s)
		for _, a := range spec.Actions {
			if n := len(a.Next(s)); n > 0 {
				succs += n
				calls++
			}
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		for _, s := range sample {
			for _, a := range spec.Actions {
				a.Next(s)
			}
		}
	})
	// One slice per non-empty call, with 1% slack for the runtime's own
	// odd allocation; a row slice per successor would double the count,
	// and append regrowth would add about half an allocation per successor.
	want := 1.01 * float64(calls)
	t.Logf("%d states, %d successors, %d non-empty calls, %.0f allocations (%.2f per successor)", len(sample), succs, calls, allocs, allocs/float64(succs))
	if allocs > want {
		t.Fatalf("Next allocates %.0f times for %d successors in %d calls, want at most %.0f", allocs, succs, calls, want)
	}
}
