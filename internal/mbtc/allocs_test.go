package mbtc

import (
	"testing"

	"repro/internal/race"
	"repro/internal/trace"
)

// TestObservationsAllocsPerCall pins ObservationsFromProcessed to two
// allocations whatever the event count: the observation slice and the
// block of NodeObs its entries point into (the initial observation is an
// int-sized value, which the runtime boxes without allocating).
func TestObservationsAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	events := fuzzTrace(t, 7, 300, true)
	processed, err := trace.Process(3, events, trace.ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 10, len(events)} {
		if got := testing.AllocsPerRun(20, func() { ObservationsFromProcessed(3, events[:n], processed) }); got != 2 {
			t.Errorf("%d events: %.1f allocations, want 2", n, got)
		}
	}
}
