// External test package: mbtc imports replset, so the cross-check of the
// replica-set trace-checking path at different worker counts has to live
// outside package replset to avoid an import cycle.
package replset_test

import (
	"reflect"
	"testing"

	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
)

// TestTraceCheckParallelAgrees runs one deterministic replica-set workload
// through the MBTC pipeline at several trace-checker worker counts and
// requires identical reports: the parallel frontier advance must not change
// what the checker accepts or how it explains it.
func TestTraceCheckParallelAgrees(t *testing.T) {
	workload := func(c *replset.Cluster) error {
		if _, err := c.Election(0); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := c.ClientWrite(0); err != nil {
				return err
			}
			if err := c.ReplicateAll(); err != nil {
				return err
			}
			if err := c.GossipRound(); err != nil {
				return err
			}
		}
		return nil
	}
	events, err := mbtc.RunTraced(replset.Config{Nodes: 3, Seed: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	spec := raftmongo.SpecV2(mbtc.CheckConfig(3))
	want, err := mbtc.CheckEventsOpts(3, events, spec, tla.TraceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !want.OK {
		t.Fatalf("sequential check rejected the trace: %+v", want)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := mbtc.CheckEventsOpts(3, events, spec, tla.TraceOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: report differs:\n got  %+v\n want %+v", w, got, want)
		}
	}
}
