package scenarios

import (
	"reflect"
	"testing"

	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
)

// TestScenariosCheckParallelAgrees runs a few tracing-compatible scenarios
// through the full MBTC pipeline at 1 and 4 trace-checker workers and
// requires identical reports — the scenario catalogue is the §4.1 workload
// the parallel checker must not change the verdict on.
func TestScenariosCheckParallelAgrees(t *testing.T) {
	compatible := TracingCompatible()
	if len(compatible) < 3 {
		t.Fatalf("only %d tracing-compatible scenarios", len(compatible))
	}
	for _, sc := range compatible[:3] {
		cfg := replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1}
		spec := raftmongo.SpecV2(mbtc.CheckConfig(sc.Nodes))
		want, _, err := mbtc.PipelineOpts(cfg, sc.Run, spec, tla.TraceOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", sc.Name, err)
		}
		got, _, err := mbtc.PipelineOpts(cfg, sc.Run, spec, tla.TraceOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s workers=4: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reports differ:\n got  %+v\n want %+v", sc.Name, got, want)
		}
	}
}
