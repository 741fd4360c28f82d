package scenarios

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
)

var update = flag.Bool("update", false, "rewrite golden files")

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("divergence report deviates from %s.\n got:\n%s\nwant:\n%s\n(re-run with -update only if the change is intended)",
			golden, got, want)
	}
}

// TestTwoLeadersDivergenceGolden locks down the known specification
// divergence of the scenario catalogue: two_leaders_across_partition
// violates the one-leader assumption, so its trace must fail the check at
// a fixed step with a fixed failing event. The pipeline is fully
// deterministic (seeded simulator, simulated clock), so any change to this
// report means the trace capture, post-processing or checking behaviour
// changed.
func TestTwoLeadersDivergenceGolden(t *testing.T) {
	var sc Scenario
	for _, s := range All() {
		if s.Name == "two_leaders_across_partition" {
			sc = s
		}
	}
	if sc.Run == nil {
		t.Fatal("scenario two_leaders_across_partition missing from the catalogue")
	}
	cfg := replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1}
	rep, _, err := mbtc.PipelineOpts(cfg, sc.Run, raftmongo.SpecV2(mbtc.CheckConfig(sc.Nodes)), tla.TraceOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("the two-leader scenario must diverge from the one-leader specification")
	}
	if !rep.Rechecked {
		t.Fatal("a divergence must be confirmed by the unguided checker before it is reported")
	}
	got := fmt.Sprintf("scenario: %s\nevents: %d\nchecked: %d\nfailed step: %d\nfailed event: %s\nmax frontier: %d\n",
		sc.Name, rep.Events, rep.Checked, rep.FailedStep, rep.FailedEvent, rep.MaxFrontier)
	compareGolden(t, "two_leaders_divergence.golden", got)
}
