package fuzzer

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/ot"
	"repro/internal/replset"
)

func TestFuzzTransformConverges(t *testing.T) {
	cfg := DefaultTransformConfig()
	rep := FuzzTransform(cfg, ot.NewTransformer(nil, false))
	if rep.Executions != cfg.Executions {
		t.Fatalf("executions = %d", rep.Executions)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("failures: %v", rep.Failures[0])
	}
	if rep.OpsExecuted == 0 {
		t.Fatal("no ops executed")
	}
}

func TestFuzzTransformDeterministic(t *testing.T) {
	cfg := DefaultTransformConfig()
	r1 := FuzzTransform(cfg, ot.NewTransformer(nil, false))
	r2 := FuzzTransform(cfg, ot.NewTransformer(nil, false))
	if r1.OpsExecuted != r2.OpsExecuted {
		t.Fatalf("non-deterministic: %d vs %d ops", r1.OpsExecuted, r2.OpsExecuted)
	}
}

// TestFuzzCoveragePlateau: the default campaign sits on the coverage
// plateau below 100% (the paper's 92% row), and more executions close the
// gap.
func TestFuzzCoveragePlateau(t *testing.T) {
	small := coverage.NewRegistry()
	cfg := DefaultTransformConfig()
	FuzzTransform(cfg, ot.NewTransformer(small, false))
	if small.Fraction() < 0.7 || small.Fraction() >= 1.0 {
		t.Errorf("default campaign coverage %s outside the plateau", small.Report())
	}
	big := coverage.NewRegistry()
	cfg.Executions = 20000
	FuzzTransform(cfg, ot.NewTransformer(big, false))
	if big.Covered() < small.Covered() {
		t.Errorf("more executions lowered coverage: %s -> %s", small.Report(), big.Report())
	}
	t.Logf("coverage: %d execs -> %s; 20000 execs -> %s",
		DefaultTransformConfig().Executions, small.Report(), big.Report())
}

func TestFuzzRollbackRuns(t *testing.T) {
	cfg := DefaultRollbackConfig()
	cfg.Steps = 300
	c, err := replset.New(replset.Config{Nodes: cfg.Nodes, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FuzzRollback(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != cfg.Steps {
		t.Fatalf("steps = %d", rep.Steps)
	}
	if rep.Writes == 0 || rep.Partitions == 0 || rep.Elections == 0 {
		t.Fatalf("report too quiet: %+v", rep)
	}
	// After the final heal-and-converge, all data-bearing nodes agree.
	var ref *replset.Node
	for i := 0; i < c.NumNodes(); i++ {
		n := c.Node(i)
		if n.Arbiter || !n.Alive {
			continue
		}
		if ref == nil {
			ref = n
			continue
		}
		if n.LastIndex() != ref.LastIndex() || n.LastTerm() != ref.LastTerm() {
			t.Fatalf("nodes diverged after heal: node %d (%d,%d) vs node %d (%d,%d)",
				ref.ID, ref.LastTerm(), ref.LastIndex(), n.ID, n.LastTerm(), n.LastIndex())
		}
	}
}

func TestFuzzRollbackSyncBeforeWritesSeedsData(t *testing.T) {
	cfg := DefaultRollbackConfig()
	cfg.Steps = 50
	cfg.SyncBeforeWrites = true
	c, err := replset.New(replset.Config{Nodes: 3, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FuzzRollback(cfg, c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if c.Node(i).LastIndex() == 0 {
			t.Fatalf("node %d empty despite seeding", i)
		}
	}
}

// TestFuzzRollbackQuiesces: after the final heal, ReplicateAll must settle
// the set. With each follower pulling from its first acceptable source by
// id, these runs livelocked — two stale nodes syncing from each other,
// neither rolling back from the node ahead of both — until the round
// bound ran out with "replication did not quiesce".
func TestFuzzRollbackQuiesces(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		seed  int64
	}{{3, 58}, {6, 7}} {
		cfg := DefaultRollbackConfig()
		cfg.Nodes, cfg.Seed, cfg.Steps = tc.nodes, tc.seed, 50
		c, err := replset.New(replset.Config{Nodes: cfg.Nodes, Seed: cfg.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FuzzRollback(cfg, c); err != nil {
			t.Errorf("%d nodes, seed %d: %v", tc.nodes, tc.seed, err)
		}
	}
}
