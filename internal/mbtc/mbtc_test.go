package mbtc

import (
	"strings"
	"testing"

	"repro/internal/fuzzer"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/scenarios"
	"repro/internal/tla"
)

// TestPipelineCleanScenarioPasses is experiment E1: the full MBTC pipeline
// — traced run, log merge, post-processing, trace check — passes for a
// simple conforming workload (an election, then one or two replicated and
// gossiped writes) against the rewritten (V2) specification.
func TestPipelineCleanScenarioPasses(t *testing.T) {
	for _, writes := range []int{1, 2} {
		rep, events, err := PipelineOpts(
			replset.Config{Nodes: 3, Seed: 1},
			func(c *replset.Cluster) error {
				if _, err := c.Election(0); err != nil {
					return err
				}
				for i := 0; i < writes; i++ {
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
			},
			raftmongo.SpecV2(CheckConfig(3)),
			tla.TraceOptions{},
		)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%d writes: trace diverged at step %d (%s); frontier sizes %v",
				writes, rep.FailedStep, rep.FailedEvent, rep.StatesVisited)
		}
		if rep.Events == 0 || len(events) != rep.Events {
			t.Fatalf("%d writes: events = %d", writes, rep.Events)
		}
		t.Logf("%d writes: checked %d events, max frontier %d", writes, rep.Events, rep.MaxFrontier)
	}
}

// TestAllTracingCompatibleScenariosCheck runs every handwritten scenario
// that supports tracing through the pipeline against V2.
func TestAllTracingCompatibleScenariosCheck(t *testing.T) {
	for _, sc := range scenarios.TracingCompatible() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep, _, err := PipelineOpts(
				replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1},
				sc.Run,
				raftmongo.SpecV2(CheckConfig(sc.Nodes)),
				tla.TraceOptions{},
			)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK {
				t.Fatalf("diverged at step %d (%s)", rep.FailedStep, rep.FailedEvent)
			}
		})
	}
}

// TestDiscrepancyArbiters is E6(a): arbiter scenarios crash under tracing
// and must be skipped (the paper's 120 of 423 incompatible tests).
func TestDiscrepancyArbiters(t *testing.T) {
	incompatible := 0
	for _, sc := range scenarios.All() {
		if !sc.TracingIncompatible {
			continue
		}
		incompatible++
		if len(sc.Arbiters) == 0 {
			continue
		}
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			_, _, err := PipelineOpts(
				replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1},
				sc.Run,
				raftmongo.SpecV2(CheckConfig(sc.Nodes)),
				tla.TraceOptions{},
			)
			if err == nil || !strings.Contains(err.Error(), "arbiter crashed") {
				t.Fatalf("err = %v, want arbiter crash", err)
			}
		})
	}
	if incompatible == 0 {
		t.Fatal("no tracing-incompatible scenarios in the catalogue")
	}
	frac := float64(incompatible) / float64(len(scenarios.All()))
	t.Logf("tracing-incompatible scenarios: %d/%d (paper: 120/423 = 28%%)", incompatible, len(scenarios.All()))
	if frac < 0.1 || frac > 0.5 {
		t.Errorf("incompatible fraction %.2f far from the paper's 28%%", frac)
	}
}

// TestDiscrepancyTwoLeaders is E6(c): a deliberate two-leader window
// violates the specification's one-leader assumption; the trace check
// fails, so such tests are avoided (solution 2).
func TestDiscrepancyTwoLeaders(t *testing.T) {
	var sc scenarios.Scenario
	for _, s := range scenarios.All() {
		if s.Name == "two_leaders_across_partition" {
			sc = s
		}
	}
	if sc.Run == nil {
		t.Fatal("scenario missing")
	}
	rep, _, err := PipelineOpts(
		replset.Config{Nodes: sc.Nodes, Seed: 1},
		sc.Run,
		raftmongo.SpecV2(CheckConfig(sc.Nodes)),
		tla.TraceOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("two-leader trace checked clean against a one-leader spec")
	}
	t.Logf("diverged at step %d (%s), as expected", rep.FailedStep, rep.FailedEvent)
}

// TestDiscrepancyInitialSyncQuorum is E6(b): with the flawed quorum rule
// and recent-only initial sync, the rollback fuzzer's trace violates the
// specification within a handful of steps of the offending behaviour —
// and the violation disappears when all followers are synced before
// writes begin (the paper's chosen mitigation).
func TestDiscrepancyInitialSyncQuorum(t *testing.T) {
	run := func(sync bool) *Report {
		t.Helper()
		cfg := fuzzer.DefaultRollbackConfig()
		cfg.Steps = 120
		cfg.SyncBeforeWrites = sync
		rep, _, err := PipelineOpts(
			replset.Config{
				Nodes:                   3,
				Seed:                    cfg.Seed,
				RecentOnlyInitialSync:   true,
				FlawedInitialSyncQuorum: true,
			},
			func(c *replset.Cluster) error {
				_, ferr := fuzzer.FuzzRollback(cfg, c)
				return ferr
			},
			raftmongo.SpecV2(CheckConfig(3)),
			tla.TraceOptions{},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	flawed := run(false)
	if flawed.OK {
		t.Log("flawed run checked clean for this seed; the flaw needs an unclean restart mid-sync")
	} else {
		t.Logf("flawed run diverged at step %d/%d (%s)", flawed.FailedStep, flawed.Events, flawed.FailedEvent)
	}
	mitigated := run(true)
	if !mitigated.OK {
		t.Fatalf("mitigated run diverged at step %d (%s)", mitigated.FailedStep, mitigated.FailedEvent)
	}
}

// TestDiscrepancyTermGossip is E6(d): a multi-term trace with per-node
// terms checks against V2 but not against the original V1 specification,
// whose single global term cannot represent nodes observing different
// terms — the discrepancy that cost the paper's authors a 252-line spec
// rewrite.
func TestDiscrepancyTermGossip(t *testing.T) {
	workload := func(c *replset.Cluster) error {
		if _, err := c.Election(0); err != nil {
			return err
		}
		if err := c.ClientWrite(0); err != nil {
			return err
		}
		if err := c.ReplicateAll(); err != nil {
			return err
		}
		if err := c.GossipRound(); err != nil {
			return err
		}
		// Partition node 2 so it misses the next election's term.
		c.Partition([]int{2}, []int{0, 1})
		if err := c.Stepdown(0); err != nil {
			return err
		}
		if _, err := c.Election(1); err != nil {
			return err
		}
		// The new leader writes in term 2 while node 2 still believes
		// term 1.
		if err := c.ClientWrite(1); err != nil {
			return err
		}
		if err := c.GossipRound(); err != nil {
			return err
		}
		c.Heal()
		if err := c.ReplicateAll(); err != nil {
			return err
		}
		return c.GossipRound()
	}
	repV2, events, err := PipelineOpts(replset.Config{Nodes: 3, Seed: 1}, workload, raftmongo.SpecV2(CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !repV2.OK {
		t.Fatalf("V2 diverged at step %d (%s)", repV2.FailedStep, repV2.FailedEvent)
	}
	repV1, err := CheckEventsOpts(3, events, raftmongo.SpecV1(CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if repV1.OK {
		t.Fatal("V1 (global term) accepted a term-skewed trace")
	}
	t.Logf("V1 diverged at step %d/%d (%s); V2 checked all %d events",
		repV1.FailedStep, repV1.Events, repV1.FailedEvent, repV2.Events)
}

// TestDiscrepancyOplogCopy is E6(e): recent-only initial sync produces
// truncated oplogs; with prefix filling (solution 4) the trace checks, and
// the fills are counted.
func TestDiscrepancyOplogCopy(t *testing.T) {
	rep, _, err := PipelineOpts(
		replset.Config{Nodes: 3, Seed: 1, RecentOnlyInitialSync: true},
		func(c *replset.Cluster) error {
			// Node 2 is down before any writes, so the trace never pins
			// its oplog until it initial-syncs.
			c.Kill(2)
			if _, err := c.Election(0); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if err := c.ClientWrite(0); err != nil {
					return err
				}
			}
			if err := c.ReplicateAll(); err != nil {
				return err
			}
			if err := c.GossipRound(); err != nil {
				return err
			}
			// Node 2 comes back empty and initial-syncs, copying only
			// entries from the commit point on.
			c.Restart(2, true)
			if err := c.ReplicateAll(); err != nil {
				return err
			}
			return c.GossipRound()
		},
		raftmongo.SpecV2(CheckConfig(3)),
		tla.TraceOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixFills == 0 {
		t.Fatal("no prefix fills recorded; recent-only sync not exercised")
	}
	if !rep.OK {
		t.Fatalf("diverged at step %d (%s) despite prefix filling", rep.FailedStep, rep.FailedEvent)
	}
	t.Logf("prefix fills: %d over %d events", rep.PrefixFills, rep.Events)
}

// TestSeededTranscriptionBugCaught: a deliberate implementation bug — the
// leader advances the commit point without a majority — is caught by the
// trace checker, the divergence-detection value MBTC is meant to provide.
func TestSeededTranscriptionBugCaught(t *testing.T) {
	// Simulate the bug by post-editing the trace: the leader claims a
	// commit point one entry beyond what the majority replicated.
	_, events, err := PipelineOpts(
		replset.Config{Nodes: 3, Seed: 1},
		func(c *replset.Cluster) error {
			if _, err := c.Election(0); err != nil {
				return err
			}
			if err := c.ClientWrite(0); err != nil {
				return err
			}
			if err := c.ReplicateAll(); err != nil {
				return err
			}
			return c.GossipRound()
		},
		raftmongo.SpecV2(CheckConfig(3)),
		tla.TraceOptions{},
	)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for i, e := range events {
		if e.Action == "AdvanceCommitPoint" {
			events[i].CommitPointIndex = e.CommitPointIndex + 1 // beyond the log
			mutated = true
			break
		}
	}
	if !mutated {
		t.Fatal("no AdvanceCommitPoint event to corrupt")
	}
	rep, err := CheckEventsOpts(3, events, raftmongo.SpecV2(CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("corrupted trace checked clean")
	}
}

// TestEventVolumes is experiment E5: the scenario suite and a
// representative fuzzer run produce event volumes whose shape matches the
// paper's (hundreds of events across handwritten tests; thousands from
// one fuzzer run).
func TestEventVolumes(t *testing.T) {
	totalScenario := 0
	for _, sc := range scenarios.TracingCompatible() {
		_, events, err := PipelineOpts(replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1}, sc.Run,
			raftmongo.SpecV2(CheckConfig(sc.Nodes)), tla.TraceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		totalScenario += len(events)
	}
	cfg := fuzzer.DefaultRollbackConfig()
	cfg.SyncBeforeWrites = true
	// Collection only: checking a multi-thousand-event trace is the slow
	// path measured by BenchmarkE8.
	events, err := RunTraced(replset.Config{Nodes: 3, Seed: cfg.Seed}, func(c *replset.Cluster) error {
		_, ferr := fuzzer.FuzzRollback(cfg, c)
		return ferr
	})
	if err != nil {
		t.Fatal(err)
	}
	fuzzEvents := len(events)
	perScenario := float64(totalScenario) / float64(len(scenarios.TracingCompatible()))
	t.Logf("scenario suite: %d events over %d scenarios (%.0f/scenario; paper: 42,262 over ~300 traced tests ≈ 140/test)",
		totalScenario, len(scenarios.TracingCompatible()), perScenario)
	t.Logf("rollback fuzzer run: %d events (paper: 2,683)", fuzzEvents)
	if perScenario < 5 {
		t.Errorf("scenarios emit too few events (%f)", perScenario)
	}
	if fuzzEvents < 100 {
		t.Errorf("fuzzer emitted only %d events", fuzzEvents)
	}
}
