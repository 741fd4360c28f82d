// The Section 4 case study end to end: run a replica-set failover workload
// with trace logging, post-process the per-node logs into a state sequence,
// and check it against both RaftMongo specification variants — showing why
// the original (V1, global term) spec had to be rewritten, and how the
// checker catches a seeded transcription bug.
package main

import (
	"fmt"
	"log"

	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
)

func main() {
	// A failover workload: writes in term 1, a partitioned node misses
	// the election, the new leader writes in term 2, then the set heals.
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
		c.Partition([]int{2}, []int{0, 1})
		if err := c.Stepdown(0); err != nil {
			return err
		}
		if _, err := c.Election(1); err != nil {
			return err
		}
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

	cfg := replset.Config{Nodes: 3, Seed: 1}

	// Against the rewritten specification (V2, gossiped terms): PASS.
	repV2, events, err := mbtc.PipelineOpts(cfg, workload, raftmongo.SpecV2(mbtc.CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V2 (terms gossiped):   %d events checked, OK=%v, max frontier %d\n",
		repV2.Events, repV2.OK, repV2.MaxFrontier)

	// Against the original specification (V1, one global term): FAIL —
	// the partitioned node observes an older term than the new leader,
	// which a global term cannot represent. This is the discrepancy that
	// cost the paper's authors a 252-line specification rewrite.
	repV1, err := mbtc.CheckEventsOpts(3, events, raftmongo.SpecV1(mbtc.CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V1 (one global term):  diverges at step %d of %d (%s)\n",
		repV1.FailedStep, repV1.Events, repV1.FailedEvent)

	// Seed a transcription bug — the commit point claims an entry beyond
	// the majority — and the checker pinpoints it.
	for i, e := range events {
		if e.Action == "AdvanceCommitPoint" {
			events[i].CommitPointIndex += 3
			break
		}
	}
	repBug, err := mbtc.CheckEventsOpts(3, events, raftmongo.SpecV2(mbtc.CheckConfig(3)), tla.TraceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded bug:            diverges at step %d (%s)\n",
		repBug.FailedStep, repBug.FailedEvent)
}
