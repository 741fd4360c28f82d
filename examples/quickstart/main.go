// Quickstart: the conformance toolkit in thirty lines. Model-check a
// specification, then trace-check an observed execution against it.
package main

import (
	"fmt"
	"log"

	"repro/internal/raftmongo"
	"repro/internal/tla"
)

func main() {
	// 1. Model-check the RaftMongo specification under a small bound:
	//    every reachable state satisfies the safety invariants.
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	res, err := tla.Check(raftmongo.SpecV2(cfg), tla.Options{})
	if err != nil {
		log.Fatalf("model checking failed: %v", err)
	}
	fmt.Printf("model checked %d distinct states, depth %d — invariants hold\n",
		res.Distinct, res.Depth)

	// 2. Trace-check an execution: a leader is elected, writes, and the
	//    entry replicates. Each observation is a full replica-set state.
	spec := raftmongo.SpecV2(raftmongo.Config{Nodes: 3, MaxTerm: 10, MaxLogLen: 10})
	s0 := spec.Init()[0]
	s1 := pick(spec, s0, "BecomePrimaryByMagic") // node elected
	s2 := pick(spec, s1, "ClientWrite")          // leader writes
	s3 := pick(spec, s2, "AppendOplog")          // a follower replicates
	trace := []tla.Observation[raftmongo.State]{
		tla.FullObservation[raftmongo.State]{Want: s0},
		tla.FullObservation[raftmongo.State]{Want: s1},
		tla.FullObservation[raftmongo.State]{Want: s2},
		tla.FullObservation[raftmongo.State]{Want: s3},
	}
	tr, err := tla.CheckTrace(spec, trace)
	if err != nil {
		log.Fatalf("trace check: %v", err)
	}
	fmt.Printf("trace of %d observations is a behaviour of the specification: %v\n",
		tr.Steps, tr.OK)

	// 3. A corrupted trace (an impossible jump) is rejected with the step.
	bad := trace[:2]
	bogus := s3
	bad = append(bad, tla.FullObservation[raftmongo.State]{Want: bogus})
	if _, err := tla.CheckTrace(spec, bad); err != nil {
		fmt.Printf("corrupted trace rejected: %v\n", err)
	}
}

// pick takes the first successor of s via the named action.
func pick(spec *tla.Spec[raftmongo.State], s raftmongo.State, action string) raftmongo.State {
	for _, a := range spec.Actions {
		if a.Name == action {
			succs := a.Next(s)
			if len(succs) == 0 {
				log.Fatalf("action %s not enabled in %s", action, s.Key())
			}
			return succs[0]
		}
	}
	log.Fatalf("no action %s", action)
	panic("unreachable")
}
