package trace

import (
	"fmt"
	"slices"

	"repro/internal/raftmongo"
)

// This file is the Go port of the paper's Python post-processing script
// (Figure 3): it folds a timestamp-ordered stream of single-node trace
// events into a sequence of whole-replica-set specification states.

// ProcessOptions tune the state-sequence construction.
type ProcessOptions struct {
	// FillOplogPrefixes enables "solution 4" for the copying-the-oplog
	// discrepancy (§4.2.2): when a node reports an oplog that starts past
	// entry 1 (it initial-synced only recent entries), the processor
	// fills in the missing prefix from another node whose oplog overlaps
	// consistently, simulating the conformant spec behaviour of copying
	// the whole log. Without this option such events are an error.
	FillOplogPrefixes bool
}

// ProcessResult carries the constructed state sequence and accounting.
type ProcessResult struct {
	States     []raftmongo.State
	Actions    []string // Actions[i] produced States[i+1]
	PrefixFill int      // events whose oplogs were repaired (solution 4)
}

// Process builds the replica-set state sequence from merged events,
// starting from the canonical initial state (every node a follower at term
// 0 with an empty oplog and NULL commit point). The combination rule is
// the paper's:
//
//   - role: the script assumes at most one leader at a time. If the event
//     reports node N as Leader, N becomes Leader and all others Follower.
//     If N was Leader and now reports Follower, only N changes.
//   - term, commitPoint, oplog: N's values are replaced; others keep theirs.
//
// Like the specification's own successors, the states are copy-on-write:
// each replaces node N's oplog and its own small role, term and commit
// point slices, and shares every other node's oplog with the state before
// it, so an event costs the length of N's log, not of every log. The
// States therefore share slices and must be treated as immutable; every
// oplog is capped at its length, so appending to one copies.
func Process(nodes int, events []Event, opts ProcessOptions) (*ProcessResult, error) {
	cur := initialState(nodes)
	res := &ProcessResult{
		States:  append(make([]raftmongo.State, 0, len(events)+1), cur),
		Actions: make([]string, 0, len(events)),
	}
	for i, e := range events {
		if e.Node < 0 || e.Node >= nodes {
			return nil, fmt.Errorf("trace: event %d names node %d of %d", i, e.Node, nodes)
		}
		next, filled, err := combine(cur, e, opts)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d (%s at %v): %w", i, e.Action, e.Timestamp, err)
		}
		if filled {
			res.PrefixFill++
		}
		res.States = append(res.States, next)
		res.Actions = append(res.Actions, e.Action)
		cur = next
	}
	return res, nil
}

func initialState(nodes int) raftmongo.State {
	s := raftmongo.State{
		Roles:        make([]raftmongo.Role, nodes),
		Terms:        make([]int, nodes),
		CommitPoints: make([]raftmongo.CommitPoint, nodes),
		Oplogs:       make([][]int, nodes),
	}
	for i := range s.Oplogs {
		s.Oplogs[i] = []int{}
	}
	return s
}

// combine implements the Figure 3 transition S + E -> S'.
func combine(s raftmongo.State, e Event, opts ProcessOptions) (raftmongo.State, bool, error) {
	n := e.Node
	next := cloneState(s)
	switch e.Role {
	case "Leader":
		for i := range next.Roles {
			next.Roles[i] = raftmongo.Follower
		}
		next.Roles[n] = raftmongo.Leader
	case "Follower":
		next.Roles[n] = raftmongo.Follower
	default:
		return next, false, fmt.Errorf("unknown role %q", e.Role)
	}
	next.Terms[n] = e.Term
	next.CommitPoints[n] = e.CommitPoint()

	var prefix []int
	switch {
	case e.OplogStart == 1 || (e.OplogStart == 0 && len(e.Oplog) == 0):
		// Complete oplog reported.
	case e.OplogStart > 1:
		if !opts.FillOplogPrefixes {
			return next, false, fmt.Errorf("node %d reported a truncated oplog (start %d) and prefix filling is disabled", n, e.OplogStart)
		}
		var err error
		if prefix, err = findPrefix(s, n, e.OplogStart-1, e.Oplog); err != nil {
			return next, false, err
		}
	default:
		return next, false, fmt.Errorf("node %d event has invalid oplog start %d", n, e.OplogStart)
	}
	// One exactly sized copy: the state owns its log, never the event's.
	oplog := make([]int, len(prefix)+len(e.Oplog))
	copy(oplog[copy(oplog, prefix):], e.Oplog)
	next.Oplogs[n] = oplog
	return next, e.OplogStart > 1, nil
}

// findPrefix locates the missing first `need` oplog entries for node n by
// searching the other nodes' current oplogs for one that is consistent
// with the reported suffix. This mirrors the paper's Python logic that
// "filled in the missing entries while it generated the state sequence" —
// and inherits its documented risk: a bug here could mask a real
// transcription bug, which is why PrefixFill events are counted and
// reported. The prefix is returned as a view of the donor's oplog, not a
// copy.
func findPrefix(s raftmongo.State, n, need int, suffix []int) ([]int, error) {
	// The node's own previous (already filled) oplog is the natural donor:
	// the hidden prefix cannot have changed while the node rolled back or
	// appended at the tail.
	if len(s.Oplogs[n]) >= need {
		return s.Oplogs[n][:need], nil
	}
	for j := range s.Oplogs {
		if j == n {
			continue
		}
		donor := s.Oplogs[j]
		if len(donor) < need {
			continue
		}
		// The donor's entries after the prefix must agree with the
		// reported suffix on their overlap.
		ok := true
		for k := 0; k < len(suffix) && need+k < len(donor); k++ {
			if donor[need+k] != suffix[k] {
				ok = false
				break
			}
		}
		if ok {
			return donor[:need], nil
		}
	}
	return nil, fmt.Errorf("no node's oplog can supply the %d missing prefix entries for node %d", need, n)
}

// cloneState returns a copy of s whose role, term and commit point slices
// and outer oplog array are its own; the oplogs themselves are shared.
func cloneState(s raftmongo.State) raftmongo.State {
	return raftmongo.State{
		Roles:        slices.Clone(s.Roles),
		Terms:        slices.Clone(s.Terms),
		CommitPoints: slices.Clone(s.CommitPoints),
		Oplogs:       slices.Clone(s.Oplogs),
	}
}
