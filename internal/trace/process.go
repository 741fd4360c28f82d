package trace

import (
	"fmt"

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
func Process(nodes int, events []Event, opts ProcessOptions) (*ProcessResult, error) {
	cur := initialState(nodes)
	res := &ProcessResult{States: []raftmongo.State{cur}}
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

	oplog := append([]int(nil), e.Oplog...)
	filled := false
	switch {
	case e.OplogStart == 1 || (e.OplogStart == 0 && len(oplog) == 0):
		// Complete oplog reported.
	case e.OplogStart > 1:
		if !opts.FillOplogPrefixes {
			return next, false, fmt.Errorf("node %d reported a truncated oplog (start %d) and prefix filling is disabled", n, e.OplogStart)
		}
		prefix, err := findPrefix(s, n, e.OplogStart-1, oplog)
		if err != nil {
			return next, false, err
		}
		oplog = append(append([]int(nil), prefix...), oplog...)
		filled = true
	default:
		return next, false, fmt.Errorf("node %d event has invalid oplog start %d", n, e.OplogStart)
	}
	next.Oplogs[n] = oplog
	return next, filled, nil
}

// findPrefix locates the missing first `need` oplog entries for node n by
// searching the other nodes' current oplogs for one that is consistent
// with the reported suffix. This mirrors the paper's Python logic that
// "filled in the missing entries while it generated the state sequence" —
// and inherits its documented risk: a bug here could mask a real
// transcription bug, which is why PrefixFill events are counted and
// reported.
func findPrefix(s raftmongo.State, n, need int, suffix []int) ([]int, error) {
	// The node's own previous (already filled) oplog is the natural donor:
	// the hidden prefix cannot have changed while the node rolled back or
	// appended at the tail.
	if len(s.Oplogs[n]) >= need {
		return append([]int(nil), s.Oplogs[n][:need]...), nil
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
			return append([]int(nil), donor[:need]...), nil
		}
	}
	return nil, fmt.Errorf("no node's oplog can supply the %d missing prefix entries for node %d", need, n)
}

func cloneState(s raftmongo.State) raftmongo.State {
	c := raftmongo.State{
		Roles:        append([]raftmongo.Role(nil), s.Roles...),
		Terms:        append([]int(nil), s.Terms...),
		CommitPoints: append([]raftmongo.CommitPoint(nil), s.CommitPoints...),
		Oplogs:       make([][]int, len(s.Oplogs)),
	}
	for i, log := range s.Oplogs {
		c.Oplogs[i] = append([]int(nil), log...)
	}
	return c
}
