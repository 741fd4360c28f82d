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
//
// States are values (raftmongo.State) and their oplogs immutable,
// prefix-shared lists: N's new oplog reuses the longest prefix it has in
// common with any oplog of the state before it and allocates only the
// entries past that, so an event that appends or rolls back one entry
// costs one small allocation or none, not a copy of N's log.
//
// Process refuses more than raftmongo.MaxNodes nodes, and events whose
// term, commit point, oplog entries or oplog length exceed
// raftmongo.MaxValue.
func Process(nodes int, events []Event, opts ProcessOptions) (*ProcessResult, error) {
	if nodes < 0 || nodes > raftmongo.MaxNodes {
		return nil, fmt.Errorf("trace: %d nodes, want 0..%d (raftmongo.MaxNodes)", nodes, raftmongo.MaxNodes)
	}
	cur := raftmongo.NewState(nodes)
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

// combine implements the Figure 3 transition S + E -> S'.
func combine(s raftmongo.State, e Event, opts ProcessOptions) (raftmongo.State, bool, error) {
	n := e.Node
	next := s
	switch e.Role {
	case "Leader":
		for i := range next.NumNodes() {
			next.Roles[i] = raftmongo.Follower
		}
		next.Roles[n] = raftmongo.Leader
	case "Follower":
		next.Roles[n] = raftmongo.Follower
	default:
		return next, false, fmt.Errorf("unknown role %q", e.Role)
	}
	term, err := raftmongo.Narrow("term", e.Term)
	if err != nil {
		return next, false, err
	}
	cp, err := e.CommitPoint()
	if err != nil {
		return next, false, err
	}
	next.Terms[n], next.CommitPoints[n] = term, cp

	var prefix raftmongo.Oplog
	switch {
	case e.OplogStart == 1 || (e.OplogStart == 0 && len(e.Oplog) == 0):
		// Complete oplog reported.
	case e.OplogStart > 1:
		if !opts.FillOplogPrefixes {
			return next, false, fmt.Errorf("node %d reported a truncated oplog (start %d) and prefix filling is disabled", n, e.OplogStart)
		}
		if prefix, err = findPrefix(s, n, e.OplogStart-1, e.Oplog); err != nil {
			return next, false, err
		}
	default:
		return next, false, fmt.Errorf("node %d event has invalid oplog start %d", n, e.OplogStart)
	}
	if next.Oplogs[n], err = shareOplog(s, prefix, e.Oplog); err != nil {
		return next, false, err
	}
	return next, e.OplogStart > 1, nil
}

// shareOplog returns the oplog prefix followed by suffix, built on the
// longest start of it that some node's oplog in s already holds: only the
// entries past that are allocated (in one block), and the event's slice is
// never retained. prefix is empty or a prefix of an oplog in s.
func shareOplog(s raftmongo.State, prefix raftmongo.Oplog, suffix []int) (raftmongo.Oplog, error) {
	base, need := prefix, prefix.Len()
	for _, log := range s.Oplogs[:s.Nodes] {
		if log.Len() > base.Len() && prefix.IsPrefixOf(log) {
			if k := need + log.CommonPrefix(need, suffix); k > base.Len() {
				base = log.Prefix(k)
			}
		}
	}
	return base.Extend(suffix[base.Len()-need:])
}

// findPrefix locates the missing first `need` oplog entries for node n by
// searching the other nodes' current oplogs for one that is consistent
// with the reported suffix. This mirrors the paper's Python logic that
// "filled in the missing entries while it generated the state sequence" —
// and inherits its documented risk: a bug here could mask a real
// transcription bug, which is why PrefixFill events are counted and
// reported. The prefix is returned as a view of the donor's oplog, not a
// copy.
func findPrefix(s raftmongo.State, n, need int, suffix []int) (raftmongo.Oplog, error) {
	// The node's own previous (already filled) oplog is the natural donor:
	// the hidden prefix cannot have changed while the node rolled back or
	// appended at the tail.
	if own := s.Oplogs[n]; own.Len() >= need {
		return own.Prefix(need), nil
	}
	for j := range s.NumNodes() {
		donor := s.Oplogs[j]
		if j == n || donor.Len() < need {
			continue
		}
		// The donor's entries after the prefix must agree with the
		// reported suffix on their overlap.
		if donor.CommonPrefix(need, suffix) == min(len(suffix), donor.Len()-need) {
			return donor.Prefix(need), nil
		}
	}
	return raftmongo.Oplog{}, fmt.Errorf("no node's oplog can supply the %d missing prefix entries for node %d", need, n)
}
