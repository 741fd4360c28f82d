package raftmongo

import (
	"fmt"
	"slices"
)

// This file implements the named state transitions of RaftMongo.tla, shared
// between the V1 and V2 spec variants. Every function enumerates all
// successors of a state via one action, across all nodes (and source nodes,
// for the gossip actions), exactly as a TLA+ action quantified over the
// server set.
//
// A successor is a copy of its parent State, appended to the result and
// edited there, so the 80-byte state is copied once (the helpers take the
// state by pointer, copying nothing); oplogs are immutable lists (see
// Oplog), so a successor shares every oplog with its parent and only
// ClientWrite allocates, the one entry it appends.
//
// Each action counts its successors before it builds them: it returns nil
// when there are none, and otherwise allocates its result once, at exactly
// that length, so the result never regrows and carries no unused capacity.
// The fill pass emits the successors in the order the count pass visits
// them, which is the order state ids, DOT dumps and counterexamples rely on.

// appendOplog: node i receives entries from any node j that is strictly
// ahead and whose oplog extends i's. The MongoDB Server uses a pull
// protocol, so any node — not only the leader — can be a sync source. Any
// batch size up to the full gap may transfer in one step: the paper's
// specification models initial sync as copying the leader's entire oplog
// at once, which is what makes the post-processor's prefix filling
// (solution 4) produce checkable traces.
//
// Because i's log is a prefix of j's, i's new log is exactly j's first k
// entries, shared with j. Each source contributes one successor per entry
// of the gap, so the result's length is the sum of the gaps; a source's
// successors are filled from the longest down, in one walk back along j's
// entries.
func appendOplog(s State) []State {
	n := s.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s.canSyncFrom(i, j) {
				count += s.Oplogs[j].Len() - s.Oplogs[i].Len()
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, count)
	pos := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !s.canSyncFrom(i, j) {
				continue
			}
			gap := s.Oplogs[j].Len() - s.Oplogs[i].Len()
			e := s.Oplogs[j].last
			for k := gap - 1; k >= 0; k-- {
				out[pos+k] = s
				out[pos+k].Oplogs[i] = Oplog{e}
				e = e.prev
			}
			pos += gap
		}
	}
	return out
}

// canSyncFrom reports whether node i can fetch entries from node j: j's
// oplog strictly extends i's.
func (s *State) canSyncFrom(i, j int) bool {
	return i != j && s.Oplogs[j].Len() > s.Oplogs[i].Len() && s.isPrefix(i, j)
}

// rollbackOplog: node i removes its newest oplog entry because some node j
// is strictly more up-to-date and their logs have diverged (i's log is not
// a prefix of j's). Repeated application removes the whole divergent
// suffix.
func rollbackOplog(s State) []State {
	n := s.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		if s.mustRollback(i) {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i := 0; i < n; i++ {
		if s.mustRollback(i) {
			out = append(out, s)
			c := &out[len(out)-1]
			c.Oplogs[i] = Oplog{s.Oplogs[i].last.prev}
		}
	}
	return out
}

// mustRollback reports whether node i's non-empty oplog has diverged from
// that of some more up-to-date node.
func (s *State) mustRollback(i int) bool {
	if s.Oplogs[i].Len() == 0 {
		return false
	}
	for j := range s.NumNodes() {
		if j != i && s.logAhead(j, i) && !s.isPrefix(i, j) {
			return true
		}
	}
	return false
}

// quorums enumerates, for every node i of an n-node set, every majority
// subset of {0..n-1} containing i: quorums(n)[i] lists i first, then the
// other members in increasing order, and the subsets in depth-first order.
// They depend only on n, so the spec constructors compute them once.
func quorums(n int) [][][]int {
	out := make([][][]int, n)
	for i := range out {
		out[i] = appendQuorums(nil, []int{i}, 0, n, i)
	}
	return out
}

// appendQuorums appends to out every majority that extends cur (which
// holds candidate i) with members drawn from {start..n-1} \ {i}.
func appendQuorums(out [][]int, cur []int, start, n, i int) [][]int {
	if len(cur) >= Majority(n) {
		out = append(out, slices.Clone(cur))
	}
	for j := start; j < n; j++ {
		if j != i {
			out = appendQuorums(out, append(cur, j), j+1, n, i)
		}
	}
	return out
}

// becomePrimaryByMagic: node i is elected leader instantaneously — the
// election protocol is abstracted away. A quorum of voters must exist, none
// of whose oplogs is more up-to-date than i's (Raft's voting rule).
//
// In V1 (globalTerm) the new term is the global term + 1 and every node
// knows it immediately — the original specification's idealization that
// MBTC exposed as unrealistic (§4.2.2 "Term").
//
// In V2 — the post-MBTC rewrite — the new term is one past the largest term
// any voter knows, and only the leader and its voters learn it; the rest of
// the set discovers it later through UpdateTermThroughHeartbeat, "each
// learning the new term at a different time". Updating the voters' terms in
// the action is what provides election safety: any two majorities overlap,
// so a second election must pick a strictly larger term. (A trace event
// reports only the new leader's state; the trace checker treats the voters'
// term updates as unobserved variables — Pressler's refinement technique.)
//
// Both variants keep the original specification's simplifying assumption of
// at most one leader at a time (§4.2.2 "Two leaders"): on election, every
// other node reverts to follower.
//
// qs is quorums(n) for the state's node count n. A new term past
// MaxValue panics, which the checker reports as a spec panic.
func becomePrimaryByMagic(s State, qs [][][]int, globalTerm bool) []State {
	n := s.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		for _, q := range qs[i] {
			if s.canElect(i, q) {
				count++
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i := 0; i < n; i++ {
		for _, q := range qs[i] {
			if !s.canElect(i, q) {
				continue
			}
			out = append(out, s)
			c := &out[len(out)-1]
			for j := range n {
				c.Roles[j] = Follower
			}
			c.Roles[i] = Leader
			if globalTerm {
				newTerm := nextTerm(s.maxTerm())
				for j := range n {
					c.Terms[j] = newTerm
				}
			} else {
				newTerm := 0
				for _, j := range q {
					newTerm = max(newTerm, int(s.Terms[j]))
				}
				t := nextTerm(newTerm)
				for _, j := range q {
					c.Terms[j] = t
				}
			}
		}
	}
	return out
}

// nextTerm returns t+1, panicking past MaxValue.
func nextTerm(t int) int16 {
	if t >= MaxValue {
		panic(fmt.Sprintf("raftmongo: an election past term %d (MaxValue)", MaxValue))
	}
	return int16(t + 1)
}

// canElect reports whether quorum q can elect node i: no voter's oplog is
// more up-to-date than i's.
func (s *State) canElect(i int, q []int) bool {
	for _, j := range q {
		if s.logAhead(j, i) {
			return false
		}
	}
	return true
}

// leaders returns the number of nodes that believe they are leader.
func (s *State) leaders() int {
	count := 0
	for _, r := range s.Roles[:s.Nodes] {
		if r == Leader {
			count++
		}
	}
	return count
}

// stepdown: a leader voluntarily becomes a follower.
func stepdown(s State) []State {
	count := s.leaders()
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i, r := range s.Roles[:s.Nodes] {
		if r == Leader {
			out = append(out, s)
			c := &out[len(out)-1]
			c.Roles[i] = Follower
		}
	}
	return out
}

// clientWrite: a leader executes a write, appending an entry stamped with
// its current term to its own oplog: the one allocation per successor any
// action makes.
func clientWrite(s State) []State {
	count := s.leaders()
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i, r := range s.Roles[:s.Nodes] {
		if r == Leader {
			out = append(out, s)
			c := &out[len(out)-1]
			c.Oplogs[i] = s.Oplogs[i].appendEntry(s.Terms[i])
		}
	}
	return out
}

// advanceCommitPoint: the leader advances its commit point to the newest
// entry of its oplog that a majority of nodes have replicated. Per Raft's
// commit rule, the leader only directly commits entries from its own
// current term.
func advanceCommitPoint(s State) []State {
	count := 0
	for i := range s.NumNodes() {
		if _, ok := s.committable(i); ok {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i := range s.NumNodes() {
		if cp, ok := s.committable(i); ok {
			out = append(out, s)
			c := &out[len(out)-1]
			c.CommitPoints[i] = cp
		}
	}
	return out
}

// committable returns the commit point leader i can advance to, and false
// when i is not a leader or its commit point cannot move.
func (s *State) committable(i int) (CommitPoint, bool) {
	if s.Roles[i] != Leader {
		return CommitPoint{}, false
	}
	n := s.NumNodes()
	best := s.CommitPoints[i]
	// One cursor per node walks back alongside e, so each oplog is walked
	// once however many entries of the current term i holds.
	var at [MaxNodes]*entry
	for j := range n {
		at[j] = s.Oplogs[j].last
	}
	for e := s.Oplogs[i].last; e != nil; e = e.prev {
		if e.term != s.Terms[i] {
			break // older-term entries commit only transitively
		}
		have := 0
		for j := range n {
			for at[j] != nil && at[j].n > e.n {
				at[j] = at[j].prev
			}
			if at[j] != nil && at[j].n == e.n && at[j].term == e.term {
				have++
			}
		}
		if have >= Majority(n) {
			cp := CommitPoint{Term: e.term, Index: e.n}
			if best.Before(cp) {
				best = cp
			}
			break
		}
	}
	return best, best != s.CommitPoints[i]
}

// learnCommitPointV1: in the global-term variant, a node simply copies a
// newer commit point from any node — with a single global term there is
// nothing to cross-check.
func learnCommitPointV1(s State) []State {
	return learnCommitPoints(&s, func(i, j int) (CommitPoint, bool) {
		return s.CommitPoints[j], s.CommitPoints[i].Before(s.CommitPoints[j])
	})
}

// learnCommitPoints builds the successors of a commit-point gossip action:
// node i adopts the commit point learn(i, j) returns for every ordered pair
// of distinct nodes for which it returns true.
func learnCommitPoints(s *State, learn func(i, j int) (CommitPoint, bool)) []State {
	n := s.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if _, ok := learn(i, j); ok {
					count++
				}
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				if cp, ok := learn(i, j); ok {
					out = append(out, *s)
					c := &out[len(out)-1]
					c.CommitPoints[i] = cp
				}
			}
		}
	}
	return out
}

// updateTermThroughHeartbeat: node i learns a newer election term from any
// node j. If i believed itself leader, discovering a newer term makes it
// step down — as in the implementation.
func updateTermThroughHeartbeat(s State) []State {
	n := s.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s.Terms[j] > s.Terms[i] {
				count++
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]State, 0, count)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if s.Terms[j] <= s.Terms[i] {
				continue
			}
			out = append(out, s)
			c := &out[len(out)-1]
			c.Roles[i] = Follower
			c.Terms[i] = s.Terms[j]
		}
	}
	return out
}

// learnCommitPointWithTermCheck: node i adopts node j's newer commit point
// only if the commit point's term is not newer than i's own term — a node
// must not trust a commit point from a term it has not yet heard of.
func learnCommitPointWithTermCheck(s State) []State {
	return learnCommitPoints(&s, func(i, j int) (CommitPoint, bool) {
		cp := s.CommitPoints[j]
		return cp, s.CommitPoints[i].Before(cp) && cp.Term <= s.Terms[i]
	})
}

// learnCommitPointFromSyncSourceNeverBeyondLastApplied: node i learns the
// commit point from a node j it could sync from (i's oplog is a prefix of
// j's), capped at i's own last applied entry — a node may not advertise a
// commit point beyond the data it actually has.
func learnCommitPointFromSyncSource(s State) []State {
	return learnCommitPoints(&s, func(i, j int) (CommitPoint, bool) {
		li := s.Oplogs[i]
		if li.Len() == 0 || !s.isPrefix(i, j) {
			return CommitPoint{}, false
		}
		learned := s.CommitPoints[j]
		if lastApplied := (CommitPoint{Term: li.last.term, Index: li.last.n}); lastApplied.Before(learned) {
			learned = lastApplied
		}
		return learned, s.CommitPoints[i].Before(learned)
	})
}
