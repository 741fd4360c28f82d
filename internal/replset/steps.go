package replset

import (
	"fmt"
)

// This file implements the protocol steps. The simulator is cooperative:
// each step runs to completion, advancing the shared millisecond clock, so
// runs are deterministic for a given seed and step sequence. Every step
// that changes a node's specification-visible state emits a trace event
// (when tracing is enabled) at the point where the change has happened but
// before any other node can observe it — the visibility rule of §4.2.1.

// ClientWrite executes a write on node i, which must be the leader: an
// entry stamped with the leader's term is appended to its oplog.
func (c *Cluster) ClientWrite(i int) error {
	n := c.nodes[i]
	if !n.Alive {
		return ErrNodeDown
	}
	if n.Role != Leader {
		return ErrNotLeader
	}
	c.clock.Advance(1)
	c.withOplogLock(n, func() {
		n.Entries = append(n.Entries, n.Term)
	})
	return c.traceEvent(n, "ClientWrite")
}

// Heartbeat delivers one heartbeat from node i to node j, if reachable:
// j learns i's election term (stepping down if j was a stale leader) and,
// with a term check, i's commit point. Term and commit-point learning are
// distinct protocol actions and produce distinct trace events.
func (c *Cluster) Heartbeat(i, j int) error {
	if i == j || !c.reachable(i, j) {
		return nil
	}
	src, dst := c.nodes[i], c.nodes[j]
	if dst.Arbiter && dst.logger != nil {
		// §4.2.2 "Arbiters": the tracing instrumentation sits on code
		// paths arbiters also run; the first traced message kills them.
		dst.failed = ErrArbiterTracing
		dst.Alive = false
		return ErrArbiterTracing
	}
	if src.Term > dst.Term {
		dst.Term = src.Term
		if dst.Role == Leader {
			dst.Role = Follower
		}
		if err := c.traceEvent(dst, "UpdateTermThroughHeartbeat"); err != nil {
			return err
		}
	}
	if dst.CommitPoint.Before(src.CommitPoint) && src.CommitPoint.Term <= dst.Term {
		dst.CommitPoint = src.CommitPoint
		if err := c.traceEvent(dst, "LearnCommitPointWithTermCheck"); err != nil {
			return err
		}
	}
	return nil
}

// ChooseSyncSource points follower j at a source to pull from: any alive,
// reachable node whose oplog is ahead (the pull protocol lets followers
// sync from other followers, not only the leader).
func (c *Cluster) ChooseSyncSource(j int) int {
	dst := c.nodes[j]
	dst.SyncSource = -1
	for _, src := range c.nodes {
		if src.ID == j || src.Arbiter || !c.reachable(src.ID, j) {
			continue
		}
		if src.logAheadOf(dst) || (dst.InitialSyncing && src.LastIndex() > 0) {
			dst.SyncSource = src.ID
			break
		}
	}
	return dst.SyncSource
}

// Pull makes follower i fetch from its sync source: one appended entry per
// call (as the specification models), a rollback of the newest divergent
// entry, or an initial-sync batch start. Returns true if any state
// changed.
func (c *Cluster) Pull(i int) (bool, error) {
	n := c.nodes[i]
	if !n.Alive || n.Arbiter {
		return false, nil
	}
	if n.SyncSource < 0 {
		c.ChooseSyncSource(i)
	}
	if n.SyncSource < 0 || !c.reachable(i, n.SyncSource) {
		return false, nil
	}
	src := c.nodes[n.SyncSource]
	c.clock.Advance(1)

	if n.InitialSyncing && len(n.Entries) == 0 && src.LastIndex() > 0 {
		// Begin the copy. The real system copies only recent entries —
		// from the source's commit point, or the log start if the flag
		// is off (the spec's idealized whole-log copy).
		start := 1
		if c.cfg.RecentOnlyInitialSync {
			if cp := src.CommitPoint.Index; cp > 1 {
				start = cp
			}
			if start < src.FirstIndex {
				start = src.FirstIndex
			}
		}
		n.FirstIndex = start
	}

	switch {
	case !n.consistentWith(src) && src.logAheadOf(n) && len(n.Entries) > 0:
		// Divergence: roll back the newest entry.
		c.withOplogLock(n, func() {
			n.Entries = n.Entries[:len(n.Entries)-1]
		})
		return true, c.traceEvent(n, "RollbackOplog")
	case n.consistentWith(src) && src.LastIndex() > n.LastIndex():
		// Append the next missing entry.
		idx := n.LastIndex() + 1
		if len(n.Entries) == 0 {
			idx = n.FirstIndex
		}
		term, ok := src.EntryAt(idx)
		if !ok {
			return false, nil
		}
		c.withOplogLock(n, func() {
			n.Entries = append(n.Entries, term)
		})
		if err := c.traceEvent(n, "AppendOplog"); err != nil {
			return true, err
		}
		if n.InitialSyncing && n.LastIndex() >= src.LastIndex() {
			n.InitialSyncing = false
		}
		// Learn the commit point from the sync source, capped at our own
		// newest applied entry (no term check on this path).
		learned := src.CommitPoint
		last := CommitPoint{Term: n.LastTerm(), Index: n.LastIndex()}
		if last.Before(learned) {
			learned = last
		}
		if n.CommitPoint.Before(learned) {
			n.CommitPoint = learned
			if err := c.traceEvent(n, "LearnCommitPointFromSyncSourceNeverBeyondLastApplied"); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	return false, nil
}

// Election runs a full election attempt by node i: it proposes term+1 and
// collects votes from reachable members (including arbiters). A voter
// grants if the proposed term is newer than any it has seen or voted in
// and the candidate's oplog is at least as up-to-date as its own. Voters
// adopt the proposed term silently (their spec-state change is the
// unobserved part of BecomePrimaryByMagic). With a majority, the candidate
// becomes leader.
func (c *Cluster) Election(i int) (won bool, err error) {
	n := c.nodes[i]
	if !n.Alive || n.Arbiter {
		return false, nil
	}
	c.clock.Advance(1)
	proposed := n.Term + 1
	// Dry-run the vote count first: an attempt that cannot win leaves no
	// state behind (no term churn, no used-up votes), as in an
	// orchestrated failover. Only winning elections mutate the set.
	var granted []*Node
	for _, v := range c.nodes {
		if v.ID == i || !c.reachable(i, v.ID) {
			continue
		}
		if proposed <= v.Term || proposed <= v.VotedTerm {
			continue
		}
		if !v.Arbiter && v.logAheadOf(n) {
			continue
		}
		granted = append(granted, v)
	}
	if 1+len(granted) < c.DataMajority() {
		return false, nil
	}
	n.VotedTerm = proposed
	for _, v := range granted {
		v.VotedTerm = proposed
		v.Term = proposed
		if v.Role == Leader {
			v.Role = Follower
		}
	}
	// becomeLeader (Figure 5): the role change happens under the Global
	// and Oplog locks; the trace logger will find lock B unobtainable and
	// fall back to the MVCC snapshot.
	actor := actorOf(n)
	_ = n.locks.TryAcquire(actor, lockGlobal, lockIX)
	_ = n.locks.TryAcquire(actor, lockOplog, lockS)
	n.Term = proposed
	n.Role = Leader
	err = c.traceEvent(n, "BecomePrimaryByMagic")
	n.locks.ReleaseAll(actor)
	return true, err
}

// Stepdown demotes leader i to follower voluntarily.
func (c *Cluster) Stepdown(i int) error {
	n := c.nodes[i]
	if !n.Alive {
		return ErrNodeDown
	}
	if n.Role != Leader {
		return ErrNotLeader
	}
	c.clock.Advance(1)
	n.Role = Follower
	return c.traceEvent(n, "Stepdown")
}

// AdvanceCommitPoint recomputes leader i's commit point: the newest entry
// of its own term present on a majority of members. Data-bearing members
// always count; initial-syncing members count only under the flawed
// quorum rule (their copies are not durable — the §4.2.2 bug).
func (c *Cluster) AdvanceCommitPoint(i int) (bool, error) {
	n := c.nodes[i]
	if !n.Alive {
		return false, ErrNodeDown
	}
	if n.Role != Leader {
		return false, ErrNotLeader
	}
	c.clock.Advance(1)
	best := n.CommitPoint
	for idx := n.LastIndex(); idx >= n.FirstIndex; idx-- {
		term, ok := n.EntryAt(idx)
		if !ok || term != n.Term {
			break
		}
		have := 0
		for _, m := range c.nodes {
			if m.Arbiter || !m.Alive {
				continue
			}
			if m.InitialSyncing && !c.cfg.FlawedInitialSyncQuorum {
				continue
			}
			if t, ok := m.EntryAt(idx); ok && t == term {
				have++
			}
		}
		if have >= c.DataMajority() {
			cp := CommitPoint{Term: term, Index: idx}
			if best.Before(cp) {
				best = cp
			}
			break
		}
	}
	if best == n.CommitPoint {
		return false, nil
	}
	n.CommitPoint = best
	return true, c.traceEvent(n, "AdvanceCommitPoint")
}

// Kill stops node i.
func (c *Cluster) Kill(i int) {
	c.nodes[i].Alive = false
	c.clock.Advance(1)
}

// Restart brings node i back. An unclean restart during initial sync loses
// the oplog (the copied entries were not yet durable); any other restart
// preserves it. A node that lost its data re-enters initial sync.
func (c *Cluster) Restart(i int, clean bool) {
	n := c.nodes[i]
	c.clock.Advance(1)
	n.Alive = true
	n.Role = Follower
	n.SyncSource = -1
	if !clean && n.InitialSyncing {
		n.Entries = nil
		n.FirstIndex = 1
		n.snapEntries = nil
		n.snapFirst = 1
		n.CommitPoint = CommitPoint{}
	}
	if len(n.Entries) == 0 {
		n.InitialSyncing = true
	}
}

// AddBlankNode marks node i as freshly added: empty oplog, initial sync
// pending.
func (c *Cluster) AddBlankNode(i int) {
	n := c.nodes[i]
	n.Entries = nil
	n.FirstIndex = 1
	n.snapEntries = nil
	n.snapFirst = 1
	n.InitialSyncing = true
	n.CommitPoint = CommitPoint{}
}

// GossipRound delivers heartbeats between all reachable pairs and lets the
// leader advance its commit point — a convenience for scenarios.
func (c *Cluster) GossipRound() error {
	for _, l := range c.Leaders() {
		if _, err := c.AdvanceCommitPoint(l); err != nil && err != ErrNotLeader {
			return err
		}
	}
	for i := range c.nodes {
		for j := range c.nodes {
			if i != j {
				if err := c.Heartbeat(i, j); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ReplicateAll pulls on every follower until nothing changes — a
// convenience for scenarios that want the set to quiesce. Each pull moves
// one entry, so the round bound scales with the longest oplog.
func (c *Cluster) ReplicateAll() error {
	maxLast := 0
	for _, n := range c.nodes {
		if li := n.LastIndex(); li > maxLast {
			maxLast = li
		}
	}
	for rounds := 0; rounds < 3*len(c.nodes)*(maxLast+2)+20; rounds++ {
		changed := false
		for i := range c.nodes {
			c.furthestAheadSource(i)
			did, err := c.Pull(i)
			if err != nil {
				return err
			}
			changed = changed || did
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("replset: replication did not quiesce")
}

// furthestAheadSource points follower j at the reachable source whose log
// is furthest ahead by logAheadOf (last term, then last index), among those
// ChooseSyncSource would accept. It is not ChooseSyncSource, whose first
// acceptable source by id is the modelled pull step the traces record:
// ReplicateAll is a quiesce helper for tests and scenarios, and under
// first-by-id choice two stale nodes can keep syncing from each other,
// never rolling back from the node ahead of both, until the rounds run out.
func (c *Cluster) furthestAheadSource(j int) {
	dst := c.nodes[j]
	dst.SyncSource = -1
	var best *Node
	for _, src := range c.nodes {
		if src.ID == j || src.Arbiter || !c.reachable(src.ID, j) {
			continue
		}
		if (src.logAheadOf(dst) || (dst.InitialSyncing && src.LastIndex() > 0)) && (best == nil || src.logAheadOf(best)) {
			best = src
		}
	}
	if best != nil {
		dst.SyncSource = best.ID
	}
}
