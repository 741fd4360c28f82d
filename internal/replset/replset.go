// Package replset implements the system under test of the paper's MBTC
// case study: a replica set speaking a pull-based, Raft-inspired
// replication protocol — elections with terms, oplog replication by
// pulling from a sync source, rollback of divergent entries, commit-point
// gossip via heartbeats, initial sync, and arbiters — driven by a
// deterministic, seeded simulator with network partitions and node
// restarts.
//
// The implementation deliberately carries the MongoDB Server behaviours the
// paper's trace-checking exposed (§4.2.2):
//
//   - initial sync copies only recent oplog entries (OplogStart > 1),
//   - entries replicated during initial sync are not durable until the
//     sync completes (an unclean restart loses them), yet the leader counts
//     initial-syncing members toward the commit quorum (the known bug),
//   - two leaders can coexist briefly across a partition,
//   - arbiters crash when trace logging is enabled.
//
// Each of these is configurable so experiments can turn the non-conforming
// behaviour off — the paper's "solution 2", avoiding the behaviour in
// testing.
package replset

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/locking"
	"repro/internal/trace"
)

// Role is a node's current role.
type Role uint8

// Node roles. Arbiters are vote-only members, modelled as followers with
// no data.
const (
	Follower Role = iota
	Leader
)

func (r Role) String() string {
	if r == Leader {
		return "Leader"
	}
	return "Follower"
}

// ErrArbiterTracing reproduces §4.2.2 "Arbiters": "arbiters crash when
// tracing is enabled". Any traced action on an arbiter fails the node.
var ErrArbiterTracing = errors.New("replset: arbiter crashed: trace logging is not supported on arbiters")

// ErrNotLeader is returned for leader-only operations on a follower.
var ErrNotLeader = errors.New("replset: node is not the leader")

// ErrNodeDown is returned for operations on a stopped node.
var ErrNodeDown = errors.New("replset: node is down")

// CommitPoint is a node's commit point: the term and 1-based index of the
// newest entry it knows a majority holds; the zero value is NULL. It is
// the implementation's own, unbounded type: the trace post-processor
// checks its values against the specification's bounds.
type CommitPoint struct {
	Term  int
	Index int
}

// Before reports whether c is strictly older than d in (term, index) order.
func (c CommitPoint) Before(d CommitPoint) bool {
	if c.Term != d.Term {
		return c.Term < d.Term
	}
	return c.Index < d.Index
}

func (c CommitPoint) String() string {
	if c == (CommitPoint{}) {
		return "NULL"
	}
	return fmt.Sprintf("%d.%d", c.Term, c.Index)
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the total member count, including arbiters.
	Nodes int
	// Arbiters lists member ids configured as arbiters.
	Arbiters []int
	// Seed drives all randomized decisions.
	Seed int64
	// RecentOnlyInitialSync makes initial sync copy only entries from the
	// sync source's commit point onward, so a synced node's oplog starts
	// past entry 1 — the "copying the oplog" discrepancy (§4.2.2).
	RecentOnlyInitialSync bool
	// FlawedInitialSyncQuorum makes the leader count initial-syncing
	// members toward the commit-point majority — the known implementation
	// bug the paper's trace checker reproduced (§4.2.2 "Initial sync").
	FlawedInitialSyncQuorum bool
	// TraceSinks, when non-nil, enables trace logging: one writer per
	// node. Arbiters crash when traced.
	TraceSinks []io.Writer
}

// Node is one replica-set member.
type Node struct {
	ID      int
	Arbiter bool

	Alive          bool
	Role           Role
	Term           int
	VotedTerm      int
	CommitPoint    CommitPoint
	SyncSource     int // -1 when none
	InitialSyncing bool

	// The oplog: Entries[k] is the term of entry FirstIndex+k. FirstIndex
	// is 1 for a node with a complete log, and larger after a
	// recent-entries-only initial sync.
	FirstIndex int
	Entries    []int

	// oplogSnapshot is the MVCC stale-read fallback for the trace logger
	// (§4.2.1): a copy of (FirstIndex, Entries) taken whenever the oplog
	// lock is released after a mutation.
	snapFirst   int
	snapEntries []int

	locks  *locking.Manager
	logger *trace.Logger
	failed error // set when the node crashed (e.g. traced arbiter)
}

// LastIndex returns the index of the node's newest entry, 0 when empty.
func (n *Node) LastIndex() int { return n.FirstIndex + len(n.Entries) - 1 }

// LastTerm returns the term of the newest entry, 0 when empty.
func (n *Node) LastTerm() int {
	if len(n.Entries) == 0 {
		return 0
	}
	return n.Entries[len(n.Entries)-1]
}

// EntryAt returns the term of entry idx (1-based) and whether the node has
// it.
func (n *Node) EntryAt(idx int) (int, bool) {
	if idx < n.FirstIndex || idx > n.LastIndex() {
		return 0, false
	}
	return n.Entries[idx-n.FirstIndex], true
}

// logAheadOf reports whether n's oplog is strictly more up-to-date than
// m's, by last term then last index.
func (n *Node) logAheadOf(m *Node) bool {
	if n.LastTerm() != m.LastTerm() {
		return n.LastTerm() > m.LastTerm()
	}
	return n.LastIndex() > m.LastIndex()
}

// consistentWith reports whether the two oplogs agree on their overlapping
// index range.
func (n *Node) consistentWith(m *Node) bool {
	lo := n.FirstIndex
	if m.FirstIndex > lo {
		lo = m.FirstIndex
	}
	hi := n.LastIndex()
	if m.LastIndex() < hi {
		hi = m.LastIndex()
	}
	for idx := lo; idx <= hi; idx++ {
		a, _ := n.EntryAt(idx)
		b, _ := m.EntryAt(idx)
		if a != b {
			return false
		}
	}
	return true
}

// Cluster is a simulated replica set.
type Cluster struct {
	cfg   Config
	nodes []*Node
	clock *trace.SimClock
	rng   *rand.Rand
	// partitioned[i][j] blocks messages from i to j (and is kept
	// symmetric).
	partitioned map[[2]int]bool

	staleSnapshotTraces int
	eventCount          int
}

// New builds a cluster per cfg. All nodes start alive as followers at term
// 0 with empty oplogs.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("replset: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.TraceSinks != nil && len(cfg.TraceSinks) != cfg.Nodes {
		return nil, fmt.Errorf("replset: %d trace sinks for %d nodes", len(cfg.TraceSinks), cfg.Nodes)
	}
	c := &Cluster{
		cfg:         cfg,
		clock:       trace.NewSimClock(0),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		partitioned: make(map[[2]int]bool),
	}
	arbiter := make(map[int]bool)
	for _, a := range cfg.Arbiters {
		arbiter[a] = true
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:         i,
			Arbiter:    arbiter[i],
			Alive:      true,
			SyncSource: -1,
			FirstIndex: 1,
			snapFirst:  1,
			locks:      locking.NewManager(),
		}
		if cfg.TraceSinks != nil {
			n.logger = trace.NewLogger(c.clock, cfg.TraceSinks[i])
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Node returns member i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NumNodes returns the member count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Clock exposes the simulated clock.
func (c *Cluster) Clock() *trace.SimClock { return c.clock }

// EventCount returns the number of trace events emitted so far.
func (c *Cluster) EventCount() int { return c.eventCount }

// StaleSnapshotTraces returns how many trace events had to read the oplog
// from the MVCC snapshot because lock ordering forbade a current read —
// the §4.2.1 workaround, counted.
func (c *Cluster) StaleSnapshotTraces() int { return c.staleSnapshotTraces }

// DataMajority returns the commit quorum size: a majority of all voting
// members (arbiters vote but hold no data; the protocol still requires a
// majority of the full membership to acknowledge a write via data-bearing
// members plus, erroneously or not, syncing members).
func (c *Cluster) DataMajority() int { return len(c.nodes)/2 + 1 }

// reachable reports whether i can currently talk to j.
func (c *Cluster) reachable(i, j int) bool {
	if i == j {
		return true
	}
	ni, nj := c.nodes[i], c.nodes[j]
	if !ni.Alive || !nj.Alive || ni.failed != nil || nj.failed != nil {
		return false
	}
	return !c.partitioned[[2]int{i, j}]
}

// Partition cuts the links between every pair in (as × bs).
func (c *Cluster) Partition(as, bs []int) {
	for _, a := range as {
		for _, b := range bs {
			c.partitioned[[2]int{a, b}] = true
			c.partitioned[[2]int{b, a}] = true
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.partitioned = make(map[[2]int]bool) }

// Leaders returns the ids of current leaders (normally at most one, but
// two can coexist across a partition).
func (c *Cluster) Leaders() []int {
	var out []int
	for _, n := range c.nodes {
		if n.Alive && n.Role == Leader {
			out = append(out, n.ID)
		}
	}
	return out
}
