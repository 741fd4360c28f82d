// Package raftmongo transcribes RaftMongo.tla — the MongoDB Server
// replication specification the paper trace-checked — into an executable
// specification over the tla checker.
//
// The specification's primary concern, per the paper, is the gossip protocol
// by which nodes learn the commit point: the newest oplog entry replicated
// by a majority. Each node's state is four variables: role, term,
// commitPoint and oplog. Elections are abstracted to a single
// BecomePrimaryByMagic action. Replication is pull-based: followers fetch
// entries from any node that is ahead, rather than the leader pushing.
//
// Two variants are provided, mirroring the paper's §4.2.2 "Term"
// discrepancy:
//
//   - V1 is the original pre-MBTC specification: the election term is a
//     single global number known instantaneously by all nodes, and at most
//     one leader exists at a time.
//   - V2 is the post-MBTC rewrite (252 of 345 lines changed, three weeks of
//     effort, per the paper): terms are gossiped, each node learns the new
//     term at a different time via UpdateTermThroughHeartbeat, and the two
//     extra commit-point learning actions are modelled. V2's state space is
//     roughly an order of magnitude larger — the paper's 42,034 → 371,368
//     explosion (experiment E7).
package raftmongo

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/tla"
)

// Role is a node's replica-set role.
type Role uint8

// Roles, as in the specification: nodes are leaders or followers. (Arbiters
// exist only in the implementation — RaftMongo.tla does not model them,
// which is discrepancy (a) of §4.2.2.)
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

// CommitPoint identifies a majority-committed oplog entry by term and
// 1-based index. The zero value is the specification's NULL (nothing
// committed yet).
type CommitPoint struct {
	Term  int
	Index int
}

// IsNull reports whether the commit point is the specification's NULL.
func (c CommitPoint) IsNull() bool { return c == CommitPoint{} }

// Before reports whether c is strictly older than d in (term, index) order.
func (c CommitPoint) Before(d CommitPoint) bool {
	if c.Term != d.Term {
		return c.Term < d.Term
	}
	return c.Index < d.Index
}

func (c CommitPoint) String() string {
	if c.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("%d.%d", c.Term, c.Index)
}

// State is a replica-set state: per-node role, term, commit point, and
// oplog. An oplog is the sequence of terms of its entries (entry index is
// the position). In V1 all Terms entries are equal (the global term).
//
// States are immutable values. An action builds a successor as a shallow
// copy of its parent that replaces only the slices it changes, so
// successors share every unchanged slice — and oplog backing arrays — with
// their parent and with each other. Nothing may write into a state's
// slices once it exists; code that needs a modified state allocates the
// slices it changes.
type State struct {
	Roles        []Role
	Terms        []int
	CommitPoints []CommitPoint
	Oplogs       [][]int
}

// NumNodes returns the number of nodes in the replica set.
func (s State) NumNodes() int { return len(s.Roles) }

// Key implements tla.State with a canonical encoding.
func (s State) Key() string {
	var b strings.Builder
	for i := range s.Roles {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s,%d,%s,", s.Roles[i], s.Terms[i], s.CommitPoints[i])
		for j, t := range s.Oplogs[i] {
			if j > 0 {
				b.WriteByte('.')
			}
			fmt.Fprintf(&b, "%d", t)
		}
	}
	return b.String()
}

func (s State) String() string { return s.Key() }

// AppendBinary implements tla.BinaryState: a byte-packed encoding the
// checker fingerprints directly, with no Key() string built on the hot
// path. Per node: role byte, term, commit point (term, index), then the
// length-prefixed oplog — all varint-encoded, so the encoding is uniquely
// decodable for a fixed node count and therefore agrees with Key():
// encodings are equal iff the states are (FuzzBinaryKeyAgreement enforces
// this on randomized states).
func (s State) AppendBinary(buf []byte) []byte {
	for i := range s.Roles {
		buf = append(buf, byte(s.Roles[i]))
		buf = binary.AppendUvarint(buf, uint64(s.Terms[i]))
		buf = binary.AppendUvarint(buf, uint64(s.CommitPoints[i].Term))
		buf = binary.AppendUvarint(buf, uint64(s.CommitPoints[i].Index))
		buf = binary.AppendUvarint(buf, uint64(len(s.Oplogs[i])))
		for _, t := range s.Oplogs[i] {
			buf = binary.AppendUvarint(buf, uint64(t))
		}
	}
	return buf
}

// DecodeBinary implements tla.BinaryDecoder: the inverse of AppendBinary.
// The per-node encoding is self-delimiting, so the node count is recovered
// by decoding until the buffer is exhausted — a zero-value receiver works;
// no run configuration is needed.
func (s State) DecodeBinary(enc []byte) (State, error) {
	var out State
	uvarint := func() (uint64, error) {
		v, k := binary.Uvarint(enc)
		if k <= 0 {
			return 0, fmt.Errorf("raftmongo: decode: truncated varint at node %d", len(out.Roles))
		}
		enc = enc[k:]
		return v, nil
	}
	for len(enc) > 0 {
		role := enc[0]
		if role > byte(Leader) {
			return State{}, fmt.Errorf("raftmongo: decode: bad role byte %d at node %d", role, len(out.Roles))
		}
		enc = enc[1:]
		term, err := uvarint()
		if err != nil {
			return State{}, err
		}
		cpTerm, err := uvarint()
		if err != nil {
			return State{}, err
		}
		cpIndex, err := uvarint()
		if err != nil {
			return State{}, err
		}
		logLen, err := uvarint()
		if err != nil {
			return State{}, err
		}
		if logLen > uint64(len(enc)) {
			return State{}, fmt.Errorf("raftmongo: decode: oplog length %d exceeds %d remaining bytes", logLen, len(enc))
		}
		log := make([]int, logLen)
		for i := range log {
			t, err := uvarint()
			if err != nil {
				return State{}, err
			}
			log[i] = int(t)
		}
		out.Roles = append(out.Roles, Role(role))
		out.Terms = append(out.Terms, int(term))
		out.CommitPoints = append(out.CommitPoints, CommitPoint{Term: int(cpTerm), Index: int(cpIndex)})
		out.Oplogs = append(out.Oplogs, log)
	}
	return out, nil
}

// NodeOrbits is the spec's symmetry declaration (tla.Spec.SymmetryVisitor):
// node ids are interchangeable — Init treats all nodes identically, every
// action quantifies over all nodes, and oplog entries carry terms, never
// node ids — so relabelling nodes maps behaviours to behaviours. Each call
// returns a fresh per-worker visitor that hands the codec the orbit's
// representative and nothing else. A node's AppendBinary record is
// self-delimiting, so no record is a prefix of another, and the least
// encoding in the orbit is the one with the records in bytes.Compare
// order: the visitor insertion-sorts the node indices with compareNodes,
// which orders records exactly that way, and visits s itself when it is
// already sorted, otherwise the sorted image built in one scratch state
// reused across calls (oplogs are aliased, not copied: images are only
// encoded, never retained or mutated). One encode per state, no
// allocation beyond the scratch's one-time growth.
func NodeOrbits() tla.OrbitVisitor[State] {
	var (
		scratch State
		order   []int
	)
	return func(s State, visit func(State)) {
		n := s.NumNodes()
		if len(order) != n {
			order = make([]int, n)
			scratch = State{
				Roles:        make([]Role, n),
				Terms:        make([]int, n),
				CommitPoints: make([]CommitPoint, n),
				Oplogs:       make([][]int, n),
			}
		}
		for i := range order {
			order[i] = i
		}
		moved := false
		for i := 1; i < n; i++ {
			for j := i; j > 0 && compareNodes(s, order[j-1], order[j]) > 0; j-- {
				order[j-1], order[j] = order[j], order[j-1]
				moved = true
			}
		}
		if !moved {
			visit(s)
			return
		}
		for k, i := range order {
			scratch.Roles[k] = s.Roles[i]
			scratch.Terms[k] = s.Terms[i]
			scratch.CommitPoints[k] = s.CommitPoints[i]
			scratch.Oplogs[k] = s.Oplogs[i]
		}
		visit(scratch)
	}
}

// compareNodes orders nodes i and j of s as bytes.Compare orders their
// AppendBinary records: role byte, then term, commit point, oplog length
// and entries, each as its uvarint bytes.
func compareNodes(s State, i, j int) int {
	if c := cmp.Compare(s.Roles[i], s.Roles[j]); c != 0 {
		return c
	}
	if c := compareUvarint(uint64(s.Terms[i]), uint64(s.Terms[j])); c != 0 {
		return c
	}
	ci, cj := s.CommitPoints[i], s.CommitPoints[j]
	if c := compareUvarint(uint64(ci.Term), uint64(cj.Term)); c != 0 {
		return c
	}
	if c := compareUvarint(uint64(ci.Index), uint64(cj.Index)); c != 0 {
		return c
	}
	li, lj := s.Oplogs[i], s.Oplogs[j]
	if c := compareUvarint(uint64(len(li)), uint64(len(lj))); c != 0 {
		return c
	}
	for k := range li {
		if c := compareUvarint(uint64(li[k]), uint64(lj[k])); c != 0 {
			return c
		}
	}
	return 0
}

// compareUvarint orders a and b as bytes.Compare orders their
// binary.AppendUvarint encodings. Those are little-endian 7-bit groups
// with a continuation bit, so the order is numeric only while either value
// is below 128; above, the low groups decide first.
func compareUvarint(a, b uint64) int {
	for a >= 0x80 && b >= 0x80 {
		if c := cmp.Compare(a&0x7f, b&0x7f); c != 0 {
			return c
		}
		a, b = a>>7, b>>7
	}
	return cmp.Compare(a, b)
}

// NodePermutations is the brute-force orbit of s: its n!-1 images under
// the non-identity node permutations, as freshly allocated states. Its
// least encoding, s's own included, is the representative NodeOrbits
// visits.
//
// Deprecated: use NodeOrbits (the spec constructors already do); this
// remains only as the oracle the visitor is tested against.
func NodePermutations(s State) []State {
	var out []State
	tla.Permutations(s.NumNodes(), func(perm []int) {
		out = append(out, permuteNodes(s, perm))
	})
	return out
}

// permuteNodes returns s with node i's variables moved to index perm[i].
// Oplogs are shared, not copied: permuted states are only encoded and
// discarded, never mutated.
func permuteNodes(s State, perm []int) State {
	n := s.NumNodes()
	t := State{
		Roles:        make([]Role, n),
		Terms:        make([]int, n),
		CommitPoints: make([]CommitPoint, n),
		Oplogs:       make([][]int, n),
	}
	for i, p := range perm {
		t.Roles[p] = s.Roles[i]
		t.Terms[p] = s.Terms[i]
		t.CommitPoints[p] = s.CommitPoints[i]
		t.Oplogs[p] = s.Oplogs[i]
	}
	return t
}

// LastTerm returns the term of node i's newest oplog entry, 0 if empty.
func (s State) LastTerm(i int) int {
	log := s.Oplogs[i]
	if len(log) == 0 {
		return 0
	}
	return log[len(log)-1]
}

// logAhead reports whether node j's oplog is strictly more up-to-date than
// node i's, by the Raft comparison: last term, then length.
func (s State) logAhead(j, i int) bool {
	lt, li := s.LastTerm(j), s.LastTerm(i)
	if lt != li {
		return lt > li
	}
	return len(s.Oplogs[j]) > len(s.Oplogs[i])
}

// isPrefix reports whether node i's oplog is a prefix of node j's.
func (s State) isPrefix(i, j int) bool {
	if len(s.Oplogs[i]) > len(s.Oplogs[j]) {
		return false
	}
	for k, t := range s.Oplogs[i] {
		if s.Oplogs[j][k] != t {
			return false
		}
	}
	return true
}

// maxTerm returns the largest term known by any node.
func (s State) maxTerm() int {
	m := 0
	for _, t := range s.Terms {
		if t > m {
			m = t
		}
	}
	return m
}

// Majority returns the quorum size for n nodes.
func Majority(n int) int { return n/2 + 1 }

// Config bounds the model, mirroring the TLC configuration in the paper:
// 3 nodes, at most 3 terms, oplogs of at most 3 entries.
type Config struct {
	Nodes     int
	MaxTerm   int
	MaxLogLen int
	// Symmetric declares the node ids interchangeable (TLC's SYMMETRY
	// clause over the server set): the spec constructors attach
	// NodeOrbits, and the checker explores one representative per
	// node-permutation orbit — up to Nodes! fewer states, identical
	// invariant verdicts. Sound for full model checking; trace checking
	// ignores it (observations name concrete nodes).
	Symmetric bool
}

// symmetry returns the spec's per-worker orbit-visitor factory per the
// config.
func (c Config) symmetry() func() tla.OrbitVisitor[State] {
	if !c.Symmetric {
		return nil
	}
	return NodeOrbits
}

// DefaultConfig is the configuration the paper model-checked: TLC discovers
// 371,368 distinct states for the rewritten spec under it.
var DefaultConfig = Config{Nodes: 3, MaxTerm: 3, MaxLogLen: 3}

func (c Config) initState() State {
	s := State{
		Roles:        make([]Role, c.Nodes),
		Terms:        make([]int, c.Nodes),
		CommitPoints: make([]CommitPoint, c.Nodes),
		Oplogs:       make([][]int, c.Nodes),
	}
	for i := range s.Oplogs {
		s.Oplogs[i] = []int{}
	}
	return s
}

// constraint is the TLC state constraint: bounded terms and oplog lengths.
func (c Config) constraint(s State) bool {
	if s.maxTerm() > c.MaxTerm {
		return false
	}
	for _, log := range s.Oplogs {
		if len(log) > c.MaxLogLen {
			return false
		}
	}
	return true
}

// commitPointIsCommitted is the safety invariant "committed writes are not
// rolled back": every node's non-NULL commit point must denote an entry
// present in a majority of oplogs. A rollback of a majority-committed entry
// falsifies it.
func commitPointIsCommitted(s State) error {
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		cp := s.CommitPoints[i]
		if cp.IsNull() {
			continue
		}
		have := 0
		for j := 0; j < n; j++ {
			if len(s.Oplogs[j]) >= cp.Index && s.Oplogs[j][cp.Index-1] == cp.Term {
				have++
			}
		}
		if have < Majority(n) {
			return fmt.Errorf("node %d commit point %s present on %d/%d nodes (< majority)", i, cp, have, n)
		}
	}
	return nil
}

// oneLeaderPerTerm is Raft's election safety invariant: at most one leader
// in any term. (V1 additionally assumes at most one leader at a time; see
// SpecV1.)
func oneLeaderPerTerm(s State) error {
	leaders := make(map[int]int)
	for i, r := range s.Roles {
		if r != Leader {
			continue
		}
		if j, dup := leaders[s.Terms[i]]; dup {
			return fmt.Errorf("nodes %d and %d are both leaders in term %d", j, i, s.Terms[i])
		}
		leaders[s.Terms[i]] = i
	}
	return nil
}

// CommitPointsEqual reports whether every node agrees on the commit point —
// the target of the paper's temporal property that the commit point is
// eventually propagated (checked via tla.CheckEventuallyWithin in the tests).
func CommitPointsEqual(s State) bool {
	for i := 1; i < s.NumNodes(); i++ {
		if s.CommitPoints[i] != s.CommitPoints[0] {
			return false
		}
	}
	return true
}
