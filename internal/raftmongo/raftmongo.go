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
	"strconv"

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
// committed yet). Both fields lie in 0..MaxValue.
type CommitPoint struct {
	Term  int16
	Index int16
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
	var scratch [16]byte
	return string(c.appendTo(scratch[:0]))
}

// appendTo appends c as String formats it: NULL, or term.index.
func (c CommitPoint) appendTo(dst []byte) []byte {
	if c.IsNull() {
		return append(dst, "NULL"...)
	}
	dst = strconv.AppendInt(dst, int64(c.Term), 10)
	return strconv.AppendInt(append(dst, '.'), int64(c.Index), 10)
}

// MaxNodes bounds the replica-set size: a State keeps its per-node
// variables in fixed arrays, so it is a value an action copies and edits
// in place instead of allocating. The spec constructors, DecodeBinary,
// the trace post-processor and the CLIs refuse more nodes.
const MaxNodes = 5

// State is a replica-set state: for each of its Nodes nodes, role, term,
// commit point and oplog — the specification's four variables. In V1 all
// Terms entries are equal (the global term). Entries at index Nodes and
// above are always zero; code reads only the first Nodes.
//
// A State is a value: an action copies its parent into its result and
// edits the copied fields. The one shared part is the oplogs, immutable
// lists (see Oplog) that a successor shares with its parent and its
// siblings, so a state never needs more than the entries ClientWrite
// appends.
type State struct {
	Nodes        uint8
	Roles        [MaxNodes]Role
	Terms        [MaxNodes]int16
	CommitPoints [MaxNodes]CommitPoint
	Oplogs       [MaxNodes]Oplog
}

// NewState returns the specification's initial state for n nodes: every
// node a follower at term 0 with a NULL commit point and an empty oplog.
// It panics unless 0 ≤ n ≤ MaxNodes.
func NewState(n int) State {
	if n < 0 || n > MaxNodes {
		panic(fmt.Sprintf("raftmongo: %d nodes, want 0..%d (MaxNodes)", n, MaxNodes))
	}
	return State{Nodes: uint8(n)}
}

// MakeState builds a state from per-node slices of equal length, with
// the bounds DecodeBinary applies: at most MaxNodes nodes, every term,
// commit-point field and oplog entry in 0..MaxValue.
func MakeState(roles []Role, terms []int, cps []CommitPoint, oplogs [][]int) (State, error) {
	n := len(roles)
	if len(terms) != n || len(cps) != n || len(oplogs) != n {
		return State{}, fmt.Errorf("raftmongo: ragged state: %d roles, %d terms, %d commit points, %d oplogs", n, len(terms), len(cps), len(oplogs))
	}
	if n > MaxNodes {
		return State{}, fmt.Errorf("raftmongo: %d nodes, more than MaxNodes (%d)", n, MaxNodes)
	}
	s := State{Nodes: uint8(n)}
	for i := range n {
		if roles[i] > Leader {
			return State{}, fmt.Errorf("raftmongo: node %d: bad role %d", i, roles[i])
		}
		if cps[i].Term < 0 || cps[i].Index < 0 {
			return State{}, fmt.Errorf("raftmongo: node %d: negative commit point %d.%d", i, cps[i].Term, cps[i].Index)
		}
		term, err := Narrow("term", terms[i])
		if err != nil {
			return State{}, fmt.Errorf("node %d: %w", i, err)
		}
		log, err := Oplog{}.Extend(oplogs[i])
		if err != nil {
			return State{}, fmt.Errorf("node %d: %w", i, err)
		}
		s.Roles[i], s.Terms[i], s.CommitPoints[i], s.Oplogs[i] = roles[i], term, cps[i], log
	}
	return s, nil
}

// NumNodes returns the number of nodes in the replica set.
func (s State) NumNodes() int { return int(s.Nodes) }

// Key implements tla.State with a canonical encoding: AppendKey's bytes,
// formatted in a stack buffer.
func (s State) Key() string {
	var scratch [256]byte
	return string(s.AppendKey(scratch[:0]))
}

// AppendKey implements tla.State: per node its role, term, commit point
// and oplog terms (joined by '.'), comma separated, nodes separated by
// '|'.
func (s State) AppendKey(b []byte) []byte {
	var terms [16]int
	for i := range s.NumNodes() {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, s.Roles[i].String()...)
		b = strconv.AppendInt(append(b, ','), int64(s.Terms[i]), 10)
		b = s.CommitPoints[i].appendTo(append(b, ','))
		b = append(b, ',')
		for j, t := range s.Oplogs[i].appendTerms(terms[:0]) {
			if j > 0 {
				b = append(b, '.')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
	}
	return b
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
	for i := range s.NumNodes() {
		buf = append(buf, byte(s.Roles[i]))
		buf = binary.AppendUvarint(buf, uint64(s.Terms[i]))
		buf = binary.AppendUvarint(buf, uint64(s.CommitPoints[i].Term))
		buf = binary.AppendUvarint(buf, uint64(s.CommitPoints[i].Index))
		buf = s.Oplogs[i].appendBinary(buf)
	}
	return buf
}

// DecodeBinary implements tla.BinaryDecoder: the inverse of AppendBinary.
// The per-node encoding is self-delimiting, so the node count is recovered
// by decoding until the buffer is exhausted — a zero-value receiver works;
// no run configuration is needed. It refuses more than MaxNodes nodes and
// any number above MaxValue. A first pass validates the encoding and
// counts the oplog entries, so the second builds every oplog of the state
// in one allocation.
func (s State) DecodeBinary(enc []byte) (State, error) {
	var out State
	var logAt [MaxNodes][]byte // each node's oplog entries, still encoded
	entries := 0
	node := 0
	value := func(what string) (int16, error) {
		v, k := binary.Uvarint(enc)
		if k <= 0 {
			return 0, fmt.Errorf("raftmongo: decode: truncated varint at node %d", node)
		}
		enc = enc[k:]
		if v > MaxValue {
			return 0, fmt.Errorf("raftmongo: decode: node %d: %s %d above MaxValue (%d)", node, what, v, MaxValue)
		}
		return int16(v), nil
	}
	for ; len(enc) > 0; node++ {
		if node == MaxNodes {
			return State{}, fmt.Errorf("raftmongo: decode: more than MaxNodes (%d) nodes", MaxNodes)
		}
		role := enc[0]
		if role > byte(Leader) {
			return State{}, fmt.Errorf("raftmongo: decode: bad role byte %d at node %d", role, node)
		}
		enc = enc[1:]
		out.Roles[node] = Role(role)
		var err error
		if out.Terms[node], err = value("term"); err != nil {
			return State{}, err
		}
		if out.CommitPoints[node].Term, err = value("commit-point term"); err != nil {
			return State{}, err
		}
		if out.CommitPoints[node].Index, err = value("commit-point index"); err != nil {
			return State{}, err
		}
		logLen, err := value("oplog length")
		if err != nil {
			return State{}, err
		}
		if int(logLen) > len(enc) {
			return State{}, fmt.Errorf("raftmongo: decode: oplog length %d exceeds %d remaining bytes", logLen, len(enc))
		}
		from := enc
		for range logLen {
			if _, err := value("oplog entry term"); err != nil {
				return State{}, err
			}
		}
		logAt[node] = from[:len(from)-len(enc)]
		entries += int(logLen)
	}
	out.Nodes = uint8(node)
	block := make([]entry, entries)
	for i, log := range logAt[:node] {
		var prev *entry
		for n := int16(1); len(log) > 0; n++ {
			t, k := binary.Uvarint(log)
			log = log[k:]
			block[0] = entry{prev: prev, term: int16(t), n: n}
			prev, block = &block[0], block[1:]
		}
		out.Oplogs[i] = Oplog{prev}
	}
	return out, nil
}

// NodeOrbits is the spec's symmetry declaration (tla.Spec.SymmetryVisitor):
// node ids are interchangeable — Init treats all nodes identically, every
// action quantifies over all nodes, and oplog entries carry terms, never
// node ids — so relabelling nodes maps behaviours to behaviours. Each call
// returns a visitor that hands the codec the orbit's representative and
// nothing else. A node's AppendBinary record is self-delimiting, so no
// record is a prefix of another, and the least encoding in the orbit is
// the one with the records in bytes.Compare order: the visitor
// insertion-sorts the node indices with compareNodes, which orders records
// exactly that way, and visits s itself when it is already sorted,
// otherwise the sorted image, a plain value built on the stack (oplogs are
// shared, not copied). One encode per state, no allocation.
func NodeOrbits() tla.OrbitVisitor[State] {
	return func(s State, visit func(State)) {
		var order [MaxNodes]int
		n := s.NumNodes()
		for i := range n {
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
		img := State{Nodes: s.Nodes}
		for k, i := range order[:n] {
			img.Roles[k] = s.Roles[i]
			img.Terms[k] = s.Terms[i]
			img.CommitPoints[k] = s.CommitPoints[i]
			img.Oplogs[k] = s.Oplogs[i]
		}
		visit(img)
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
	if c := compareUvarint(uint64(li.Len()), uint64(lj.Len())); c != 0 {
		return c
	}
	return compareEntries(li, lj)
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
// the non-identity node permutations. Its least encoding, s's own
// included, is the representative NodeOrbits visits.
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
func permuteNodes(s State, perm []int) State {
	t := State{Nodes: s.Nodes}
	for i, p := range perm {
		t.Roles[p] = s.Roles[i]
		t.Terms[p] = s.Terms[i]
		t.CommitPoints[p] = s.CommitPoints[i]
		t.Oplogs[p] = s.Oplogs[i]
	}
	return t
}

// LastTerm returns the term of node i's newest oplog entry, 0 if empty.
func (s *State) LastTerm(i int) int { return s.Oplogs[i].LastTerm() }

// logAhead reports whether node j's oplog is strictly more up-to-date than
// node i's, by the Raft comparison: last term, then length.
func (s *State) logAhead(j, i int) bool {
	lt, li := s.LastTerm(j), s.LastTerm(i)
	if lt != li {
		return lt > li
	}
	return s.Oplogs[j].Len() > s.Oplogs[i].Len()
}

// isPrefix reports whether node i's oplog is a prefix of node j's.
func (s *State) isPrefix(i, j int) bool { return s.Oplogs[i].IsPrefixOf(s.Oplogs[j]) }

// maxTerm returns the largest term known by any node.
func (s *State) maxTerm() int {
	m := 0
	for _, t := range s.Terms[:s.Nodes] {
		m = max(m, int(t))
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

// initState is the initial state; through NewState, it panics on more
// than MaxNodes nodes. Term and oplog bounds may exceed MaxValue (trace
// checking uses generous ones and applies no constraint): an election or
// a write that would carry a state past MaxValue panics in the action
// instead, which the checker reports as a spec panic.
func (c Config) initState() State { return NewState(c.Nodes) }

// constraint is the TLC state constraint: bounded terms and oplog lengths.
func (c Config) constraint(s State) bool {
	if s.maxTerm() > c.MaxTerm {
		return false
	}
	for _, log := range s.Oplogs[:s.Nodes] {
		if log.Len() > c.MaxLogLen {
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
			if idx := int(cp.Index); idx >= 1 && s.Oplogs[j].Len() >= idx && s.Oplogs[j].Term(idx) == int(cp.Term) {
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
	for i := range s.NumNodes() {
		if s.Roles[i] != Leader {
			continue
		}
		for j := range i {
			if s.Roles[j] == Leader && s.Terms[j] == s.Terms[i] {
				return fmt.Errorf("nodes %d and %d are both leaders in term %d", j, i, s.Terms[i])
			}
		}
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
