package ot

import (
	"encoding/binary"
	"fmt"
)

// This file implements the Realm Sync synchronization model of §2.2: a
// central server and offline-first clients, each holding a copy of the data
// (the state) and a durable log of operations (the history). When a client
// merges, the incoming server changes are rebased on top of the client's
// unmerged local changes via operational transformation, and the client's
// changes — transformed symmetrically — are appended to the server history.

// Progress records how much of the server history a client has integrated
// and how much of the client's history the server has integrated — the
// progress[c] record of the paper's array_ot.tla (Figure 6).
type Progress struct {
	ServerVersion int // prefix of the server history the client has merged
	ClientVersion int // prefix of the client history the server has merged
}

// BatchTransformer rebases two concurrent operation sequences through each
// other. Both the reference Transformer and the independent otgo engine
// satisfy it, so a Network can be driven by either implementation — which
// is how the generated test cases exercise both sides of the parity check.
//
// An implementation must be safe for concurrent use: mbtcg.RunAll calls
// one transformer from several goroutines, and the model checker merges
// deployments sharing one on every worker. It must not write into as or
// bs: a Network hands it the tails of logs that cloned deployments share.
//
// Both implementations allocate one fresh block per call, which holds
// both results; a merge rule never emits more than one op per side, so
// len(as)+len(bs) ops always suffice. The reference Transformer allocates
// nothing when either side is empty and returns the other side unchanged:
// its results may alias as or bs. otgo.Engine never returns its inputs
// (it allocates nothing only when both are empty), so a wrapper that
// rewrites results in place may do so only over it.
type BatchTransformer interface {
	TransformLists(as, bs []Op) (asOut, bsOut []Op, err error)
}

// Network is a synchronized Realm deployment: one server and a set of
// clients. The zero value is not usable; construct with NewNetwork.
//
// A deployment is cheap to copy. Its three per-client slices — logs,
// arrays, progress — live in the same allocation as the Network itself
// for up to inlineClients clients (see newNetwork), and its logs and
// arrays are shared copy-on-write between clones: nothing writes into an
// array a Network holds (each applied op or merged batch builds a fresh
// one), and logs only grow, through appends that reallocate a shared log.
type Network struct {
	tr          BatchTransformer
	serverLog   []Op
	serverState []int
	clientLog   [][]Op
	clientState [][]int
	progress    []Progress
}

// inlineClients is the number of clients whose per-client slices
// newNetwork carves out of the Network's own allocation. At three — the
// paper's configuration — the block is 328 bytes, in the 352-byte size
// class the four separate allocations it replaces add up to; a fourth
// client would cross into the next class.
const inlineClients = 3

// networkBlock is a Network together with the per-client storage of up
// to inlineClients clients, allocated as one object.
type networkBlock struct {
	Network
	logs   [inlineClients][]Op
	states [inlineClients][]int
	prog   [inlineClients]Progress
}

// newNetwork returns an empty deployment of numClients clients driven by
// tr: nil logs and arrays, zero progress. Every constructor builds through
// it, so that up to inlineClients clients cost one allocation.
func newNetwork(tr BatchTransformer, numClients int) *Network {
	if numClients > inlineClients {
		return &Network{
			tr:          tr,
			clientLog:   make([][]Op, numClients),
			clientState: make([][]int, numClients),
			progress:    make([]Progress, numClients),
		}
	}
	b := &networkBlock{}
	b.tr = tr
	b.clientLog = b.logs[:numClients:numClients]
	b.clientState = b.states[:numClients:numClients]
	b.progress = b.prog[:numClients:numClients]
	return &b.Network
}

// NewNetwork creates a deployment with the given initial array replicated
// to the server and all numClients clients. The array is copied once and
// the copy shared by every peer; each peer's first op or merge replaces
// its array with a fresh one. At up to three clients that is two
// allocations: the deployment and the copy.
func NewNetwork(tr BatchTransformer, initial []int, numClients int) *Network {
	n := newNetwork(tr, numClients)
	n.serverState = append([]int(nil), initial...)
	for c := range n.clientState {
		n.clientState[c] = n.serverState
	}
	return n
}

// NumClients returns the number of clients in the deployment.
func (n *Network) NumClients() int { return len(n.clientState) }

// Transformer returns the deployment's transformer. DecodeNetworkBinary
// needs it: the binary encoding deliberately omits the transformer (it is
// run configuration, not state), so a decoder recovers it from a sample
// deployment of the same run.
func (n *Network) Transformer() BatchTransformer { return n.tr }

// Clone returns an independent copy of the deployment that shares every
// log and array with n, copy-on-write. Model-checking explores deployments
// as immutable values; actions clone before mutating. Nothing writes into
// an array and logs only grow, so sharing is safe once each shared log's
// capacity is clamped to its length: the clone's first append to it
// reallocates. Only the per-client slices are copied, into the clone's
// own block: at up to three clients a clone is one allocation.
func (n *Network) Clone() *Network {
	c := newNetwork(n.tr, len(n.clientLog))
	c.serverLog = n.serverLog[:len(n.serverLog):len(n.serverLog)]
	c.serverState = n.serverState
	for i, log := range n.clientLog {
		c.clientLog[i] = log[:len(log):len(log)]
	}
	copy(c.clientState, n.clientState)
	copy(c.progress, n.progress)
	return c
}

// ClientProgress returns client c's merge progress record.
func (n *Network) ClientProgress(c int) Progress { return n.progress[c] }

// ClientState returns a copy of client c's current array.
func (n *Network) ClientState(c int) []int {
	return append([]int(nil), n.clientState[c]...)
}

// ServerState returns a copy of the server's current array.
func (n *Network) ServerState() []int {
	return append([]int(nil), n.serverState...)
}

// ClientHistory returns a copy of client c's operation history.
func (n *Network) ClientHistory(c int) []Op {
	return append([]Op(nil), n.clientLog[c]...)
}

// ServerHistory returns a copy of the server's operation history.
func (n *Network) ServerHistory() []Op {
	return append([]Op(nil), n.serverLog...)
}

// View is a deployment's state without copies: its slices alias the
// Network's and must not be modified. An empty array or log may be nil or
// empty here, where the copying getters always return nil.
type View struct {
	ServerLog   []Op
	ServerState []int
	ClientLog   [][]Op
	ClientState [][]int
	Progress    []Progress
}

// NetworkFromView builds the deployment whose View is v, driven by tr —
// the inverse of View. The deployment takes ownership of v's slices, which
// must describe the same number of clients.
func NetworkFromView(tr BatchTransformer, v View) *Network {
	return &Network{tr, v.ServerLog, v.ServerState, v.ClientLog, v.ClientState, v.Progress}
}

// View returns the deployment's state without copying it, for readers
// that encode or copy what they need themselves — arrayot.State's key
// encoder and actions, MBTCG's case extractor and runner — and would
// otherwise pay a copy per getter call.
func (n *Network) View() View {
	return View{n.serverLog, n.serverState, n.clientLog, n.clientState, n.progress}
}

// AppendBinary appends a compact, uniquely decodable encoding of the whole
// deployment — logs, states, progress — to buf and returns the extended
// slice. Unlike the exported getters it copies nothing; it exists so
// arrayot.State can implement the model checker's byte-packed fast path
// without marshalling the JSON state key per successor. All sequences are
// length-prefixed and all integers varint-encoded (signed where a field
// could in principle be negative), so equal encodings mean equal
// deployments.
func (n *Network) AppendBinary(buf []byte) []byte {
	buf = appendOpsBinary(buf, n.serverLog)
	buf = appendIntsBinary(buf, n.serverState)
	buf = binary.AppendUvarint(buf, uint64(len(n.clientLog)))
	for c := range n.clientLog {
		buf = appendOpsBinary(buf, n.clientLog[c])
		buf = appendIntsBinary(buf, n.clientState[c])
		buf = binary.AppendUvarint(buf, uint64(n.progress[c].ServerVersion))
		buf = binary.AppendUvarint(buf, uint64(n.progress[c].ClientVersion))
	}
	return buf
}

func appendOpsBinary(buf []byte, ops []Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, o := range ops {
		buf = append(buf, byte(o.Kind))
		buf = binary.AppendVarint(buf, int64(o.Ndx))
		buf = binary.AppendVarint(buf, int64(o.To))
		buf = binary.AppendVarint(buf, int64(o.Value))
		buf = binary.AppendVarint(buf, int64(o.Meta.Timestamp))
		buf = binary.AppendVarint(buf, int64(o.Meta.Peer))
	}
	return buf
}

func appendIntsBinary(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// DecodeNetworkBinary is the inverse of AppendBinary: it rebuilds a
// deployment from the front of buf and returns it together with the
// remaining bytes. tr supplies the transformer the encoding omits. The
// decoded deployment shares nothing with buf, so the caller may reuse the
// buffer. A malformed encoding — truncated varint, impossible operation
// kind, a count larger than the bytes left — returns an error rather than
// a partial deployment.
func DecodeNetworkBinary(tr BatchTransformer, buf []byte) (*Network, []byte, error) {
	serverLog, buf, err := decodeOpsBinary(buf)
	if err != nil {
		return nil, nil, err
	}
	serverState, buf, err := decodeIntsBinary(buf)
	if err != nil {
		return nil, nil, err
	}
	numClients, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if numClients > uint64(len(buf)) {
		// Each client costs at least one byte, as an op does: a larger
		// count is a corrupt prefix, and sizing three slices from it could
		// exhaust memory.
		return nil, nil, fmt.Errorf("ot: decode: client count %d exceeds remaining %d bytes", numClients, len(buf))
	}
	n := newNetwork(tr, int(numClients))
	n.serverLog, n.serverState = serverLog, serverState
	for c := range n.clientLog {
		if n.clientLog[c], buf, err = decodeOpsBinary(buf); err != nil {
			return nil, nil, err
		}
		if n.clientState[c], buf, err = decodeIntsBinary(buf); err != nil {
			return nil, nil, err
		}
		sv, rest, err := decodeUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		cv, rest2, err := decodeUvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		n.progress[c] = Progress{ServerVersion: int(sv), ClientVersion: int(cv)}
		buf = rest2
	}
	return n, buf, nil
}

func decodeUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("ot: decode: truncated or oversized uvarint")
	}
	return v, buf[n:], nil
}

func decodeVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("ot: decode: truncated or oversized varint")
	}
	return v, buf[n:], nil
}

func decodeOpsBinary(buf []byte) ([]Op, []byte, error) {
	count, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(buf)) {
		// Each op costs at least one byte; an impossible count means a
		// corrupt length prefix, not a log to allocate for.
		return nil, nil, fmt.Errorf("ot: decode: op count %d exceeds remaining %d bytes", count, len(buf))
	}
	ops := make([]Op, count)
	for i := range ops {
		if len(buf) == 0 {
			return nil, nil, fmt.Errorf("ot: decode: truncated op")
		}
		kind := Kind(buf[0])
		if kind > KindClear {
			return nil, nil, fmt.Errorf("ot: decode: unknown op kind %d", kind)
		}
		buf = buf[1:]
		var ndx, to, value, ts, peer int64
		if ndx, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		if to, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		if value, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		if ts, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		if peer, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		ops[i] = Op{Kind: kind, Ndx: int(ndx), To: int(to), Value: int(value), Meta: Meta{Timestamp: int(ts), Peer: int(peer)}}
	}
	return ops, buf, nil
}

func decodeIntsBinary(buf []byte) ([]int, []byte, error) {
	count, buf, err := decodeUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("ot: decode: int count %d exceeds remaining %d bytes", count, len(buf))
	}
	xs := make([]int, count)
	for i := range xs {
		var v int64
		if v, buf, err = decodeVarint(buf); err != nil {
			return nil, nil, err
		}
		xs[i] = int(v)
	}
	return xs, buf, nil
}

// Perform executes op locally on client c: it is applied to the client
// state and appended to the client history, without contacting the server.
func (n *Network) Perform(c int, op Op) error {
	next, err := Apply(n.clientState[c], op)
	if err != nil {
		return fmt.Errorf("ot: client %d cannot perform %s: %w", c, op, err)
	}
	n.clientState[c] = next
	n.clientLog[c] = append(n.clientLog[c], op)
	return nil
}

// Unmerged returns copies of the tails of the server history and client
// c's history since they last merged — the Unmerged(c) operator of
// Figure 6.
func (n *Network) Unmerged(c int) (serverTail, clientTail []Op) {
	st, ct := n.unmerged(c)
	return append([]Op(nil), st...), append([]Op(nil), ct...)
}

// unmerged returns the tails Unmerged copies, aliasing the logs, their
// capacity clamped so that no append through them reaches the logs.
func (n *Network) unmerged(c int) (serverTail, clientTail []Op) {
	p, sl, cl := n.progress[c], n.serverLog, n.clientLog[c]
	return sl[p.ServerVersion:len(sl):len(sl)], cl[p.ClientVersion:len(cl):len(cl)]
}

// HasUnmerged reports whether client c has unmerged changes in either
// direction — whether either tail of Unmerged(c) is non-empty — without
// copying them.
func (n *Network) HasUnmerged(c int) bool {
	p := n.progress[c]
	return p.ServerVersion < len(n.serverLog) || p.ClientVersion < len(n.clientLog[c])
}

// Merge performs the MergeAction of the specification for client c: it
// simultaneously uploads the client's unmerged changes to the server and
// downloads the server's unmerged changes to the client, transforming both
// sets through each other.
//
// As in the real system, each peer runs the merge rules independently: the
// server transforms the incoming client operations against its own
// history, and the client transforms the incoming server operations
// against its pending local operations. The two computations must agree —
// that is precisely the convergence property the merge rules guarantee —
// and running the rules on both peers is what lets every branch outcome of
// a conflict rule be exercised (each peer sees the conflicting pair from
// its own side). Afterwards client c and the server agree.
func (n *Network) Merge(c int) error {
	serverTail, clientTail := n.unmerged(c)
	// Server side: rebase the upload across the server history tail.
	clientT, _, err := n.tr.TransformLists(clientTail, serverTail)
	if err != nil {
		return fmt.Errorf("ot: merge (upload) for client %d: %w", c, err)
	}
	// Client side: rebase the download across the pending local ops.
	serverT, _, err := n.tr.TransformLists(serverTail, clientTail)
	if err != nil {
		return fmt.Errorf("ot: merge (download) for client %d: %w", c, err)
	}
	// Upload: the client's changes, rebased onto the server history, each
	// side's batch applied to one fresh array and appended in one go.
	next, _, err := applyBatch(n.serverState, clientT)
	if err != nil {
		return fmt.Errorf("ot: server apply during merge of client %d: %w", c, err)
	}
	n.serverState = next
	n.serverLog = append(n.serverLog, clientT...)
	// Download: the server's changes, rebased onto the client history.
	if next, _, err = applyBatch(n.clientState[c], serverT); err != nil {
		return fmt.Errorf("ot: client %d apply during merge: %w", c, err)
	}
	n.clientState[c] = next
	n.clientLog[c] = append(n.clientLog[c], serverT...)
	n.progress[c] = Progress{ServerVersion: len(n.serverLog), ClientVersion: len(n.clientLog[c])}
	return nil
}

// SyncAll merges every client repeatedly until no client has unmerged
// changes — the fixture.sync_all_clients() of the generated C++ test cases
// (Figure 9). Clients merge in ascending ID order, as the specification
// constrains. Returns the number of merge rounds performed.
func (n *Network) SyncAll() (int, error) {
	rounds := 0
	for {
		dirty := false
		for c := range n.clientState {
			if !n.HasUnmerged(c) {
				continue
			}
			dirty = true
			if err := n.Merge(c); err != nil {
				return rounds, err
			}
		}
		if !dirty {
			return rounds, nil
		}
		rounds++
		if rounds > 10*len(n.clientState)+10 {
			return rounds, fmt.Errorf("ot: SyncAll did not quiesce after %d rounds", rounds)
		}
	}
}

// Converged reports whether all clients and the server hold identical
// arrays — the consistency disjunct of HaveUnmergedChangesOrAreConsistent.
func (n *Network) Converged() bool {
	for _, cs := range n.clientState {
		if len(cs) != len(n.serverState) {
			return false
		}
		for i := range cs {
			if cs[i] != n.serverState[i] {
				return false
			}
		}
	}
	return true
}

// HaveUnmergedChangesOrAreConsistent is the invariant of Figure 6: either
// some client has unmerged changes (in either direction), or every client
// state is identical.
func (n *Network) HaveUnmergedChangesOrAreConsistent() bool {
	for c := range n.clientState {
		if n.HasUnmerged(c) {
			return true
		}
	}
	for c := 1; c < len(n.clientState); c++ {
		a, b := n.clientState[0], n.clientState[c]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}
