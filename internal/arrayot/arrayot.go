// Package arrayot transcribes array_ot.tla — the TLA+ specification the
// Realm Sync team wrote for the array operational-transformation merge
// rules (§5.1) — into an executable specification over the tla checker.
//
// The model, per the paper: three clients each perform a single operation
// on an initial array of three elements, then merge with the server. The
// state space is artificially constrained so clients perform and merge in
// ascending ID order (the order cannot matter before they communicate, so
// other interleavings are redundant), and the invariant
// HaveUnmergedChangesOrAreConsistent (Figure 6) demands that once nothing
// is unmerged, every client state is identical.
//
// Every terminal state of the model is a complete synchronized behaviour;
// the MBTCG pipeline (package mbtcg) turns each one into a test case. With
// ArraySwap excluded there are 17 distinct single-client operations on a
// three-element array, so the model has exactly 17³ = 4,913 terminal
// states — the paper's 4,913 generated test cases.
package arrayot

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/ot"
	"repro/internal/tla"
)

// Config parameterizes the model.
type Config struct {
	// Initial is the array every peer starts from. The paper's
	// configuration is three elements.
	Initial []int
	// Clients is the number of clients. The paper uses the minimum of
	// three, "to capture a client merging both with an earlier operation
	// and with a later operation".
	Clients int
	// OpsPerClient bounds each client's local operations (the paper: 1).
	OpsPerClient int
	// IncludeSwap adds ArraySwap to the enumerated operations. With the
	// legacy transformer this lets the checker rediscover the
	// non-termination bug of §5.1.3.
	IncludeSwap bool
	// Transformer merges concurrent operations; it decides whether the
	// legacy (buggy) ArraySwap behaviour is in effect.
	Transformer *ot.Transformer
}

// DefaultConfig is the configuration the paper ran: three clients, one
// operation each, initial array of three elements, swap excluded.
func DefaultConfig() Config {
	return Config{
		Initial:      []int{1, 2, 3},
		Clients:      3,
		OpsPerClient: 1,
		Transformer:  ot.NewTransformer(nil, false),
	}
}

// State is one state of the specification: the deployment (server and
// client logs, states and progress), how many operations each client has
// performed, and a sticky merge-error field. A transform failure (such as
// the legacy swap/move non-termination) is recorded in MergeErr; the
// NoMergeFailure invariant then fails, which is how the checker surfaces
// the bug with a counterexample — TLC surfaced the same bug as a
// StackOverflowError.
type State struct {
	Net       *ot.Network
	Performed []int
	MergeErr  string
}

// dto is the canonical serializable form of a State: Key appends exactly
// the bytes json.Marshal produces for it, and ParseKey unmarshals it.
type dto struct {
	ServerLog   []opDTO       `json:"sl"`
	ServerState []int         `json:"ss"`
	ClientLogs  [][]opDTO     `json:"cl"`
	ClientState [][]int       `json:"cs"`
	Progress    []ot.Progress `json:"p"`
	Performed   []int         `json:"n"`
	MergeErr    string        `json:"e,omitempty"`
}

type opDTO struct {
	K  uint8 `json:"k"`
	N  int   `json:"n"`
	T  int   `json:"t"`
	V  int   `json:"v"`
	MP int   `json:"mp"`
	MT int   `json:"mt"`
}

// toOp converts a serialized operation back to an ot.Op.
func (d opDTO) toOp() ot.Op {
	return ot.Op{Kind: ot.Kind(d.K), Ndx: d.N, To: d.T, Value: d.V, Meta: ot.Meta{Peer: d.MP, Timestamp: d.MT}}
}

// Key implements tla.State: the canonical encoding is the JSON of the
// state's dto, which is what the DOT dump's node labels carry and ParseKey
// decodes — just as the paper's Golang generator parsed TLC's
// pretty-printed states. It is AppendKey's bytes, formatted in a stack
// buffer, so a key of up to 1 KiB costs one allocation, the string.
func (s State) Key() string {
	var scratch [1024]byte
	return string(s.AppendKey(scratch[:0]))
}

// AppendKey implements tla.State: it appends the bytes json.Marshal would
// produce for the state's dto, field by field, reading the deployment
// through its copy-free View: an operation log is always an array; an
// empty server or client array, a nil Performed and a zero-client
// network's per-client lists are null; MergeErr is present only when
// non-empty, and then marshalled by encoding/json, for its escaping.
func (s State) AppendKey(buf []byte) []byte {
	v := s.Net.View()
	buf = append(buf, `{"sl":`...)
	buf = appendOpsJSON(buf, v.ServerLog)
	buf = appendIntsJSON(append(buf, `,"ss":`...), nilIfEmpty(v.ServerState))
	buf = append(buf, `,"cl":`...)
	buf = appendPerClient(buf, len(v.ClientLog), func(buf []byte, c int) []byte { return appendOpsJSON(buf, v.ClientLog[c]) })
	buf = append(buf, `,"cs":`...)
	buf = appendPerClient(buf, len(v.ClientState), func(buf []byte, c int) []byte { return appendIntsJSON(buf, nilIfEmpty(v.ClientState[c])) })
	buf = append(buf, `,"p":`...)
	buf = appendPerClient(buf, len(v.Progress), func(buf []byte, c int) []byte {
		buf = strconv.AppendInt(append(buf, `{"ServerVersion":`...), int64(v.Progress[c].ServerVersion), 10)
		buf = strconv.AppendInt(append(buf, `,"ClientVersion":`...), int64(v.Progress[c].ClientVersion), 10)
		return append(buf, '}')
	})
	buf = appendIntsJSON(append(buf, `,"n":`...), s.Performed)
	if s.MergeErr != "" {
		e, err := json.Marshal(s.MergeErr)
		if err != nil {
			panic(fmt.Sprintf("arrayot: unserializable merge error: %v", err))
		}
		buf = append(append(buf, `,"e":`...), e...)
	}
	return append(buf, '}')
}

// nilIfEmpty returns xs as the deployment's copying getters do, which the
// key has always marshalled: nil when empty.
func nilIfEmpty(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

// appendPerClient appends a JSON array of one element per client, each
// appended by elem; with no clients it is null, as a nil slice marshals.
func appendPerClient(buf []byte, n int, elem func([]byte, int) []byte) []byte {
	if n == 0 {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for c := 0; c < n; c++ {
		if c > 0 {
			buf = append(buf, ',')
		}
		buf = elem(buf, c)
	}
	return append(buf, ']')
}

// appendIntsJSON appends xs as json.Marshal does: null when nil.
func appendIntsJSON(buf []byte, xs []int) []byte {
	if xs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, ']')
}

// appendOpsJSON appends ops as json.Marshal does for their []opDTO, which
// is never nil: an empty log is [].
func appendOpsJSON(buf []byte, ops []ot.Op) []byte {
	buf = append(buf, '[')
	for i, o := range ops {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendUint(append(buf, `{"k":`...), uint64(uint8(o.Kind)), 10)
		buf = strconv.AppendInt(append(buf, `,"n":`...), int64(o.Ndx), 10)
		buf = strconv.AppendInt(append(buf, `,"t":`...), int64(o.To), 10)
		buf = strconv.AppendInt(append(buf, `,"v":`...), int64(o.Value), 10)
		buf = strconv.AppendInt(append(buf, `,"mp":`...), int64(o.Meta.Peer), 10)
		buf = strconv.AppendInt(append(buf, `,"mt":`...), int64(o.Meta.Timestamp), 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

// AppendBinary implements tla.BinaryState: the checker dedups on this
// compact encoding instead of marshalling the JSON key per successor
// (json.Marshal dominated the exploration profile). The JSON Key() remains
// the semantic identity a DOT dump carries and ParseKey decodes; the two
// encode exactly the same fields, so their equalities agree.
func (s State) AppendBinary(buf []byte) []byte {
	buf = s.Net.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, uint64(len(s.Performed)))
	for _, n := range s.Performed {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.MergeErr)))
	return append(buf, s.MergeErr...)
}

// DecodeBinary implements tla.BinaryDecoder: the inverse of AppendBinary,
// letting the checker's retained-state arena reconstruct states directly
// from their stored encodings (counterexamples, checkpoint resume, and the
// arena-backed state graph MBTCG consumes). The receiver is a sample state
// of the run: the encoding deliberately omits the transformer — run
// configuration, not state — so the decoder recovers it from the sample's
// deployment, falling back to the reference transformer on a zero-value
// receiver.
func (s State) DecodeBinary(enc []byte) (State, error) {
	var tr ot.BatchTransformer
	if s.Net != nil {
		tr = s.Net.Transformer()
	}
	if tr == nil {
		tr = ot.NewTransformer(nil, false)
	}
	net, rest, err := ot.DecodeNetworkBinary(tr, enc)
	if err != nil {
		return State{}, fmt.Errorf("arrayot: decode: %w", err)
	}
	nPerf, k := binary.Uvarint(rest)
	if k <= 0 || nPerf > uint64(len(rest)) {
		return State{}, fmt.Errorf("arrayot: decode: bad Performed length")
	}
	rest = rest[k:]
	perf := make([]int, nPerf)
	for i := range perf {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return State{}, fmt.Errorf("arrayot: decode: truncated Performed")
		}
		perf[i] = int(v)
		rest = rest[k:]
	}
	mlen, k := binary.Uvarint(rest)
	if k <= 0 {
		return State{}, fmt.Errorf("arrayot: decode: truncated MergeErr length")
	}
	rest = rest[k:]
	if uint64(len(rest)) != mlen {
		return State{}, fmt.Errorf("arrayot: decode: MergeErr length %d, %d bytes remain", mlen, len(rest))
	}
	return State{Net: net, Performed: perf, MergeErr: string(rest)}, nil
}

// ParsedState is the decoded form of a state key, used by the MBTCG
// generator after parsing the DOT dump.
type ParsedState struct {
	ServerLog   []ot.Op
	ServerState []int
	ClientLogs  [][]ot.Op
	ClientState [][]int
	Progress    []ot.Progress
	Performed   []int
	MergeErr    string
}

// ParseKey decodes a state key produced by State.Key.
func ParseKey(key string) (*ParsedState, error) {
	var d dto
	if err := json.Unmarshal([]byte(key), &d); err != nil {
		return nil, fmt.Errorf("arrayot: bad state key: %w", err)
	}
	p := &ParsedState{
		ServerState: d.ServerState,
		ClientState: d.ClientState,
		Progress:    d.Progress,
		Performed:   d.Performed,
		MergeErr:    d.MergeErr,
	}
	for _, o := range d.ServerLog {
		p.ServerLog = append(p.ServerLog, o.toOp())
	}
	for _, log := range d.ClientLogs {
		var ops []ot.Op
		for _, o := range log {
			ops = append(ops, o.toOp())
		}
		p.ClientLogs = append(p.ClientLogs, ops)
	}
	return p, nil
}

// EnumClientOps enumerates the distinct operations client c can perform on
// an array of length n: n sets, n+1 inserts, n(n-1) moves, n erases and
// one clear — 17 for n = 3 — plus the swaps when enabled. Values encode
// the originating client and operation index so every generated behaviour
// is distinguishable.
func EnumClientOps(c, n int, includeSwap bool) []ot.Op {
	meta := ot.Meta{Peer: c + 1}
	val := (c + 1) * 100
	var ops []ot.Op
	k := 0
	next := func() int { k++; return val + k }
	for i := 0; i < n; i++ {
		ops = append(ops, ot.Set(i, next()).WithMeta(meta))
	}
	for i := 0; i <= n; i++ {
		ops = append(ops, ot.Insert(i, next()).WithMeta(meta))
	}
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if f != to {
				ops = append(ops, ot.Move(f, to).WithMeta(meta))
			}
		}
	}
	for i := 0; i < n; i++ {
		ops = append(ops, ot.Erase(i).WithMeta(meta))
	}
	ops = append(ops, ot.Clear().WithMeta(meta))
	if includeSwap {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ops = append(ops, ot.Swap(a, b).WithMeta(meta))
			}
		}
	}
	return ops
}

// Spec builds the executable array_ot specification for cfg.
func Spec(cfg Config) *tla.Spec[State] {
	if cfg.Transformer == nil {
		cfg.Transformer = ot.NewTransformer(nil, false)
	}
	// A client performs only before any merge, on its own array, so its
	// choices depend only on the client and that array's length: at
	// len(Initial), as every first op is, they are enumerated once here.
	ops := make([][]ot.Op, cfg.Clients)
	for c := range ops {
		ops[c] = EnumClientOps(c, len(cfg.Initial), cfg.IncludeSwap)
	}
	return &tla.Spec[State]{
		Name: "array_ot",
		Init: func() []State {
			return []State{{
				Net:       ot.NewNetwork(cfg.Transformer, cfg.Initial, cfg.Clients),
				Performed: make([]int, cfg.Clients),
			}}
		},
		Actions: []tla.Action[State]{
			{Name: "ClientOp", Next: func(s State) []State { return clientOp(cfg, ops, s) }},
			{Name: "MergeAction", Next: func(s State) []State { return mergeAction(s) }},
		},
		Invariants: []tla.Invariant[State]{
			{Name: "HaveUnmergedChangesOrAreConsistent", Check: haveUnmergedOrConsistent},
			{Name: "NoMergeFailure", Check: noMergeFailure},
		},
	}
}

// clientOp: the lowest-ID client that has not exhausted its operation
// budget performs one of the enumerated operations. Clients act in
// ascending ID order — the paper's state-space constraint — and only
// before any merging begins (operations are concurrent by construction).
// initialOps[c] are client c's operations on an array of len(cfg.Initial).
func clientOp(cfg Config, initialOps [][]ot.Op, s State) []State {
	if s.MergeErr != "" {
		return nil
	}
	// Once merging has started, no further local operations: the model
	// varies the initial array and single ops, not interleavings.
	if merged(s) {
		return nil
	}
	c := -1
	for i, n := range s.Performed {
		if n < cfg.OpsPerClient {
			c = i
			break
		}
	}
	if c < 0 {
		return nil
	}
	ops := initialOps[c]
	if n := len(s.Net.View().ClientState[c]); n != len(cfg.Initial) {
		ops = EnumClientOps(c, n, cfg.IncludeSwap) // a later op of the client's
	}
	// Every successor has the same counts, so they share one slice.
	perf := append([]int(nil), s.Performed...)
	perf[c]++
	out := make([]State, 0, len(ops))
	for _, op := range ops {
		net := s.Net.Clone()
		if err := net.Perform(c, op); err != nil {
			continue
		}
		out = append(out, State{Net: net, Performed: perf})
	}
	return out
}

// mergeAction: once every client has performed its operations, the
// lowest-ID client with unmerged changes merges with the server (the
// simultaneous upload+download MergeAction of §5.1.2).
func mergeAction(s State) []State {
	if s.MergeErr != "" {
		return nil
	}
	for _, n := range s.Performed {
		if n == 0 {
			return nil // wait until all clients performed
		}
	}
	for c := 0; c < s.Net.NumClients(); c++ {
		if !s.Net.HasUnmerged(c) {
			continue
		}
		net := s.Net.Clone()
		if err := net.Merge(c); err != nil {
			return []State{{Net: s.Net, Performed: s.Performed, MergeErr: err.Error()}}
		}
		return []State{{Net: net, Performed: s.Performed}}
	}
	return nil
}

func merged(s State) bool {
	for c := 0; c < s.Net.NumClients(); c++ {
		if p := s.Net.ClientProgress(c); p.ServerVersion > 0 || p.ClientVersion > 0 {
			return true
		}
	}
	return len(s.Net.View().ServerLog) > 0
}

// haveUnmergedOrConsistent is the invariant of Figure 6.
func haveUnmergedOrConsistent(s State) error {
	if s.MergeErr != "" {
		return nil // reported by NoMergeFailure
	}
	if s.Net.HaveUnmergedChangesOrAreConsistent() {
		return nil
	}
	states := make([][]int, s.Net.NumClients())
	for c := range states {
		states[c] = s.Net.ClientState(c)
	}
	return fmt.Errorf("no unmerged changes but client states differ: %v", states)
}

// noMergeFailure fails when a merge rule failed to produce a result —
// the executable analogue of TLC's StackOverflowError on the legacy
// ArraySwap/ArrayMove rule.
func noMergeFailure(s State) error {
	if s.MergeErr == "" {
		return nil
	}
	return fmt.Errorf("merge failed: %s", s.MergeErr)
}
