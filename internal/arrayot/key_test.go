package arrayot

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/ot"
	"repro/internal/tla"
)

// marshalKey is the reference encoding State.Key reproduces byte for
// byte: json.Marshal of the state's dto, built from the deployment's
// getters.
func marshalKey(s State) string {
	d := dto{
		ServerLog:   opsToDTO(s.Net.ServerHistory()),
		ServerState: s.Net.ServerState(),
		Performed:   s.Performed,
		MergeErr:    s.MergeErr,
	}
	for c := 0; c < s.Net.NumClients(); c++ {
		d.ClientLogs = append(d.ClientLogs, opsToDTO(s.Net.ClientHistory(c)))
		d.ClientState = append(d.ClientState, s.Net.ClientState(c))
		d.Progress = append(d.Progress, s.Net.ClientProgress(c))
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func opsToDTO(ops []ot.Op) []opDTO {
	out := make([]opDTO, len(ops))
	for i, o := range ops {
		out[i] = opDTO{K: uint8(o.Kind), N: o.Ndx, T: o.To, V: o.Value, MP: o.Meta.Peer, MT: o.Meta.Timestamp}
	}
	return out
}

// checkKey fails unless s.Key() is byte-identical to marshalKey(s),
// s.AppendKey keeps its buffer's prefix and appends exactly Key's bytes,
// and ParseKey decodes the key back to s's fields.
func checkKey(t testing.TB, s State) {
	t.Helper()
	key := s.Key()
	if want := marshalKey(s); key != want {
		t.Fatalf("Key() differs from json.Marshal:\n got  %s\n want %s", key, want)
	}
	const prefix = "prefix|"
	if got := s.AppendKey([]byte(prefix)); string(got) != prefix+key {
		t.Fatalf("AppendKey(%q) = %s, want the prefix and then Key() %s", prefix, got, key)
	}
	p, err := ParseKey(key)
	if err != nil {
		t.Fatalf("ParseKey(%s): %v", key, err)
	}
	n := s.Net
	ok := slices.Equal(p.ServerLog, n.ServerHistory()) &&
		slices.Equal(p.ServerState, n.ServerState()) &&
		len(p.ClientLogs) == n.NumClients() && len(p.ClientState) == n.NumClients() &&
		len(p.Progress) == n.NumClients() &&
		slices.Equal(p.Performed, s.Performed) && p.MergeErr == s.MergeErr
	for c := 0; ok && c < n.NumClients(); c++ {
		ok = slices.Equal(p.ClientLogs[c], n.ClientHistory(c)) &&
			slices.Equal(p.ClientState[c], n.ClientState(c)) &&
			p.Progress[c] == n.ClientProgress(c)
	}
	if !ok {
		t.Fatalf("ParseKey(Key(s)) = %+v, does not match the state it came from: %s", p, key)
	}
}

// TestKeyMatchesMarshalOnReachableStates pins the hand-rolled Key to
// json.Marshal of the dto on every reachable state of the paper's
// configuration — the labels of every DOT dump MBTCG writes.
func TestKeyMatchesMarshalOnReachableStates(t *testing.T) {
	res, err := tla.Check(Spec(DefaultConfig()), tla.Options{Workers: 1, RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	for id := 0; id < res.Graph.Len(); id++ {
		checkKey(t, res.Graph.StateAt(id))
	}
}

// TestKeyMatchesMarshalOnEdgeCases covers what reachable states never
// show: a merge error that encoding/json escapes (HTML characters, a
// quote, a backslash, a newline, U+2028), and zero-client deployments
// whose per-client lists and nil slices marshal as null.
func TestKeyMatchesMarshalOnEdgeCases(t *testing.T) {
	tr := ot.NewTransformer(nil, false)
	failed := walk([]byte{0, 1, 2})
	failed.MergeErr = "<swap> & \"move\" \\ loop\nline sep"
	for name, s := range map[string]State{
		"merge error":                 failed,
		"zero clients":                {Net: ot.NewNetwork(tr, nil, 0)},
		"zero clients, empty slices":  {Net: ot.NewNetwork(tr, []int{}, 0), Performed: []int{}},
		"one client, empty array":     {Net: ot.NewNetwork(tr, nil, 1), Performed: []int{0}},
		"initial state of the config": Spec(DefaultConfig()).Init()[0],
	} {
		t.Run(name, func(t *testing.T) { checkKey(t, s) })
	}
}

// TestKeyAllocsPerCall pins the key encoder's cost: it reads the
// deployment through its copy-free View, so AppendKey into a buffer with
// capacity allocates nothing, and Key, which appends into a stack buffer,
// costs one allocation, the returned string — a getter that copied a log
// or an array would add one per field.
func TestKeyAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := walk([]byte{3, 5, 0, 0, 0, 0, 0})
	if len(s.Net.ServerHistory()) == 0 || len(s.Key()) > 1024 {
		t.Fatalf("walk reached an unmerged or oversized state: %s", s.Key())
	}
	if got := testing.AllocsPerRun(100, func() { _ = s.Key() }); got != 1 {
		t.Fatalf("Key allocates %.1f times per call, want 1", got)
	}
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(100, func() { buf = s.AppendKey(buf[:0]) }); got != 0 {
		t.Fatalf("AppendKey allocates %.1f times per call into a buffer with capacity, want 0", got)
	}
}
