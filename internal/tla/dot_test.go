package tla

import (
	"encoding/binary"
	"io"
	"strconv"
	"strings"
	"testing"
)

// FuzzAppendDOTQuote pins the DOT writer's quoting to strconv.Quote byte
// for byte — the printable-ASCII fast path and the fallback alike.
func FuzzAppendDOTQuote(f *testing.F) {
	for _, s := range []string{
		"", "plain", `a"b`, `c\d`, `{"sl":[],"e":"x\"y"}`, `/\ f = [n1 |-> 0]`,
		"tab\there", "line\nbreak", "\x7f", "é", "\xff\xfe", "end\\",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		prefix := []byte("  7 [label=")
		got := appendDOTQuote(append([]byte(nil), prefix...), s)
		if want := string(prefix) + strconv.Quote(s); string(got) != want {
			t.Fatalf("appendDOTQuote(%q) = %s, want %s", s, got, want)
		}
	})
}

// TestParseDOTTLCLabels: the edge/node decision and the initial-state
// marker come from the line's syntax, never from the label text. A TLC
// state label containing "|->" is a node, and a label containing
// "style=filled" does not make its node initial.
func TestParseDOTTLCLabels(t *testing.T) {
	in := `strict digraph DiskGraph {
  1 [label="/\\ f = [n1 |-> 0]",style=filled];
  2 [label="note: style=filled"];
  3 [style=filled,label="x"];
  1 -> 2 [label="Next"];
  2 -> 3 [label="a -> b"];
}`
	dg, err := ParseDOT(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if dg.Labels[1] != `/\ f = [n1 |-> 0]` || dg.Labels[2] != "note: style=filled" || dg.Labels[3] != "x" {
		t.Errorf("labels = %q", dg.Labels)
	}
	if len(dg.Inits) != 2 || dg.Inits[0] != 1 || dg.Inits[1] != 3 {
		t.Errorf("inits = %v, want [1 3]", dg.Inits)
	}
	if len(dg.Edges) != 2 || dg.Edges[0] != (Edge{From: 1, Action: "Next", To: 2}) ||
		dg.Edges[1] != (Edge{From: 2, Action: "a -> b", To: 3}) {
		t.Errorf("edges = %v", dg.Edges)
	}
}

// constKeyState is a grid state whose canonical key is one shared
// constant: the checker dedups on AppendBinary, and the DOT writer's own
// cost per line is all that WriteDOT allocates.
type constKeyState struct{ A, B uint16 }

func (constKeyState) Key() string { return "state" }

func (s constKeyState) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(buf, s.A), s.B)
}

// TestWriteDOTAllocsPerState pins the append-only DOT writer: beyond a
// fixed set-up, at most one allocation per node (its key) and none per
// edge. The grid has about twice as many edges as nodes, so an edge that
// allocated, or a node that allocated twice, breaks the bound.
func TestWriteDOTAllocsPerState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const side = 40
	inc := func(s constKeyState, a bool) []constKeyState {
		if a && s.A < side-1 {
			return []constKeyState{{A: s.A + 1, B: s.B}}
		}
		if !a && s.B < side-1 {
			return []constKeyState{{A: s.A, B: s.B + 1}}
		}
		return nil
	}
	spec := &Spec[constKeyState]{
		Name: "grid",
		Init: func() []constKeyState { return []constKeyState{{}} },
		Actions: []Action[constKeyState]{
			{Name: "IncA", Next: func(s constKeyState) []constKeyState { return inc(s, true) }},
			{Name: "IncB", Next: func(s constKeyState) []constKeyState { return inc(s, false) }},
		},
	}
	res, err := Check(spec, Options{Workers: 1, RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	nodes, edges := res.Graph.Len(), res.Graph.NumEdges()
	if nodes != side*side || edges != 2*side*(side-1) {
		t.Fatalf("grid has %d nodes and %d edges", nodes, edges)
	}
	const setup = 16 // bufio.Writer, line buffer, init marks, edge block
	allocs := testing.AllocsPerRun(5, func() {
		if err := res.Graph.WriteDOT(io.Discard, "grid"); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(nodes + setup); allocs > limit {
		t.Fatalf("WriteDOT allocates %.0f times for %d nodes and %d edges, want at most %.0f", allocs, nodes, edges, limit)
	}
	t.Logf("WriteDOT: %.0f allocations for %d nodes, %d edges", allocs, nodes, edges)
}
