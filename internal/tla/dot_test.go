package tla

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzAppendDOTQuote pins the DOT writer's quoting to strconv.Quote byte
// for byte — the printable-ASCII fast path and the fallback alike, for a
// string (an edge's action) and for bytes (a node's appended key).
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
		want := string(prefix) + strconv.Quote(s)
		if string(got) != want {
			t.Fatalf("appendDOTQuote(%q) = %s, want %s", s, got, want)
		}
		if got := appendDOTQuote(append([]byte(nil), prefix...), []byte(s)); string(got) != want {
			t.Fatalf("appendDOTQuote([]byte(%q)) = %s, want %s", s, got, want)
		}
	})
}

// labelState is a state labelled by any string: its identity is i, its
// Key the label, so a dump can carry whatever text a fuzzer finds.
type labelState struct {
	i     uint8
	label string
}

func (s labelState) Key() string { return s.label }

func (s labelState) AppendKey(dst []byte) []byte { return append(dst, s.label...) }

func (s labelState) AppendBinary(buf []byte) []byte { return append(buf, s.i) }

// FuzzParseDOT feeds the parser arbitrary bytes, which must never make it
// panic, and round-trips a small graph whose labels and action name are
// fuzzed: whatever WriteDOT writes, ParseDOT must read back to the same
// labels, initial states and edges.
func FuzzParseDOT(f *testing.F) {
	f.Add([]byte(`strict digraph G {
  0 [label="a\"b",style=filled];
  1 [label="c\\d"];
  0 -> 1 [label="Act"];
}`), `{"a":"\"x"}`, `c\d é`, "Next")
	f.Add([]byte("0 -> 1 [label=\"\xff\"];\n2 [label=\"\";"), "\xff\xfe", "line\nbreak", "a -> b")
	f.Add([]byte(`1 [label="/\\ f = [n1 |-> 0]",style=filled];`), "", "style=filled", `"`)
	f.Fuzz(func(t *testing.T, dump []byte, a, b, act string) {
		ParseDOT(bytes.NewReader(dump)) // must not panic; errors are fine

		states := []labelState{{0, a}, {1, b}, {2, a + b}}
		spec := &Spec[labelState]{
			Name: "labels",
			Init: func() []labelState { return []labelState{states[0], states[2]} },
			Actions: []Action[labelState]{{Name: act, Next: func(s labelState) []labelState {
				return []labelState{states[(s.i+1)%3]}
			}}},
		}
		res, err := Check(spec, Options{Workers: 1, RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Graph.Close()
		var buf bytes.Buffer
		if err := res.Graph.WriteDOT(&buf, "labels"); err != nil {
			t.Fatal(err)
		}
		dg, err := ParseDOT(&buf)
		if err != nil {
			t.Fatalf("ParseDOT of a WriteDOT dump: %v\n%s", err, buf.Bytes())
		}
		if len(dg.Labels) != res.Graph.Len() {
			t.Fatalf("parsed %d labels, want %d", len(dg.Labels), res.Graph.Len())
		}
		for id := 0; id < res.Graph.Len(); id++ {
			if got, want := dg.Labels[id], res.Graph.KeyAt(id); got != want {
				t.Fatalf("node %d label = %q, want %q", id, got, want)
			}
		}
		if !slices.Equal(dg.Inits, res.Graph.Inits) {
			t.Fatalf("inits = %v, want %v", dg.Inits, res.Graph.Inits)
		}
		if edges := graphEdges(t, res.Graph); !slices.Equal(dg.Edges, edges) {
			t.Fatalf("edges = %v, want %v", dg.Edges, edges)
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

// constKeyState is a grid state whose canonical key is one constant,
// appended without allocating: the checker dedups on AppendBinary, and
// the DOT writer's own cost is all that WriteDOT allocates.
type constKeyState struct{ A, B uint16 }

func (constKeyState) Key() string { return "state" }

func (constKeyState) AppendKey(dst []byte) []byte { return append(dst, "state"...) }

func (s constKeyState) AppendBinary(buf []byte) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(buf, s.A), s.B)
}

// TestWriteDOTAllocsPerState pins the append-only DOT writer: a fixed
// set-up and nothing per node or per edge, since every node's key is
// appended into a reused buffer. The grid has 1,600 nodes and about twice
// as many edges, so a node or an edge that allocated breaks the bound.
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
	const setup = 16 // bufio.Writer, line and key buffers, init marks, edge block
	allocs := testing.AllocsPerRun(5, func() {
		if err := res.Graph.WriteDOT(io.Discard, "grid"); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(setup); allocs > limit {
		t.Fatalf("WriteDOT allocates %.0f times for %d nodes and %d edges, want at most %.0f", allocs, nodes, edges, limit)
	}
	t.Logf("WriteDOT: %.0f allocations for %d nodes, %d edges", allocs, nodes, edges)
}

// quotedState is a grid state with a key that needs escaping: quotes and
// a backslash on every line and, on every seventh, a non-ASCII byte that
// sends appendDOTQuote down strconv.AppendQuote. AppendKey (and so Key)
// panics on the state quotedPanicAt names, if any.
type quotedState struct{ A, B uint8 }

var quotedPanicAt *quotedState

func (s quotedState) Key() string { return string(s.AppendKey(nil)) }

func (s quotedState) AppendKey(dst []byte) []byte {
	if p := quotedPanicAt; p != nil && *p == s {
		panic("key panic")
	}
	dst = fmt.Appendf(dst, `{"a":%d,"b":"\%d"}`, s.A, s.B)
	if (s.A+s.B)%7 == 0 {
		dst = append(dst, "é"...)
	}
	return dst
}

func (s quotedState) AppendBinary(buf []byte) []byte { return append(buf, s.A, s.B) }

func (quotedState) DecodeBinary(enc []byte) (quotedState, error) {
	if len(enc) != 2 {
		return quotedState{}, fmt.Errorf("quotedState: decode: length %d, want 2", len(enc))
	}
	return quotedState{A: enc[0], B: enc[1]}, nil
}

// quotedGrid is a side×side grid of quotedStates: side² nodes, many
// dotBlocks of them.
func quotedGrid(side uint8) *Spec[quotedState] {
	return &Spec[quotedState]{
		Name: "quoted",
		Init: func() []quotedState { return []quotedState{{}} },
		Actions: []Action[quotedState]{
			{Name: "IncA", Next: func(s quotedState) []quotedState {
				if s.A+1 < side {
					return []quotedState{{A: s.A + 1, B: s.B}}
				}
				return nil
			}},
			{Name: "IncB", Next: func(s quotedState) []quotedState {
				if s.B+1 < side {
					return []quotedState{{A: s.A, B: s.B + 1}}
				}
				return nil
			}},
		},
	}
}

// TestWriteDOTParallelIdentical: the DOT dump is byte-identical whatever
// the number of workers formatting its node lines, live or from a spilled
// arena, and equal to a dump written line by line from KeyAt and
// strconv.Quote.
func TestWriteDOTParallelIdentical(t *testing.T) {
	const side = 45 // 2,025 nodes: eight blocks
	var want string
	for _, opts := range []Options{
		{Workers: 1}, {Workers: 2}, {Workers: 3}, {Workers: 8},
		{Workers: 4, MemoryBudgetBytes: 1},
	} {
		opts.RecordGraph = true
		res, err := Check(quotedGrid(side), opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		err = res.Graph.WriteDOT(&buf, "quoted")
		if want == "" {
			want = naiveDOT(t, res.Graph)
		}
		res.Graph.Close()
		if err != nil {
			t.Fatal(err)
		}
		if buf.String() != want {
			t.Fatalf("%+v: WriteDOT differs from the line-by-line dump (%d vs %d bytes)", opts, buf.Len(), len(want))
		}
	}
}

// naiveDOT writes g as WriteDOT's specification: one fmt line per node and
// per edge, edges sorted.
func naiveDOT(t *testing.T, g *Graph[quotedState]) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("strict digraph quoted {\n")
	inits := map[int]bool{}
	for _, id := range g.Inits {
		inits[id] = true
	}
	for id := 0; id < g.Len(); id++ {
		style := ""
		if inits[id] {
			style = ",style=filled"
		}
		fmt.Fprintf(&b, "  %d [label=%s%s];\n", id, strconv.Quote(g.KeyAt(id)), style)
	}
	var edges []Edge
	if err := g.ForEachEdge(func(e Edge) error { edges = append(edges, e); return nil }); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(edges, compareEdges)
	for _, e := range edges {
		fmt.Fprintf(&b, "  %d -> %d [label=%s];\n", e.From, e.To, strconv.Quote(e.Action))
	}
	b.WriteString("}\n")
	return b.String()
}

// TestWriteDOTReraisesPanic: a spec's AppendKey that panics on one state panics
// WriteDOT on the caller's goroutine at every worker count, not a
// formatting goroutine, which would take the process down.
func TestWriteDOTReraisesPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		res, err := Check(quotedGrid(40), Options{Workers: workers, RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		func() {
			quotedPanicAt = &quotedState{A: 30, B: 20}
			defer func() {
				quotedPanicAt = nil
				if pv := recover(); pv != "key panic" {
					t.Fatalf("workers %d: recovered %v, want the key's panic", workers, pv)
				}
			}()
			res.Graph.WriteDOT(io.Discard, "quoted")
			t.Fatalf("workers %d: WriteDOT returned", workers)
		}()
	}
}

// TestWriteDOTReadFaultIsAnError: a spilled graph whose segments can no
// longer be read makes WriteDOT return the read error, wrapping the
// injected fault, at one worker and on the block-formatting workers — no
// panic, on any goroutine.
func TestWriteDOTReadFaultIsAnError(t *testing.T) {
	fault := errors.New("injected read fault")
	for _, workers := range []int{1, 2} {
		t.Setenv("TMPDIR", t.TempDir())
		ffs := NewFaultFS(nil)
		res, err := Check(quotedGrid(40), Options{Workers: workers, RecordGraph: true, MemoryBudgetBytes: 1, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		ffs.Inject(Fault{Op: FaultRead, Err: fault})
		func() {
			defer res.Graph.Close()
			defer func() {
				if pv := recover(); pv != nil {
					t.Fatalf("workers %d: WriteDOT panicked: %v", workers, pv)
				}
			}()
			if err := res.Graph.WriteDOT(io.Discard, "quoted"); !errors.Is(err, fault) {
				t.Fatalf("workers %d: WriteDOT = %v, want the injected read fault", workers, err)
			}
		}()
		if len(ffs.Fired()) == 0 {
			t.Fatalf("workers %d: no read reached the fault: the graph was not read from its spill file", workers)
		}
	}
}
