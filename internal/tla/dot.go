package tla

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// WriteDOT renders the state graph in GraphViz DOT format, matching the
// structure of TLC's -dump dot output: one node per distinct state, labelled
// with the state's canonical key, and one edge per transition, labelled with
// the action name. The MBTCG pipeline parses this file back (package mbtcg),
// preserving the paper's TLC → DOT file → Golang generator boundary.
//
// Edges are emitted in deterministic (From, To, Action) order, so the same
// exploration yields byte-identical output whether its states are live or
// decoded from the arena, its segments resident or spilled.
func (g *Graph[S]) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "strict digraph %s {\n", dotID(name))
	inits := make(map[int]bool, len(g.Inits))
	for _, id := range g.Inits {
		inits[id] = true
	}
	n := g.Len()
	for id := 0; id < n; id++ {
		attrs := fmt.Sprintf("label=%s", strconv.Quote(g.KeyAt(id)))
		if inits[id] {
			attrs += ",style=filled"
		}
		fmt.Fprintf(bw, "  %d [%s];\n", id, attrs)
	}
	if err := g.writeDOTEdges(bw); err != nil {
		return err
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// writeDOTEdges emits the edges in (From, To, Action) order. A graph
// whose edges were recorded with nondecreasing From (every level-sync run:
// frontier ids ascend across levels) streams one From-block at a time —
// sorting each contiguous block by (To, Action) is exactly the global
// order, without ever materializing the full edge list. A work-stealing
// graph's list is materialized and sorted whole.
func (g *Graph[S]) writeDOTEdges(bw *bufio.Writer) error {
	emit := func(edges []Edge) {
		slices.SortFunc(edges, compareEdges)
		for _, e := range edges {
			fmt.Fprintf(bw, "  %d -> %d [label=%s];\n", e.From, e.To, strconv.Quote(e.Action))
		}
	}
	mono := g.ret.arena.edgesMono
	var block []Edge
	if !mono {
		block = make([]Edge, 0, g.NumEdges())
	}
	if err := g.ForEachEdge(func(e Edge) error {
		if mono && len(block) > 0 && e.From != block[0].From {
			emit(block)
			block = block[:0]
		}
		block = append(block, e)
		return nil
	}); err != nil {
		return err
	}
	emit(block)
	return nil
}

// compareEdges orders edges by (From, To, Action), the DOT dump's order.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return strings.Compare(a.Action, b.Action)
}

func dotID(s string) string {
	if s == "" {
		return "G"
	}
	var b strings.Builder
	for _, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" {
		return "G"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "_" + out
	}
	return out
}

// DOTGraph is the result of parsing a DOT state-graph dump: node labels
// (canonical state keys) indexed by node id, which nodes are initial, and
// the labelled edges.
type DOTGraph struct {
	Labels map[int]string
	Inits  []int
	Edges  []Edge
}

// Terminal returns the node ids with no outgoing edges, sorted.
func (d *DOTGraph) Terminal() []int {
	hasOut := make(map[int]bool)
	for _, e := range d.Edges {
		hasOut[e.From] = true
	}
	var out []int
	for id := range d.Labels {
		if !hasOut[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ParseDOT reads a DOT file in the dialect produced by WriteDOT (a subset of
// the TLC dump dialect): node lines `N [label="...",...];` and edge lines
// `N -> M [label="..."];`. It is a line-oriented parser, as the paper's
// generator was; it does not aim to parse arbitrary DOT.
func ParseDOT(r io.Reader) (*DOTGraph, error) {
	g := &DOTGraph{Labels: make(map[int]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "strict digraph") || line == "}" || strings.HasPrefix(line, "//") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		if i := strings.Index(line, "->"); i >= 0 {
			from, err := strconv.Atoi(strings.TrimSpace(line[:i]))
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: bad edge source: %v", lineno, err)
			}
			rest := strings.TrimSpace(line[i+2:])
			j := strings.Index(rest, "[")
			if j < 0 {
				return nil, fmt.Errorf("tla: dot line %d: edge without attributes", lineno)
			}
			to, err := strconv.Atoi(strings.TrimSpace(rest[:j]))
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: bad edge target: %v", lineno, err)
			}
			label, err := dotLabel(rest[j:])
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: %v", lineno, err)
			}
			g.Edges = append(g.Edges, Edge{From: from, Action: label, To: to})
			continue
		}
		if j := strings.Index(line, "["); j >= 0 {
			id, err := strconv.Atoi(strings.TrimSpace(line[:j]))
			if err != nil {
				continue // not a node line (e.g. graph attribute)
			}
			label, err := dotLabel(line[j:])
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: %v", lineno, err)
			}
			g.Labels[id] = label
			if strings.Contains(line[j:], "style=filled") {
				g.Inits = append(g.Inits, id)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// dotLabel extracts the quoted label value from an attribute list like
// `[label="...",style=filled]`.
func dotLabel(attrs string) (string, error) {
	i := strings.Index(attrs, "label=")
	if i < 0 {
		return "", fmt.Errorf("no label attribute in %q", attrs)
	}
	rest := attrs[i+len("label="):]
	if len(rest) == 0 || rest[0] != '"' {
		return "", fmt.Errorf("label not quoted in %q", attrs)
	}
	// Find the closing quote, honouring backslash escapes.
	for j := 1; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			j++
		case '"':
			return strconv.Unquote(rest[:j+1])
		}
	}
	return "", fmt.Errorf("unterminated label in %q", attrs)
}
