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
	"sync"
)

// WriteDOT renders the state graph in GraphViz DOT format, matching the
// structure of TLC's -dump dot output: one node per distinct state, labelled
// with the state's canonical key, and one edge per transition, labelled with
// the action name. It is the graph's export format: ParseDOT reads it (and
// TLC-style dumps) back, but the MBTCG pipeline (package mbtcg) builds its
// cases from the Graph itself and writes this file only as its artifact.
//
// Edges are emitted in deterministic (From, To, Action) order, so the same
// exploration yields byte-identical output whether its states are live or
// decoded from the arena, its segments resident or spilled. Node lines —
// each state's Key and quoting, nearly all of the work — are formatted in
// blocks of dotBlock ids by the run's workers (see writeDOTNodes) and
// written in id order, so the output does not depend on the worker count
// either. Every line is built by appending into a reused buffer, so a
// node costs only what its state read and Key cost and an edge costs no
// allocation. A state that cannot be read back (an unreadable spilled
// segment) is returned as an error.
func (g *Graph[S]) WriteDOT(w io.Writer, name string) error {
	// bufio.Writer errors are sticky: the final Flush reports any of them.
	bw := bufio.NewWriter(w)
	bw.WriteString("strict digraph " + dotID(name) + " {\n")
	inits := make([]bool, g.Len())
	for _, id := range g.Inits {
		inits[id] = true
	}
	line, err := g.writeDOTNodes(bw, inits)
	if err != nil {
		return err
	}
	if err := g.writeDOTEdges(bw, line); err != nil {
		return err
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// dotBlock is the number of node lines one worker formats per hand-off:
// large enough that a hand-off costs nothing next to its Key calls,
// small enough that a block's buffer stays a few hundred kilobytes.
const dotBlock = 256

// appendDOTNodes appends the node lines of ids [lo, hi) to buf. It reads
// each state through the retainer, so an unreadable spilled segment is an
// error, not the panic of KeyAt.
func (g *Graph[S]) appendDOTNodes(buf []byte, lo, hi int, inits []bool) ([]byte, error) {
	for id := lo; id < hi; id++ {
		s, err := g.ret.stateAt(g.cod, id)
		if err != nil {
			return buf, err
		}
		buf = strconv.AppendInt(append(buf, "  "...), int64(id), 10)
		buf = appendDOTQuote(append(buf, " [label="...), s.Key())
		if inits[id] {
			buf = append(buf, ",style=filled"...)
		}
		buf = append(buf, "];\n"...)
	}
	return buf, nil
}

// dotPart is one formatted block of node lines, or the read error or
// panic (of the spec's Key) a worker met while formatting it.
type dotPart struct {
	buf   []byte
	err   error
	panic any
}

// writeDOTNodes writes the node lines in id order and returns a buffer
// the edge lines may reuse. With one worker (the graph of a Workers: 1
// run, or a graph of one block) it formats and writes inline, line by
// line. Otherwise worker w formats blocks w, w+workers, w+2·workers, …
// into its one reused buffer and hands each to the caller, which writes
// the blocks in order and hands the buffer back: at most one block per
// worker is in flight. Graph reads are safe from several goroutines once
// the run has finished. A read error (an unreadable spilled segment) is
// returned, and a panic while formatting (in the spec's Key) re-raised on
// the caller's goroutine, when its block's turn comes, after every worker
// has stopped.
func (g *Graph[S]) writeDOTNodes(bw *bufio.Writer, inits []bool) ([]byte, error) {
	n := len(inits)
	blocks := (n + dotBlock - 1) / dotBlock
	workers := min(g.workers, blocks)
	if workers <= 1 {
		line := make([]byte, 0, 1024)
		for id := 0; id < n; id++ {
			var err error
			if line, err = g.appendDOTNodes(line[:0], id, id+1, inits); err != nil {
				return nil, err
			}
			bw.Write(line)
		}
		return line, nil
	}
	parts := make([]chan dotPart, workers)
	back := make([]chan []byte, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for w := range parts {
		parts[w], back[w] = make(chan dotPart, 1), make(chan []byte, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 1024)
			for b := w; b < blocks; b += workers {
				part := g.formatDOTBlock(buf[:0], b, inits)
				select {
				case parts[w] <- part:
				case <-stop:
					return
				}
				select {
				case buf = <-back[w]:
				case <-stop:
					return
				}
			}
		}()
	}
	for b := 0; b < blocks; b++ {
		part := <-parts[b%workers]
		if part.panic != nil {
			panic(part.panic)
		}
		if part.err != nil {
			return nil, part.err
		}
		bw.Write(part.buf)
		back[b%workers] <- part.buf
	}
	return nil, nil
}

// formatDOTBlock formats block b's node lines into buf, recovering a
// panic into the part so the caller can re-raise it.
func (g *Graph[S]) formatDOTBlock(buf []byte, b int, inits []bool) (part dotPart) {
	defer func() {
		if pv := recover(); pv != nil {
			part = dotPart{buf: buf, panic: pv}
		}
	}()
	lo := b * dotBlock
	buf, err := g.appendDOTNodes(buf, lo, min(lo+dotBlock, len(inits)), inits)
	return dotPart{buf: buf, err: err}
}

// writeDOTEdges emits the edges in (From, To, Action) order, building each
// line in line's storage. Edges are recorded with nondecreasing From — a
// level expands its frontier in id order, and ids ascend across levels,
// a resumed run's included — so the list streams one From-block at a
// time: sorting each contiguous block by (To, Action) is exactly the
// global order, without ever materializing the full edge list.
func (g *Graph[S]) writeDOTEdges(bw *bufio.Writer, line []byte) error {
	emit := func(edges []Edge) {
		slices.SortFunc(edges, compareEdges)
		for _, e := range edges {
			line = strconv.AppendInt(append(line[:0], "  "...), int64(e.From), 10)
			line = strconv.AppendInt(append(line, " -> "...), int64(e.To), 10)
			line = append(appendDOTQuote(append(line, " [label="...), e.Action), "];\n"...)
			bw.Write(line)
		}
	}
	var block []Edge
	if err := g.ForEachEdge(func(e Edge) error {
		if len(block) > 0 && e.From != block[0].From {
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

// appendDOTQuote appends s as a double-quoted string, byte-identical to
// strconv.AppendQuote. A label of printable ASCII (0x20–0x7E) — every key
// the bundled specs produce — needs only its '"' and '\\' escaped, which
// one pass does into a buffer grown once for the worst case (every byte
// escaped); on the first other byte the whole string goes through
// strconv.AppendQuote.
func appendDOTQuote(buf []byte, s string) []byte {
	n := len(buf)
	buf = slices.Grow(buf, 2*len(s)+2)
	out := buf[n : n+2*len(s)+2]
	out[0] = '"'
	j := 1
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e:
			return strconv.AppendQuote(buf[:n], s)
		case c == '"' || c == '\\':
			out[j], out[j+1] = '\\', c
			j += 2
		default:
			out[j] = c
			j++
		}
	}
	out[j] = '"'
	return buf[:n+j+1]
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
// `N -> M [label="..."];`. A line is an edge when its tokens before the
// first '[' contain "->", so a label such as TLC's `/\\ f = [n1 |-> 0]`
// stays a node label; a node is initial when style=filled appears among
// its attributes outside the quoted label. It is a line-oriented parser,
// as the paper's generator was; it does not aim to parse arbitrary DOT.
func ParseDOT(r io.Reader) (*DOTGraph, error) {
	g := &DOTGraph{Labels: make(map[int]string)}
	sc := bufio.NewScanner(r)
	// The default buffer, grown on demand for long labels up to 64 MiB a
	// line: a small dump costs a small buffer.
	sc.Buffer(nil, 1<<26)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "strict digraph") || line == "}" || strings.HasPrefix(line, "//") {
			continue
		}
		line = strings.TrimSuffix(line, ";")
		head, attrs, hasAttrs := line, "", false
		if j := strings.IndexByte(line, '['); j >= 0 {
			head, attrs, hasAttrs = line[:j], line[j:], true
		}
		if from, to, isEdge := strings.Cut(head, "->"); isEdge {
			src, err := strconv.Atoi(strings.TrimSpace(from))
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: bad edge source: %v", lineno, err)
			}
			if !hasAttrs {
				return nil, fmt.Errorf("tla: dot line %d: edge without attributes", lineno)
			}
			dst, err := strconv.Atoi(strings.TrimSpace(to))
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: bad edge target: %v", lineno, err)
			}
			label, _, err := dotLabel(attrs)
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: %v", lineno, err)
			}
			g.Edges = append(g.Edges, Edge{From: src, Action: label, To: dst})
			continue
		}
		if hasAttrs {
			id, err := strconv.Atoi(strings.TrimSpace(head))
			if err != nil {
				continue // not a node line (e.g. graph attribute)
			}
			label, others, err := dotLabel(attrs)
			if err != nil {
				return nil, fmt.Errorf("tla: dot line %d: %v", lineno, err)
			}
			g.Labels[id] = label
			if strings.Contains(others, "style=filled") {
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
// `[label="...",style=filled]`, and returns the list's other attributes —
// the text before `label=` and after the label's closing quote — so that
// no attribute is ever read out of the label text.
func dotLabel(attrs string) (label, others string, err error) {
	i := strings.Index(attrs, "label=")
	if i < 0 {
		return "", "", fmt.Errorf("no label attribute in %q", attrs)
	}
	rest := attrs[i+len("label="):]
	if len(rest) == 0 || rest[0] != '"' {
		return "", "", fmt.Errorf("label not quoted in %q", attrs)
	}
	// Find the closing quote, honouring backslash escapes.
	for j := 1; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			j++
		case '"':
			label, err := strconv.Unquote(rest[:j+1])
			return label, attrs[:i] + rest[j+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated label in %q", attrs)
}
