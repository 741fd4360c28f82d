// Package tlatext implements the Trace-module half of the MBTC pipeline:
// rendering a replica-set state sequence as a TLA+ module (Figure 4),
// parsing such modules back, and checking a trace by Pressler's method
// [34] — the route the paper used, in which TLC evaluates the generated
// module against the specification.
//
// Pressler's method "worked well to check traces of hundreds of events,
// but for thousands of events it was impractically slow" (§4.2.4): TLA+
// sequences are cons-structured, so TLC's evaluation of Trace[i] walks the
// sequence from its head, making a full check quadratic in the trace
// length. CheckPressler reproduces that cost model faithfully by driving
// every state access through the parsed module's linked representation;
// CheckDirect is the linear fast path that the paper wanted built into TLC
// (TLA+ issue 413, the special-purpose Java extension).
package tlatext

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// WriteTraceModule renders the state sequence as a TLA+ module named
// "Trace": one tuple per state, each holding per-node role, term, commit
// point, and oplog tuples — the Figure 4 format.
func WriteTraceModule(w io.Writer, states []raftmongo.State) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "---- MODULE Trace ----")
	fmt.Fprintln(bw, "EXTENDS Integers, Sequences")
	fmt.Fprintln(bw, "(* Trace generated from replica set log files. Each tuple is role,")
	fmt.Fprintln(bw, "   term, commit point, oplog per node. *)")
	fmt.Fprintln(bw, "Trace == <<")
	for i, s := range states {
		sep := ","
		if i == len(states)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "  %s%s\n", stateTuple(s), sep)
	}
	fmt.Fprintln(bw, ">>")
	fmt.Fprintln(bw, "====")
	return bw.Flush()
}

func stateTuple(s raftmongo.State) string {
	var roles, terms, cps, logs []string
	for i := range s.NumNodes() {
		roles = append(roles, strconv.Quote(s.Roles[i].String()))
		terms = append(terms, strconv.Itoa(int(s.Terms[i])))
		cp := s.CommitPoints[i]
		if cp.IsNull() {
			cps = append(cps, "NULL")
		} else {
			cps = append(cps, fmt.Sprintf("[term |-> %d, index |-> %d]", cp.Term, cp.Index))
		}
		var entries []string
		for _, t := range s.Oplogs[i].Terms() {
			entries = append(entries, strconv.Itoa(t))
		}
		logs = append(logs, "<<"+strings.Join(entries, ", ")+">>")
	}
	return fmt.Sprintf("<<<<%s>>, <<%s>>, <<%s>>, <<%s>>>>",
		strings.Join(roles, ", "), strings.Join(terms, ", "),
		strings.Join(cps, ", "), strings.Join(logs, ", "))
}

// Module is a parsed Trace module. States are held as a cons list — the
// representation a TLA+ sequence has inside TLC — so that indexed access
// costs O(i), which is what makes Pressler's method quadratic overall.
type Module struct {
	head *consCell
	n    int
}

type consCell struct {
	state raftmongo.State
	next  *consCell
}

// Len returns the number of states in the module.
func (m *Module) Len() int { return m.n }

// At returns state i (0-based) by walking the cons list from the head —
// deliberately O(i), as TLC evaluates Trace[i]. Like TLC, which
// re-fingerprints the values its evaluator traverses, every visited cell's
// state is re-encoded; this is the constant factor that turns the
// quadratic access pattern into the §4.2.4 "impractically slow for
// thousands of events".
func (m *Module) At(i int) raftmongo.State {
	cell := m.head
	fp := 0
	for k := 0; k < i; k++ {
		fp += len(cell.state.Key())
		cell = cell.next
	}
	if fp < 0 {
		panic("unreachable: fingerprint accumulator")
	}
	return cell.state
}

// States materializes the whole sequence (linear; used by the direct path).
func (m *Module) States() []raftmongo.State {
	out := make([]raftmongo.State, 0, m.n)
	for cell := m.head; cell != nil; cell = cell.next {
		out = append(out, cell.state)
	}
	return out
}

// ParseTraceModule reads a module written by WriteTraceModule.
func ParseTraceModule(r io.Reader) (*Module, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	m := &Module{}
	var tail *consCell
	lineno := 0
	inTrace := false
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Trace =="):
			inTrace = true
			continue
		case line == ">>" || line == "====":
			inTrace = false
			continue
		}
		if !inTrace || line == "" || strings.HasPrefix(line, "(*") || strings.HasPrefix(line, "EXTENDS") || strings.Contains(line, "MODULE") || strings.HasPrefix(line, "term, commit") {
			continue
		}
		line = strings.TrimSuffix(line, ",")
		st, err := parseStateTuple(line)
		if err != nil {
			return nil, fmt.Errorf("tlatext: line %d: %w", lineno, err)
		}
		cell := &consCell{state: st}
		if tail == nil {
			m.head = cell
		} else {
			tail.next = cell
		}
		tail = cell
		m.n++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.n == 0 {
		return nil, fmt.Errorf("tlatext: no states in module")
	}
	return m, nil
}

// parseStateTuple parses one <<roles, terms, cps, logs>> tuple, with the
// bounds of raftmongo.MakeState: at most raftmongo.MaxNodes nodes, every
// number in 0..raftmongo.MaxValue.
func parseStateTuple(s string) (raftmongo.State, error) {
	parts, err := splitTupleGroups(s)
	if err != nil {
		return raftmongo.State{}, err
	}
	if len(parts) != 4 {
		return raftmongo.State{}, fmt.Errorf("state tuple has %d groups, want 4", len(parts))
	}
	var (
		roles []raftmongo.Role
		terms []int
		cps   []raftmongo.CommitPoint
		logs  [][]int
	)
	for _, r := range splitTopLevel(parts[0]) {
		name, err := strconv.Unquote(r)
		if err != nil {
			return raftmongo.State{}, fmt.Errorf("bad role %q: %v", r, err)
		}
		switch name {
		case "Leader":
			roles = append(roles, raftmongo.Leader)
		case "Follower":
			roles = append(roles, raftmongo.Follower)
		default:
			return raftmongo.State{}, fmt.Errorf("unknown role %q", name)
		}
	}
	for _, t := range splitTopLevel(parts[1]) {
		v, err := strconv.Atoi(t)
		if err != nil {
			return raftmongo.State{}, fmt.Errorf("bad term %q", t)
		}
		terms = append(terms, v)
	}
	for _, c := range splitTopLevel(parts[2]) {
		cp, err := parseCommitPoint(c)
		if err != nil {
			return raftmongo.State{}, err
		}
		cps = append(cps, cp)
	}
	for _, l := range splitTopLevel(parts[3]) {
		inner := strings.TrimSuffix(strings.TrimPrefix(l, "<<"), ">>")
		log := []int{}
		if strings.TrimSpace(inner) != "" {
			for _, e := range strings.Split(inner, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(e))
				if err != nil {
					return raftmongo.State{}, fmt.Errorf("bad oplog entry %q", e)
				}
				log = append(log, v)
			}
		}
		logs = append(logs, log)
	}
	return raftmongo.MakeState(roles, terms, cps, logs)
}

func parseCommitPoint(s string) (raftmongo.CommitPoint, error) {
	s = strings.TrimSpace(s)
	if s == "NULL" {
		return raftmongo.CommitPoint{}, nil
	}
	var term, index int
	if _, err := fmt.Sscanf(s, "[term |-> %d, index |-> %d]", &term, &index); err != nil {
		return raftmongo.CommitPoint{}, fmt.Errorf("bad commit point %q: %v", s, err)
	}
	t, err := raftmongo.Narrow("commit-point term", term)
	if err != nil {
		return raftmongo.CommitPoint{}, err
	}
	i, err := raftmongo.Narrow("commit-point index", index)
	if err != nil {
		return raftmongo.CommitPoint{}, err
	}
	return raftmongo.CommitPoint{Term: t, Index: i}, nil
}

// splitTupleGroups splits `<<<<a>>, <<b>>, <<c>>, <<d>>>>` into the four
// top-level groups.
func splitTupleGroups(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<<") || !strings.HasSuffix(s, ">>") {
		return nil, fmt.Errorf("not a tuple: %q", s)
	}
	inner := s[2 : len(s)-2]
	groups := splitTopLevel(inner)
	for i, g := range groups {
		g = strings.TrimSpace(g)
		if !strings.HasPrefix(g, "<<") || !strings.HasSuffix(g, ">>") {
			return nil, fmt.Errorf("group %d not a tuple: %q", i, g)
		}
		groups[i] = g[2 : len(g)-2]
	}
	// The oplog group contains nested tuples; restore them whole.
	if len(groups) == 4 {
		g := strings.TrimSpace(splitRaw(inner)[3])
		groups[3] = strings.TrimSuffix(strings.TrimPrefix(g, "<<"), ">>")
	}
	return groups, nil
}

// splitRaw splits on top-level commas without trimming tuple markers.
func splitRaw(s string) []string { return splitTopLevel(s) }

// splitTopLevel splits s on commas not nested inside << >> or [ ].
func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch {
		case i+1 < len(s) && s[i] == '<' && s[i+1] == '<':
			depth++
			i++
		case i+1 < len(s) && s[i] == '>' && s[i+1] == '>':
			depth--
			i++
		case s[i] == '[':
			depth++
		case s[i] == ']':
			depth--
		case s[i] == ',' && depth == 0:
			part := strings.TrimSpace(s[start:i])
			if part != "" {
				out = append(out, part)
			}
			start = i + 1
		}
	}
	if part := strings.TrimSpace(s[start:]); part != "" {
		out = append(out, part)
	}
	return out
}

// CheckResult reports a Pressler-method or direct check.
type CheckResult struct {
	Steps      int
	OK         bool
	FailedStep int
	// Accesses counts cons-list cell traversals — the cost driver of
	// Pressler's method.
	Accesses int
}

// CheckPressler checks the module's state sequence against the spec the
// way TLC checks a Trace module: for each step i, the states Trace[i] and
// Trace[i+1] are evaluated by indexing into the cons-structured sequence
// (O(i) each), and the pair must be an initial state or a valid
// transition. Total cost is quadratic in the trace length — hundreds of
// events are fine, thousands are impractically slow (§4.2.4).
func CheckPressler(spec *tla.Spec[raftmongo.State], m *Module) *CheckResult {
	res := &CheckResult{FailedStep: -1}
	at := func(i int) raftmongo.State {
		res.Accesses += i + 1
		return m.At(i)
	}
	first := at(0)
	if !stateIn(spec.Init(), first) {
		res.FailedStep = 0
		return res
	}
	res.Steps = 1
	for i := 1; i < m.Len(); i++ {
		prev, next := at(i-1), at(i)
		if !validTransition(spec, prev, next) {
			res.FailedStep = i
			return res
		}
		res.Steps++
	}
	res.OK = true
	return res
}

// CheckDirect is the linear path: the sequence is materialized once and
// each transition checked in place — the "special-purpose extension to
// TLC" of TLA+ issue 413.
func CheckDirect(spec *tla.Spec[raftmongo.State], m *Module) *CheckResult {
	res := &CheckResult{FailedStep: -1}
	states := m.States()
	res.Accesses = len(states)
	if !stateIn(spec.Init(), states[0]) {
		res.FailedStep = 0
		return res
	}
	res.Steps = 1
	for i := 1; i < len(states); i++ {
		if !validTransition(spec, states[i-1], states[i]) {
			res.FailedStep = i
			return res
		}
		res.Steps++
	}
	res.OK = true
	return res
}

func stateIn(states []raftmongo.State, s raftmongo.State) bool {
	key := s.Key()
	for _, c := range states {
		if c.Key() == key {
			return true
		}
	}
	return false
}

func validTransition(spec *tla.Spec[raftmongo.State], prev, next raftmongo.State) bool {
	want := next.Key()
	for _, a := range spec.Actions {
		for _, succ := range a.Next(prev) {
			if succ.Key() == want {
				return true
			}
		}
	}
	return false
}
