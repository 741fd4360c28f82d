package tla

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
)

// referenceRun is what a textbook breadth-first search finds, independent
// of the engine: a map keyed by canonical encoding, a FIFO queue, and every
// counter moved where the engine documents it — Transitions up to and
// including the successor that ends the run, the first violation in
// discovery order, the MaxStates limit at the first state past it.
type referenceRun struct {
	distinct, transitions, depth, terminal, cuts int
	keys                                         []string // by id: Key of the first occurrence
	depths                                       []int    // by id
	edges                                        []Edge   // in discovery order
	inits                                        []int
	violated                                     string // the violated invariant, "" when none
	traceKeys, traceActs                         []string
	limit                                        bool // the run hit MaxStates
}

// referenceBFS explores spec the textbook way. Under symmetry a state's
// identity is the least encoding among the states its visitor visits (its
// own when it visits none) — the OrbitVisitor contract, read directly.
func referenceBFS[S State](spec *Spec[S], maxStates int) (r referenceRun) {
	canon := func(s S) string { return string(s.AppendBinary(nil)) }
	if spec.SymmetryVisitor != nil {
		orbit := spec.SymmetryVisitor()
		canon = func(s S) string {
			var least []byte
			orbit(s, func(t S) {
				if enc := t.AppendBinary(nil); least == nil || bytes.Compare(enc, least) < 0 {
					least = enc
				}
			})
			if least == nil {
				least = s.AppendBinary(nil)
			}
			return string(least)
		}
	}
	var (
		ids    = map[string]int{}
		states []S
		parent []int
		act    []string
		depth  []int
		queue  []int
	)
	// add registers s, reached from state from by action name (from -1 for
	// an initial state), and returns its id (-1 past MaxStates) and whether
	// the run goes on.
	add := func(s S, from int, name string) (int, bool) {
		if id, ok := ids[canon(s)]; ok {
			return id, true
		}
		id := len(states)
		if maxStates > 0 && id >= maxStates {
			r.limit = true
			return -1, false
		}
		d := 0
		if from >= 0 {
			d = depth[from] + 1
		}
		ids[canon(s)] = id
		states, parent, act, depth = append(states, s), append(parent, from), append(act, name), append(depth, d)
		r.keys, r.depths = append(r.keys, s.Key()), append(r.depths, d)
		r.depth = max(r.depth, d)
		for _, inv := range spec.Invariants {
			if inv.Check(s) != nil {
				r.violated = inv.Name
				for i := id; i >= 0; i = parent[i] {
					r.traceKeys = append([]string{states[i].Key()}, r.traceKeys...)
					if parent[i] >= 0 {
						r.traceActs = append([]string{act[i]}, r.traceActs...)
					}
				}
				return id, false
			}
		}
		if spec.Constraint == nil || spec.Constraint(s) {
			queue = append(queue, id)
		} else {
			r.cuts++
		}
		return id, true
	}
	defer func() { r.distinct = len(states) }()
	for _, s := range spec.Init() {
		id, more := add(s, -1, "")
		if id >= 0 {
			r.inits = append(r.inits, id)
		}
		if !more {
			return r
		}
	}
	for ; len(queue) > 0; queue = queue[1:] {
		from := queue[0]
		succs := make([][]S, len(spec.Actions))
		n := 0
		for i, a := range spec.Actions {
			succs[i] = a.Next(states[from])
			n += len(succs[i])
		}
		if n == 0 {
			r.terminal++
		}
		for i, a := range spec.Actions {
			for _, s := range succs[i] {
				r.transitions++
				id, more := add(s, from, a.Name)
				if id >= 0 {
					r.edges = append(r.edges, Edge{From: from, Action: a.Name, To: id})
				}
				if !more {
					return r
				}
			}
		}
	}
	return r
}

// referenceMismatch compares an engine run, erased to a latticeRun, with
// the reference and returns the first difference, or "". A recorded graph
// is compared state by state and edge by edge.
func referenceMismatch(ref referenceRun, got latticeRun) string {
	g := got.res
	if g == nil {
		return fmt.Sprintf("no result: %v", got.err)
	}
	switch {
	case errors.Is(got.err, ErrStateLimit) != ref.limit:
		return fmt.Sprintf("err = %v, reference limit %t", got.err, ref.limit)
	case errors.Is(got.err, ErrInvariantViolated) != (ref.violated != ""):
		return fmt.Sprintf("err = %v, reference violation %q", got.err, ref.violated)
	case g.Distinct != ref.distinct || g.Transitions != ref.transitions || g.Depth != ref.depth ||
		g.Terminal != ref.terminal || g.ConstraintCuts != ref.cuts:
		return fmt.Sprintf("distinct/transitions/depth/terminal/cuts %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
			g.Distinct, g.Transitions, g.Depth, g.Terminal, g.ConstraintCuts,
			ref.distinct, ref.transitions, ref.depth, ref.terminal, ref.cuts)
	case !slices.Equal(got.traceKeys, ref.traceKeys) || !slices.Equal(got.traceActs, ref.traceActs):
		return fmt.Sprintf("counterexample %v via %v, reference %v via %v", got.traceKeys, got.traceActs, ref.traceKeys, ref.traceActs)
	case got.keys == nil:
		return ""
	case !slices.Equal(got.keys, ref.keys):
		return fmt.Sprintf("state keys %v, reference %v", got.keys, ref.keys)
	case !slices.Equal(got.edges, ref.edges):
		return fmt.Sprintf("%d edges differ from the reference's %d", len(got.edges), len(ref.edges))
	case !slices.Equal(got.inits, ref.inits):
		return fmt.Sprintf("inits %v, reference %v", got.inits, ref.inits)
	}
	return ""
}
