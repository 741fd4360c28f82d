package tla

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Panic isolation: a specification is user code, and a buggy Next, a
// nil-map write in an invariant, or an out-of-range index in a symmetry
// visitor must yield a diagnosable verdict — the offending state's decoded
// trace — not a raw stack trace that takes the whole checker (or the CI
// build embedding it) down. Both schedulers recover panics raised inside
// spec callbacks, drain the remaining workers cleanly, and surface the
// failure as a *SpecPanic wrapping ErrSpecPanic.
//
// The recovery is deliberately narrow: a specGuard records which spec
// callback the goroutine is currently inside (plain field writes, nothing
// allocated on the hot path), and the deferred handlers convert a panic
// only when the guard is armed. A panic raised by the engine itself — a
// checker bug — re-panics and crashes, exactly as before: turning engine
// bugs into polite verdicts would hide them.

// ErrSpecPanic is the named error every recovered spec-callback panic
// wraps: errors.Is(err, ErrSpecPanic) reports that the spec, not the
// checker, failed; errors.As(err, &sp) with sp of type *SpecPanic[S]
// recovers the panic value, stack, and the trace to the offending state.
var ErrSpecPanic = errors.New("tla: spec callback panicked")

// SpecPanic describes a panic recovered from a specification callback:
// which callback, the panic value and stack, and the decoded trace from an
// initial state to the state whose processing panicked (empty when the
// panic preceded any state, e.g. in Init).
type SpecPanic[S State] struct {
	Op        string   // the callback: `action "X".Next`, `invariant "I"`, "Init", "Constraint", "state encoding"; a trace check appends " at observation N"
	Value     any      // the recovered panic value
	Stack     string   // the panicking goroutine's stack
	Trace     []S      // trace to the offending state; nil when unavailable
	TraceActs []string // TraceActs[i] led from Trace[i] to Trace[i+1]
}

func (p *SpecPanic[S]) Error() string {
	return fmt.Sprintf("tla: spec callback %s panicked after a trace of %d states: %v", p.Op, len(p.Trace), p.Value)
}

// Unwrap makes every recovered panic match errors.Is(err, ErrSpecPanic).
func (p *SpecPanic[S]) Unwrap() error { return ErrSpecPanic }

// specOp enumerates the spec callback classes a guard can be inside. An
// enum plus the callback's own name string keeps arming the guard
// allocation-free on the hot path.
type specOp uint8

const (
	opNone specOp = iota
	opInit
	opNext
	opInvariant
	opConstraint
	opEncode       // Key / AppendBinary / SymmetryVisitor during canonicalization
	opIndependence // Independence.Procs / Owner / Safe during ample selection
	opMatches      // Observation.Matches while checking a trace
)

func opString(kind specOp, name string) string {
	switch kind {
	case opInit:
		return "Init"
	case opNext:
		return fmt.Sprintf("action %q.Next", name)
	case opInvariant:
		return fmt.Sprintf("invariant %q", name)
	case opConstraint:
		return "Constraint"
	case opEncode:
		return "state encoding (Key/AppendBinary/SymmetryVisitor)"
	case opIndependence:
		return "independence declaration (Procs/Owner/Safe)"
	case opMatches:
		return "Observation.Matches"
	}
	return "spec callback"
}

// panicInfo is one recovered spec panic, captured where it happened and
// converted into a *SpecPanic (trace reconstruction included) after the
// workers have drained.
type panicInfo struct {
	kind  specOp
	name  string
	id    int // state id the trace should lead to; -1 when none
	value any
	stack string
}

// specGuard tracks which spec callback its goroutine is currently inside.
// enter/exit bracket every callback invocation; both are plain field
// assignments, cheap enough for the per-successor hot path.
type specGuard struct {
	kind specOp
	name string
	id   int
}

func (g *specGuard) enter(kind specOp, name string, id int) {
	g.kind, g.name, g.id = kind, name, id
}

func (g *specGuard) exit() { g.kind = opNone }

// capture converts a recovered value into a panicInfo when the guard is
// armed. A panic outside any spec callback is an engine bug and re-panics:
// it must crash loudly, not masquerade as a spec verdict.
func (g *specGuard) capture(r any) *panicInfo {
	if g.kind == opNone {
		panic(r)
	}
	return &panicInfo{kind: g.kind, name: g.name, id: g.id, value: r, stack: string(debug.Stack())}
}

// safeTrace rebuilds the trace to state id, converting a panic raised
// during the reconstruction into an error. Arena-mode traces run the
// spec's DecodeBinary (arena.go), so a deterministic panic in the encoding
// would otherwise re-fire while reporting the very failure it caused.
func safeTrace[S State](cod *codec[S], ret *retainer[S], id int) (trace []S, acts []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			trace, acts = nil, nil
			err = fmt.Errorf("%w: and panicked again during counterexample decoding: %v", ErrSpecPanic, r)
		}
	}()
	return ret.trace(cod, id)
}

// specPanicError converts a captured panic into the structured *SpecPanic
// verdict, decoding the trace to the offending state when one is known.
// Trace reconstruction failures (including a decode re-panic) degrade to
// an empty trace — the panic diagnosis survives regardless.
func specPanicError[S State](cod *codec[S], ret *retainer[S], pi *panicInfo) error {
	sp := &SpecPanic[S]{Op: opString(pi.kind, pi.name), Value: pi.value, Stack: pi.stack}
	if pi.id >= 0 && pi.id < ret.len() {
		if trace, acts, err := safeTrace(cod, ret, pi.id); err == nil {
			sp.Trace, sp.TraceActs = trace, acts
		}
	}
	return sp
}
