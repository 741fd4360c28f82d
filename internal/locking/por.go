package locking

import "repro/internal/tla"

// Independence is the locking spec's partial-order-reduction declaration
// (tla.Spec.Independence): one process per actor, owning the transitions
// that change that actor's holdings. Procs is the state's actor count N,
// and Owner compares only the rows below it: the padding rows of Held are
// zero in every state and belong to no process.
//
// Only Release transitions are deferrable (SafeAction). Releasing a's
// deepest lock writes one cell of a's row Held[a] and reads nothing else
// — the successor is s with that cell cleared; for every
// other actor it only *relaxes* the compatibility matrix, so no deferred
// transition is ever disabled by an ample release, and a deferred
// acquire's grant — decided by the acquirer's own row and the matrix —
// produces the same row for its owner whenever it finally runs. Acquires
// are the opposite: an acquire can disable other actors' acquires (an X
// grant blocks everything below it in the matrix), so exploring one
// acquire ahead of its siblings would not commute. They stay fully
// interleaved.
//
// The declaration is config-gated: a spec built with
// OmitCompatibilityCheck must not declare independence at all. Its known
// Compatibility violation (the golden-file counterexample) lives on a
// joint state — two actors holding incompatible modes at once — that
// release-pruning can skip: defer actor b's incompatible acquire past
// actor a's ample release and the violating combination never
// materializes. Returning nil makes tla.Check refuse Options.PartialOrder
// for that config, so the golden verdict is only ever reported unpruned.
//
// Both hooks are permutation-equivariant (rows are compared pointwise and
// the action filter is position-independent), so the declaration composes
// with SpecConfig.Symmetric.
//
// Expect the actual cut to be ~zero: a release steps down the holdings
// lattice to a state the acquire path already visited at a shallower BFS
// level, so the cycle proviso's fresh-successor witness never exists and
// the engine declines every ample set. The declaration still earns its
// keep — it exercises the sound no-win path (never exploring more states
// than the unpruned run; see TestPORReduction) and documents, next to
// raftmongo's 3x+ cut, that BFS ample sets pay off on forward-fresh
// independent moves, not confluent down-moves.
func Independence(cfg SpecConfig) *tla.Independence[SpecState] {
	if cfg.OmitCompatibilityCheck {
		return nil
	}
	return &tla.Independence[SpecState]{
		Procs: func(s SpecState) int { return int(s.N) },
		Owner: func(s, succ SpecState, act int) int {
			owner := -1
			for a := range int(s.N) {
				if s.Held[a] != succ.Held[a] {
					if owner != -1 {
						return -1 // a transition never writes two actors' rows
					}
					owner = a
				}
			}
			return owner
		},
		// Action order in Spec: 0 = Acquire, 1 = Release.
		SafeAction: func(act int) bool { return act == 1 },
	}
}
