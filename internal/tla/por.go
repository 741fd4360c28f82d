package tla

import "repro/internal/obs"

// Partial-order reduction (ample-set successor pruning), the classic
// state-space lever that composes with — rather than competes against —
// symmetry reduction and every worker count.
//
// The idea: when several enabled transitions of a state only interleave
// independent work of distinct processes, exploring one interleaving is
// enough — the others reach the same states in a different order. The spec
// declares which transitions belong to which process and which of them are
// deferrable (Independence below); per expanded state the engine then picks
// an "ample" subset of the successors — all transitions of one eligible
// process — and explores only those, deferring the rest.
//
// The division of obligations mirrors SymmetryVisitor's: the engine
// enforces the structural ample conditions mechanically, and the
// declaration carries the semantic ones as a documented soundness claim,
// locked empirically by the oracle cross-checks (TestPORMatchesOracle in
// the spec packages, randomized cross-checks here).
//
// Engine-enforced, per expanded state:
//
//   - C0 (non-emptiness): a state is pruned only when the chosen process
//     owns at least one transition; a state with no successors is terminal
//     under POR exactly when it is terminal without it (the full successor
//     set is always generated — POR's win is fewer *expanded* states, not
//     cheaper expansion of one state).
//   - Proper subset: a process owning every transition of the state is
//     never chosen (pruning would be a no-op).
//   - C3 (cycle proviso, queue form): an ample set is kept only if at
//     least one ample successor is not yet expanded — and will be — at
//     decision time; otherwise the state is fully expanded. That witness
//     expands strictly later than this state, and a transition deferred
//     here stays enabled there (C1), where it is either explored or
//     deferred again to a still-later witness; the chain's expansion
//     times strictly increase, so on a finite graph it ends at a fully
//     expanded state and no transition is ignored forever. An ample
//     successor closing a cycle (back-, same-level or self-loop) is
//     harmless as long as another one is the witness; if none is — every
//     ample successor already expanded, expanding, or cut — the pruning is
//     abandoned. Both drivers generate the full successor set and order it
//     ample-first (expander.expand), and each state decides in the
//     merge's route pass, on its own and exactly: the witness is
//     an ample successor new to this level — it missed the probe and was
//     not restored from disk, so whichever of its occurrences comes first
//     gives it an id at or past the level's first — and inside the
//     constraint (which symmetry leaves invariant), so it joins the next
//     level.
//
// Declaration-carried (the Independence hooks' contract):
//
//   - C1 (dependency): transitions of a process reported Safe must commute
//     with — and never be disabled by — the transitions they are explored
//     ahead of, up to verdict equivalence (see below).
//   - C2 (invisibility): deferring them must not change any invariant's or
//     the constraint's verdict on the states the reduction skips.
//
// What POR preserves, given an honest declaration: the verdict (violation
// or clean, and the violated invariant), the terminal-state count
// (deadlock preservation), and the reachability of every
// invariant-distinguishable situation. A reported counterexample is a real
// behaviour but not necessarily a shortest one. What it does not preserve:
// Distinct, Transitions, Depth, ConstraintCuts and the recorded graph all
// describe the reduced space — smaller by construction (Distinct never
// exceeds the unpruned run's). Liveness checking (CheckEventuallyWithin) needs
// the full edge set and must run without POR.

// Independence is a spec's partial-order-reduction declaration
// (Spec.Independence): it partitions transitions among abstract processes
// and marks which of them are deferrable. "Process" is whatever unit the
// spec's actions interleave over — a node, an actor, or finer (the
// raftmongo declaration splits each node into a commit-point process and a
// term/role process, because those variable clusters commute with each
// other too).
type Independence[S State] struct {
	// Procs returns the number of processes of state s. Process indices
	// returned by Owner must lie in [0, Procs(s)).
	Procs func(s S) int
	// Owner maps one transition — s reaching succ via the action at index
	// act of Spec.Actions — to the process whose variables it writes.
	// Return -1 for transitions that touch several processes' variables
	// (or variables the declaration cannot vouch for): they are never part
	// of an ample set and never deferred past one incorrectly, only
	// deferred *by* one, which the Safe hooks must account for.
	Owner func(s, succ S, act int) int
	// SafeAction, when non-nil, statically vetoes actions: a process
	// owning any enabled transition of an action for which SafeAction
	// returns false is ineligible at that state. nil means all actions
	// are deferrable (Owner already routed the dangerous ones to -1).
	SafeAction func(act int) bool
	// Safe, when non-nil, dynamically vetoes a process at a state: return
	// false when p's transitions are not deferrable from s (e.g. a role
	// change that would disable another process's only path to a visible
	// state). nil means no per-state veto.
	Safe func(s S, p int) bool
}

// activeIndependence returns the declaration a run prunes with, nil unless
// Options.PartialOrder asks for pruning. Check has already rejected a
// request on a spec without a complete declaration.
func activeIndependence[S State](spec *Spec[S], opts Options) *Independence[S] {
	if !opts.PartialOrder {
		return nil
	}
	return spec.Independence
}

// porPlanner is one worker's ample-set selection scratch. Each worker owns
// one (like its codec clone): choose is called per expanded state with the
// state's full transition list and fills owners as a side effect.
type porPlanner[S State] struct {
	ind      *Independence[S]
	owners   []int // per transition: owning process, -1 = global
	counts   []int // per process: owned transition count
	vetoed   []bool
	hasFresh []bool // per process: owns a transition to an unvisited state

	// rejects counts the states where the planner examined a multi-process,
	// multi-successor state and still elected no process — the signal that
	// a declaration isn't biting. Shared across workers (obs counters are
	// atomic and nil-safe), resolved once at run start.
	rejects *obs.Counter
}

func newPORPlanner[S State](ind *Independence[S], em *engineMetrics) *porPlanner[S] {
	if ind == nil {
		return nil
	}
	return &porPlanner[S]{ind: ind, rejects: em.porRejectCounter()}
}

// choose picks the ample process for state s with successors succs (acts
// holds each transition's action index), returning -1 when the state must
// be fully expanded. On return p.owners[t] holds each transition's owner,
// which the caller uses to partition ample from deferred transitions. The
// choice is deterministic: among eligible processes the one with the
// fewest transitions wins (smaller ample sets defer more), lowest index on
// ties. g guards the declaration's hooks — they are spec code, recovered
// like Next and the encoders.
//
// ids holds per transition the visited set's probe answer, negative on a
// miss: a fresh successor, the caller's prediction of the cycle proviso. A
// process none of whose successors is fresh is certain to fail the proviso
// (every ample successor already expanded or expanding), so it is
// skipped; if no eligible process has a fresh successor, choose returns -1
// and the caller saves the doomed attempt. This is what makes the
// reduction bite on confluent specs, where many states funnel into the
// same successor and a freshness-blind pick keeps electing a cluster whose
// lone successor was visited levels ago. A miss has no id before this
// level, so this level's merge claims it — a certain witness unless cut.
func (p *porPlanner[S]) choose(s S, succs []S, acts []int, ids []int, g *specGuard) int {
	total := len(succs)
	if total < 2 {
		return -1 // pruning a single transition is a no-op
	}
	g.enter(opIndependence, "", -1)
	n := p.ind.Procs(s)
	g.exit()
	if n <= 1 {
		return -1
	}
	p.owners = p.owners[:0]
	if cap(p.counts) < n {
		p.counts = make([]int, n)
		p.vetoed = make([]bool, n)
	}
	p.counts = p.counts[:n]
	p.vetoed = p.vetoed[:n]
	for i := 0; i < n; i++ {
		p.counts[i], p.vetoed[i] = 0, false
	}
	for t := 0; t < total; t++ {
		g.enter(opIndependence, "", -1)
		o := p.ind.Owner(s, succs[t], acts[t])
		g.exit()
		if o < 0 || o >= n {
			o = -1 // out-of-range owners are treated as global, never chosen
		}
		p.owners = append(p.owners, o)
		if o < 0 {
			continue
		}
		p.counts[o]++
		if p.ind.SafeAction != nil && !p.ind.SafeAction(acts[t]) {
			p.vetoed[o] = true
		}
	}
	if cap(p.hasFresh) < n {
		p.hasFresh = make([]bool, n)
	}
	p.hasFresh = p.hasFresh[:n]
	clear(p.hasFresh)
	for t := 0; t < total; t++ {
		if p.owners[t] >= 0 && ids[t] < 0 {
			p.hasFresh[p.owners[t]] = true
		}
	}
	best := -1
	for proc := 0; proc < n; proc++ {
		// C0: the process must own a transition; proper subset: owning all
		// of them makes pruning pointless; the declaration's vetoes carry
		// the C1/C2 claims; no fresh successor means a certain proviso
		// failure.
		if p.counts[proc] == 0 || p.counts[proc] == total || p.vetoed[proc] || !p.hasFresh[proc] {
			continue
		}
		if p.ind.Safe != nil {
			g.enter(opIndependence, "", -1)
			ok := p.ind.Safe(s, proc)
			g.exit()
			if !ok {
				continue
			}
		}
		if best < 0 || p.counts[proc] < p.counts[best] {
			best = proc
		}
	}
	if best < 0 {
		p.rejects.Inc()
	}
	return best
}
