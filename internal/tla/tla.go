// Package tla is a small explicit-state model checker in the style of TLC,
// the checker for TLA+ specifications. It is the substrate for every
// experiment in this repository: a specification is a set of initial states
// plus named actions (guarded transition relations), and the checker
// exhaustively explores the reachable state space by breadth-first search,
// verifying invariants at every state and optionally recording the full
// state graph, from which the MBTCG pipeline derives its test cases and
// which exports to GraphViz DOT in the shape of TLC's dump (ParseDOT reads
// such a dump back, as the paper's Golang generator parsed TLC's).
//
// The package also implements direct trace checking (the "frontier method"):
// given a sequence of observed states — possibly partial — it decides
// whether the sequence is a behaviour of the specification. This is the
// fast path the paper wished TLC had (TLA+ issue 413); the slow,
// Pressler-style path that goes through a generated Trace module lives in
// package tlatext.
package tla

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// State is implemented by specification states. A state has one identity
// in two forms: AppendBinary (see BinaryState), the byte encoding the
// checker deduplicates, fingerprints, orders orbits by and stores, and
// Key, the same identity as a string — the label DOT dumps, Graph.KeyAt
// and printed traces carry. Two states are identical if and only if their
// encodings are equal, and if and only if their keys are. The checker
// dedups on a 64-bit fingerprint of the encoding, comparing the encodings
// behind a fingerprint hit when it must be exact (see
// Options.CollisionFree).
//
// Unless Options.Workers is 1, Key and AppendBinary are called from
// multiple goroutines concurrently (on distinct states) and must not
// mutate shared state — during the run, and for Key also in the run's
// Graph.WriteDOT, which formats node lines on the run's worker count.
type State interface {
	Key() string
	BinaryState
}

// Action is a named transition relation: Next returns every successor of a
// state reachable by taking this action, or nil if the action is not
// enabled. Actions correspond one-to-one with the named transitions of the
// TLA+ specification being transcribed.
//
// Successors may share memory with s and with each other; nothing may
// mutate a state after Next returns it — not the spec, not the checker,
// not an observer.
//
// Unless Options.Workers (or TraceOptions.Workers) is 1, the checker calls
// Next from multiple goroutines concurrently while expanding a frontier.
// Next must therefore be pure up to shared state: reading captured
// configuration is fine, mutating captured caches or globals is not.
// Invariants and the state Constraint run on the worker goroutines too —
// in the merge, which checks each new state once, in parallel across
// chunks — so they must not mutate shared state either.
type Action[S State] struct {
	Name string
	Next func(S) []S
}

// Invariant is a named state predicate checked at every reachable state.
// Check returns a non-nil error describing the violation, if any.
type Invariant[S State] struct {
	Name  string
	Check func(S) error
}

// OrbitVisitor hands the checker the symmetry orbit of a state, or just
// the part of it that matters: it must call visit with the orbit's
// representative — the image of s, s itself included, whose encoding is
// least — or with any set of images that contains it. The checker keeps
// the least encoding among the visited states (and s's own when nothing
// is visited), so a visitor that computes the representative directly,
// for instance by sorting per-identity records whose encodings order like
// the records do, visits once, while a brute-force visitor enumerates all
// permutations and visits s too. The visitor may build each image in one
// scratch state it reuses across calls and images — visit only encodes the
// image and must not retain it — which is what makes symmetric exploration
// allocation-free.
type OrbitVisitor[S State] func(s S, visit func(S))

// Spec is an executable specification: initial states, actions, invariants,
// and an optional state constraint. Constraint plays the role of TLC's
// CONSTRAINT clause: states for which it returns false are still checked
// against invariants but their successors are not explored, bounding the
// state space. SymmetryVisitor plays the role of TLC's SYMMETRY clause and
// lives here, next to Constraint and Invariants, because like them it is a
// property of the model, not of one checking run.
type Spec[S State] struct {
	Name       string
	Init       func() []S
	Actions    []Action[S]
	Invariants []Invariant[S]
	Constraint func(S) bool
	// SymmetryVisitor, when non-nil, enables symmetry reduction: the
	// checker dedups each state on the minimal encoding across its orbit,
	// so only one representative per orbit is explored — an n!-fold
	// reduction for n fully interchangeable identities. The visitor must
	// visit that minimal image (see OrbitVisitor); it need not visit any
	// other. The factory is invoked once per worker goroutine; the
	// OrbitVisitor it returns is then owned by that worker, so a scratch
	// state captured in its closure is reused without synchronization or
	// per-state allocation.
	//
	// Soundness requires the permutations to be spec automorphisms: Init,
	// every Action, every Invariant verdict and the Constraint must be
	// preserved by them. When they are, invariant verdicts are identical
	// with and without reduction, and a shortest counterexample keeps its
	// length (its states are orbit representatives of the unreduced trace;
	// the specific identifiers appearing in it may be permuted). Distinct,
	// Transitions, Terminal, Depth and the recorded Graph all describe the
	// quotient space — smaller than the full one by construction.
	SymmetryVisitor func() OrbitVisitor[S]
	// Independence, when non-nil, is the spec's partial-order-reduction
	// declaration: which transitions belong to which process and which of
	// them may be deferred (see Independence). It only takes effect when a
	// run asks for it with Options.PartialOrder; like SymmetryVisitor it
	// lives here because independence is a property of the model, not of
	// one checking run. Composes with symmetry reduction — the declaration
	// must then be permutation-equivariant (permuting identities permutes
	// process indices but never changes owners' existence or safety).
	Independence *Independence[S]
}

// Edge is one transition of the recorded state graph, identifying source and
// destination states by their dense ids and the action taken.
type Edge struct {
	From   int
	Action string
	To     int
}

// Graph is the reachable-state graph recorded during checking. States are
// numbered densely in BFS discovery order.
//
// A graph is a view of the run's retained states: the accessors Len,
// NumEdges, StateAt, KeyAt and ForEachEdge read the same link table and
// edge segments whatever the options. Edges are fixed-width records in
// append-only segments that spill to a temp file under
// Options.MemoryBudgetBytes, so a graph larger than memory is still fully
// traversable. States come from memory in a run without a memory budget or
// checkpoints, and otherwise are decoded on demand from their stored
// encodings in the arena, resident or spilled. A graph owns the run's
// spill file, if any, and the caller releases it with Close when done.
//
// Accessors that cannot return an error (StateAt, KeyAt) panic if a
// spilled segment has become unreadable — reconstruction reads are
// required reads, exactly as in counterexample reconstruction, and a
// silent wrong answer is worse. WriteDOT, ForEachEdge and the traversals
// return the read error instead.
type Graph[S State] struct {
	Inits []int

	ret     *retainer[S] // the run's retained states and edges
	cod     *codec[S]    // a codec with the bound decoder (arena mode)
	workers int          // the run's resolved Options.Workers: WriteDOT's formatters
}

// Len returns the number of states in the graph.
func (g *Graph[S]) Len() int { return g.ret.len() }

// NumEdges returns the number of recorded transitions.
func (g *Graph[S]) NumEdges() int { return g.ret.arena.edgeCount }

// StateAt returns state id (panicking on an arena read failure; see the
// type comment).
func (g *Graph[S]) StateAt(id int) S {
	s, err := g.ret.stateAt(g.cod, id)
	if err != nil {
		panic(err)
	}
	return s
}

// KeyAt returns the canonical key of state id.
func (g *Graph[S]) KeyAt(id int) string { return g.StateAt(id).Key() }

// ForEachEdge streams every recorded edge to fn in recorded order,
// stopping at the first error. Edges are read back segment by segment, so
// the full edge list is never materialized.
func (g *Graph[S]) ForEachEdge(fn func(Edge) error) error {
	return g.ret.arena.forEachEdge(func(from int, act uint16, to int) error {
		return fn(Edge{From: from, Action: g.ret.acts[act], To: to})
	})
}

// Close releases the spill file the graph owns, if any; a second Close is
// a no-op. After Close, accessors may fail on spilled data — close only
// when done with the graph.
func (g *Graph[S]) Close() error {
	if !g.ret.graphOwned {
		return nil
	}
	g.ret.graphOwned = false
	return g.ret.arena.close()
}

// Options configures a model-checking run.
type Options struct {
	// RecordGraph records every edge so the Result carries a Graph over
	// the run's retained states. Required for DOT export, liveness checking
	// and MBTCG. Edges are fixed-width records in append-only segments,
	// which spill to disk under MemoryBudgetBytes; states are the retained
	// live values, or under a budget or checkpoints decoded from the arena
	// on demand — see Graph. A run that completes, or finds a violation,
	// returns its graph (a violation's ends at the violating state, for
	// dumping beside the counterexample); a run that fails otherwise —
	// ErrStateLimit, an interruption, a spec panic, an I/O error — returns
	// none and releases its spill file.
	RecordGraph bool
	// MaxStates aborts exploration after this many distinct states
	// (0 = unlimited). The checker returns ErrStateLimit.
	MaxStates int
	// Workers is the number of goroutines expanding the frontier, TLC's
	// -workers; 0 means GOMAXPROCS. It is a speed setting only: the engine
	// is level-synchronized, and every worker count produces the same
	// result — same counters, same graph, same shortest counterexample —
	// with the same deduplication (see CollisionFree). Invariants and
	// Constraint are called from worker goroutines and must not mutate
	// shared state.
	Workers int
	// Deprecated: Check ignores Schedule; every run is level-synchronized.
	Schedule Schedule
	// Deprecated: Check ignores StateArena. Arena retention follows from
	// MemoryBudgetBytes and checkpointing; see MemoryBudgetBytes.
	StateArena bool
	// PartialOrder enables ample-set partial-order reduction (-por on the
	// CLIs) for specs that declare Independence: per expanded state the
	// engine explores only one eligible process's transitions when the
	// soundness conditions hold, deferring the rest (see por.go for the
	// conditions and exactly what is preserved). Check rejects it on a
	// spec whose Independence is missing or lacks Procs or Owner.
	// Composes with SymmetryVisitor, every worker count, MemoryBudgetBytes
	// and checkpointing. Liveness checking needs the full edge set: run
	// CheckEventuallyWithin on graphs recorded without POR.
	PartialOrder bool
	// CollisionFree makes the visited set keyed: besides each state's
	// 64-bit fingerprint it keeps the canonical encoding and compares it
	// on every fingerprint hit, so colliding states get separate slots —
	// memory and a byte comparison per hit traded for immunity to
	// fingerprint collisions (TLC's collision-probability story: at N
	// reachable states the chance any two collide is about N²/2⁶⁵ —
	// around 3·10⁻⁸ for a million states — and a collision can silently
	// prune a subtree, masking a violation). It alone decides the
	// deduplication, at every worker count; without it every run trusts
	// fingerprints. It composes with every other option: retention is
	// decided by MemoryBudgetBytes and checkpointing, as in any run, past a
	// budget its records spill like fingerprints (a spilled key is read
	// back from the arena to be compared), and a resume rebuilds its keys
	// from the checkpointed encodings. Set it for runs whose verdict must
	// be exact rather than exact-with-probability-1.
	CollisionFree bool
	// MemoryBudgetBytes bounds the visited set's resident memory
	// (approximately — the engine charges a fixed estimate per resident
	// entry, plus the keys of a CollisionFree set). When set, the visited
	// set spills to disk: past the budget, its resident (fingerprint, id)
	// records are merged into one sorted run on disk, consulted by one
	// merge-join per BFS level, TLC's external-memory fingerprint set.
	//
	// A budget also selects arena retention: discovered states are kept as
	// their plain encodings in an append-only arena — parent links and ~24
	// bytes of metadata per state plus the encoding bytes — instead of live
	// values, which are kept only for the states still awaiting expansion.
	// The arena's sealed segments and a recorded graph's edges spill to a
	// temp file past the same budget, so the visited set and trace storage
	// both respect it. Every stored state is decoded back — counterexamples,
	// the resumed frontier, and with RecordGraph the graph itself — so the
	// spec state must implement BinaryDecoder (Check rejects the run
	// otherwise). The plain encoding identifies the exact state explored,
	// so a counterexample is byte-identical to a live run's, also under
	// symmetry reduction. 0 keeps everything resident as live values.
	MemoryBudgetBytes int64
	// Context, when non-nil, cancels the run cooperatively: the engine asks
	// it at each level boundary, after any Progress delivery, and a cancel
	// seen there stops the run at that level; mid-expansion it stops between
	// frontier states. The run returns the partial Result (Interrupted set)
	// under an error wrapping ErrInterrupted, plus a checkpoint when
	// CheckpointDir is set. A deadline bounds the run in wall-clock time;
	// the CLIs wire SIGINT/SIGTERM and -deadline here.
	Context context.Context
	// FS routes the engine's durable I/O — the spill run, arena segments,
	// checkpoints — through an injectable filesystem seam. nil selects
	// the real filesystem (OSFS); tests plug in a FaultFS to exercise the
	// retry and degradation paths (see fs.go for the fault taxonomy:
	// transient errors are retried with capped backoff, persistent
	// failures of optional spill writes degrade to resident retention
	// under Result.DegradedMemory, persistent failures of required reads
	// fail the run explicitly).
	FS FS
	// CheckpointDir, when non-empty, makes the run durable: on
	// interruption (Context) — and every CheckpointEvery levels
	// — the engine seals the arena's segments into this directory with a
	// manifest, and a later run with ResumeFrom continues where it
	// stopped, with verdict and counts identical to an uninterrupted run.
	// Retains states in the arena, as a memory budget does: the stored
	// encodings are what the resumed frontier is decoded from and the
	// visited set, keyed or not, is rebuilt from.
	CheckpointDir string
	// CheckpointEvery checkpoints every N completed BFS levels in
	// addition to checkpoint-on-interrupt (0 = only on interrupt).
	// Requires CheckpointDir.
	CheckpointEvery int
	// ResumeFrom continues a checkpointed run from the given directory.
	// The spec (name, action and invariant names) and the result-shaping
	// options (MaxStates, PartialOrder) must match the
	// checkpointing run; mismatches are rejected with ErrBadCheckpoint.
	// The checkpoint directory itself is never modified, so one
	// checkpoint can be resumed any number of times. Retains states in the
	// arena, as CheckpointDir does; the visited set is rebuilt from it.
	ResumeFrom string
	// CheckpointMeta is an opaque caller blob stored verbatim in the
	// checkpoint manifest and surfaced by ReadCheckpointInfo — the hook
	// the CLIs use to persist the flag configuration a resumed process
	// needs to rebuild the identical spec.
	CheckpointMeta map[string]string
	// Progress, when non-nil together with ProgressEvery, receives periodic
	// snapshots of the exploration so far — the hook a long-lived server
	// (cmd/checkd) streams to clients. It is called at a level boundary once
	// ProgressEvery has passed since the last call, and when the run ends
	// unless that boundary was the last call, each time with the last
	// completed level boundary (every boundary is also a "level" event of
	// the journal). It runs on the
	// engine's driver goroutine between levels, never concurrently with
	// itself, so a slow callback delays the run; a level longer than
	// ProgressEvery delivers nothing until it ends.
	Progress func(Progress)
	// ProgressEvery is the minimum interval between Progress deliveries.
	// Zero disables progress (Progress is then never called).
	ProgressEvery time.Duration
	// Metrics, when non-nil, is the run's metrics registry: the engine
	// resolves counters, gauges and histograms from it at run start (see
	// the README's Observability section for the name catalogue) and
	// updates them as exploration proceeds. The registry may be scraped
	// concurrently — checkd serves per-job registries on GET /metrics. nil
	// disables metric collection at the cost of one nil-check branch per
	// instrumentation point.
	Metrics *obs.Registry
	// JournalWriter, when non-nil, receives the run journal: JSONL, one
	// structured event per BFS level, plus checkpoint, I/O-degradation and
	// terminal-verdict events, each with a schema version, sequence number
	// and monotone timestamp — enough to reconstruct the run's shape after
	// the fact. Journal write failures never fail the run. The writer must
	// be safe for the single journal goroutine holding its lock; an
	// *os.File is fine.
	JournalWriter io.Writer
}

// Schedule named the exploration loop of earlier releases.
//
// Deprecated: Check ignores it; every run is level-synchronized.
type Schedule int

// The two loops of earlier releases.
//
// Deprecated: Check ignores Options.Schedule.
const (
	ScheduleLevelSync Schedule = iota
	ScheduleWorkSteal
)

// Progress is one Options.Progress snapshot: the counters of an in-flight
// run at its last level boundary.
type Progress struct {
	Distinct    int   // distinct states found so far
	Transitions int   // transitions examined so far
	Depth       int   // maximum BFS depth reached so far
	Level       int   // fully merged BFS levels
	Frontier    int   // states awaiting expansion: the width of level Level
	SpillBytes  int64 // bytes of the visited run + arena segments on disk (spill pressure)
	// ResidentBytes estimates the memory charged against
	// Options.MemoryBudgetBytes: resident visited fingerprints (tracked
	// only under a budget) plus resident arena segments — the encodings of
	// a budgeted or checkpointing run and a recorded graph's edges, tracked
	// in every run. Budget
	// minus this is the run's headroom before the next spill.
	ResidentBytes int64
}

// arena reports whether the run retains states in the encoding arena: a
// run under a memory budget or with checkpoints does.
func (o Options) arena() bool {
	return o.MemoryBudgetBytes > 0 || o.CheckpointDir != "" || o.ResumeFrom != ""
}

// ErrInvalidOptions is the named error every Options (and TraceOptions)
// validation failure wraps: errors.Is(err, ErrInvalidOptions) reports that
// a checking run was rejected before exploring anything, with the detail in
// the error text.
var ErrInvalidOptions = errors.New("tla: invalid options")

// Validate rejects option combinations the engine would otherwise have to
// silently reinterpret. Check calls it first and then rejects the
// combinations that depend on the spec; callers constructing options from
// external input (CLI flags) can call it early for a better error.
func (o Options) Validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("%w: negative Workers %d (0 means GOMAXPROCS)", ErrInvalidOptions, o.Workers)
	case o.MaxStates < 0:
		return fmt.Errorf("%w: negative MaxStates %d (0 means unlimited)", ErrInvalidOptions, o.MaxStates)
	case o.MemoryBudgetBytes < 0:
		return fmt.Errorf("%w: negative MemoryBudgetBytes %d (0 means fully resident)", ErrInvalidOptions, o.MemoryBudgetBytes)
	case o.CheckpointEvery < 0:
		return fmt.Errorf("%w: negative CheckpointEvery %d (0 means checkpoint only on interrupt)", ErrInvalidOptions, o.CheckpointEvery)
	case o.CheckpointEvery > 0 && o.CheckpointDir == "":
		return fmt.Errorf("%w: CheckpointEvery needs a CheckpointDir to write to", ErrInvalidOptions)
	case o.ProgressEvery < 0:
		return fmt.Errorf("%w: negative ProgressEvery %s (0 means no Progress delivery)", ErrInvalidOptions, o.ProgressEvery)
	}
	return nil
}

// ErrStateLimit is returned when exploration hits Options.MaxStates.
var ErrStateLimit = errors.New("tla: state limit exceeded")

// ErrInvariantViolated is the named error all invariant failures wrap:
// errors.Is(err, ErrInvariantViolated) reports whether a Check error is a
// violation (as opposed to ErrStateLimit or a malformed spec), and
// errors.As(err, &v) with v of type *Violation[S] recovers the violating
// state and counterexample trace.
var ErrInvariantViolated = errors.New("tla: invariant violated")

var errNoInit = errors.New("tla: spec has no Init")

// Violation describes an invariant failure, with the shortest
// counterexample: the sequence of states (and the actions between them)
// from an initial state to the violating state.
type Violation[S State] struct {
	Invariant string
	Err       error
	Trace     []S
	TraceActs []string // TraceActs[i] led from Trace[i] to Trace[i+1]; len = len(Trace)-1
}

func (v *Violation[S]) Error() string {
	return fmt.Sprintf("invariant %s violated after %d steps: %v", v.Invariant, len(v.Trace)-1, v.Err)
}

// Unwrap makes every violation match errors.Is(err, ErrInvariantViolated)
// and lets errors.Is/As reach the invariant's own error.
func (v *Violation[S]) Unwrap() []error { return []error{ErrInvariantViolated, v.Err} }

// Result reports a completed (or aborted) model-checking run.
type Result[S State] struct {
	Spec           string
	Distinct       int // distinct states found
	Transitions    int // state transitions examined (including duplicates)
	Depth          int // maximum BFS depth reached: exact, the same at every worker count
	Terminal       int // states with no enabled action (deadlocks, or completed behaviours)
	Violation      *Violation[S]
	Graph          *Graph[S] // under Options.RecordGraph, unless the run failed without a violation
	ConstraintCuts int       // states whose successors were skipped by the constraint
	// Interrupted reports that the run stopped early because
	// Options.Context was canceled or its deadline passed; the
	// counters above describe the partial exploration. The companion
	// error wraps ErrInterrupted. A counterexample is never reported by
	// an interrupted run — absence of a Violation means "none found so
	// far", not "none exists".
	Interrupted bool
	// DegradedMemory reports that a persistent I/O failure (ENOSPC on a
	// spill or segment write) forced the run to fall back to resident
	// retention: the verdict and counters are exact, but
	// MemoryBudgetBytes was no longer honoured from the failure on.
	DegradedMemory bool
	// CheckpointPath is the directory of the last checkpoint the run
	// wrote (empty when none was written); `minitlc -resume` or
	// Options.ResumeFrom continues from it.
	CheckpointPath string
	// AmpleStates counts expanded states at which an ample subset was
	// kept (some successors deferred); DeferredTransitions counts the
	// transitions those prunes skipped. Together with Distinct they are
	// the run's reduction evidence: Distinct here ≤ Distinct of the
	// unpruned run.
	AmpleStates         int
	DeferredTransitions int
}

// Check explores the reachable states of spec breadth-first and returns a
// Result. If an invariant fails, Result.Violation holds the shortest
// counterexample and Check returns it as the error as well; exploration
// stops at the first violation, as TLC does by default.
//
// One engine serves every configuration: Options selects the worker count
// (0 resolves to GOMAXPROCS), a speed setting only, and CollisionFree
// alone selects the deduplication — a keyed visited set, where a
// fingerprint hit counts only if the encodings are equal, or fingerprints
// alone, as TLC does. Results are identical at every worker count and
// with or without a memory budget, modulo fingerprint collisions (see
// CollisionFree).
//
// Every run does what its options say or is rejected before exploring
// anything: Validate rejects the combinations that are invalid for any
// spec, and Check then rejects those the spec cannot serve — PartialOrder
// without a complete Independence declaration, and arena retention (a
// memory budget, CheckpointDir, ResumeFrom) on a state that does not
// implement BinaryDecoder.
func Check[S State](spec *Spec[S], opts Options) (*Result[S], error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if spec.Init == nil {
		return nil, errNoInit
	}
	if ind := spec.Independence; opts.PartialOrder && (ind == nil || ind.Procs == nil || ind.Owner == nil) {
		return nil, fmt.Errorf("%w: PartialOrder needs spec %s to declare Independence with Procs and Owner", ErrInvalidOptions, spec.Name)
	}
	if _, dec := any(*new(S)).(BinaryDecoder[S]); opts.arena() && !dec {
		return nil, fmt.Errorf("%w: MemoryBudgetBytes, CheckpointDir and ResumeFrom retain states as encodings and decode them back, so the state of spec %s must implement BinaryDecoder", ErrInvalidOptions, spec.Name)
	}
	workers := resolveWorkers(opts.Workers)
	em := newEngineMetrics(opts, workers)
	em.journalStart(spec.Name, workers, opts.PartialOrder)
	vs := newVisitedSet(opts, em)
	defer vs.Close()
	res, err := runEngine(spec, opts, workers, vs, em)
	if res != nil {
		em.journalEnd(coreOf(res), err)
	}
	return res, err
}

// TerminalStates returns the ids of states with no outgoing edges in g, or
// the error of an unreadable spilled edge segment. For specs whose
// constraint halts behaviours (e.g. "every client performed its one
// operation and merged"), these are the completed behaviours — MBTCG
// derives one test case per terminal state.
func (g *Graph[S]) TerminalStates() ([]int, error) {
	hasOut := make([]bool, g.Len())
	if err := g.ForEachEdge(func(e Edge) error {
		hasOut[e.From] = true
		return nil
	}); err != nil {
		return nil, err
	}
	var out []int
	for id := range hasOut {
		if !hasOut[id] {
			out = append(out, id)
		}
	}
	return out, nil
}

// CheckEventuallyWithin verifies the temporal property "from every
// reachable state, a state satisfying p is reachable" — the finite-state
// analogue of the paper's liveness property that the commit point is
// eventually propagated (under fairness, a behaviour cannot get stuck
// forever in states from which no p-state is reachable). It returns the id
// of a witness state that cannot reach any p-state, or -1 if the property
// holds; or the error of an unreadable spilled state or edge.
//
// A non-nil within restricts the witnesses to states satisfying it —
// normally the spec's state constraint. States on the constraint boundary
// are recorded but never expanded, so they trivially cannot reach anything;
// TLC likewise evaluates liveness only inside the constraint.
func CheckEventuallyWithin[S State](g *Graph[S], p func(S) bool, within func(S) bool) (int, error) {
	n := g.Len()
	canReach, inside := make([]bool, n), make([]bool, n)
	radj := make([][]int, n)
	if err := g.ForEachEdge(func(e Edge) error {
		radj[e.To] = append(radj[e.To], e.From)
		return nil
	}); err != nil {
		return -1, err
	}
	var queue []int
	for id := 0; id < n; id++ {
		s, err := g.ret.stateAt(g.cod, id)
		if err != nil {
			return -1, err
		}
		inside[id] = within == nil || within(s)
		if p(s) {
			canReach[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, pred := range radj[cur] {
			if !canReach[pred] {
				canReach[pred] = true
				queue = append(queue, pred)
			}
		}
	}
	for id := 0; id < n; id++ {
		if !canReach[id] && inside[id] {
			return id, nil
		}
	}
	return -1, nil
}

// ActionNames returns the sorted set of action names appearing in g's
// edges, or the error of an unreadable spilled edge segment.
func (g *Graph[S]) ActionNames() ([]string, error) {
	set := make(map[string]bool)
	if err := g.ForEachEdge(func(e Edge) error {
		set[e.Action] = true
		return nil
	}); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
