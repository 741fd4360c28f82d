package tla

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Observation is one step of an observed execution trace. A trace event from
// a running implementation usually constrains only part of the
// specification state (the variables the implementation could snapshot at
// the moment of the transition), so an Observation is a predicate rather
// than a full state. Matches reports whether spec state s is consistent
// with what was observed.
//
// Unless TraceOptions.Workers is 1, Matches is called from multiple
// goroutines concurrently during the frontier advance and must not mutate
// shared state.
type Observation[S State] interface {
	Matches(s S) bool
	String() string
}

// GuidedObservation is an Observation that also says which specification
// actions could have produced it — a trace event usually records the name
// of the transition that fired, and expanding only that action instead of
// every action of the spec is most of the cost of a step saved.
//
// The hint is advice, never evidence: see CheckTraceWith for how a wrong or
// over-narrow hint is caught. An observation type that has nothing to say
// simply does not implement the interface.
type GuidedObservation[S State] interface {
	Observation[S]
	// ActionHints returns the names of the spec actions (Action.Name) that
	// could have produced the observation. nil means any action. Names the
	// spec does not declare are ignored, so one hint can serve several
	// variants of a spec; a hint none of whose names the spec declares
	// means any action.
	ActionHints() []string
}

// FullObservation adapts a complete state into an Observation that matches
// exactly that state.
type FullObservation[S State] struct{ Want S }

// Matches reports whether s has the same canonical key as the observed state.
func (o FullObservation[S]) Matches(s S) bool { return s.Key() == o.Want.Key() }

func (o FullObservation[S]) String() string { return o.Want.Key() }

// TraceResult reports the outcome of checking an observed trace against a
// specification.
type TraceResult struct {
	// Steps is the number of observations successfully matched.
	Steps int
	// OK is true if every observation was matched.
	OK bool
	// FailedStep, when !OK, is the index of the first observation no
	// specification behaviour could produce. -1 when OK.
	FailedStep int
	// FrontierSizes[i] is the number of candidate specification states
	// consistent with the trace prefix ending at observation i. A
	// frontier larger than 1 means the observations were partial and
	// several spec behaviours remain possible (Pressler's refinement
	// technique: the missing variables are existentially quantified).
	FrontierSizes []int
	// Explanations[i] is the sorted set of action names that could have
	// produced observation i+1 from some state in frontier i (diagnostics).
	Explanations [][]string
	// GuidedSteps is the number of observations that carried a usable hint
	// (GuidedObservation) and were first expanded with the hinted actions
	// only. 0 means the run was the plain frontier method throughout.
	GuidedSteps int
	// HintFallbacks counts the guided steps whose hinted actions matched
	// nothing and that were expanded again with every action.
	HintFallbacks int
	// Rechecked reports that the guided run ended in divergence and the
	// trace was therefore checked again with every hint ignored; every
	// other field except GuidedSteps and HintFallbacks (kept from the
	// guided attempt) then describes that unguided run.
	Rechecked bool
	// Interrupted reports that the run stopped early because
	// TraceOptions.Context was canceled: Steps observations were matched
	// before the stop, OK is false, and the companion error wraps
	// ErrInterrupted. FailedStep stays -1 — an interrupted trace did not
	// diverge, it was not finished.
	Interrupted bool
}

// TraceError is returned when a trace is not a behaviour of the spec.
type TraceError struct {
	Step int
	Obs  string
}

func (e *TraceError) Error() string {
	return fmt.Sprintf("tla: trace diverges from specification at step %d (observation %s): no specification behaviour matches", e.Step, e.Obs)
}

// TraceOptions configures a trace-checking run.
type TraceOptions struct {
	// Workers is the number of goroutines advancing the frontier per
	// observation. 0 means GOMAXPROCS, 1 is fully sequential. The result
	// is identical at any worker count.
	Workers int
	// Stuttering also matches an observation against the unchanged states
	// of the current frontier (a "<stutter>" explanation). TLA+ behaviours
	// are closed under stuttering, so a faithful trace checker must accept
	// implementation events that changed no modelled variable.
	Stuttering bool
	// Context, when non-nil, cancels the run cooperatively: the frontier
	// advance checks it between observations and returns the partial
	// TraceResult (Interrupted set) with an error wrapping ErrInterrupted.
	// The CLIs wire SIGINT/SIGTERM here.
	Context context.Context
	// Deadline, when set, bounds the run in wall-clock time, composed with
	// Context exactly as Options.Deadline is.
	Deadline time.Time
	// Progress, when non-nil together with ProgressEvery, receives periodic
	// snapshots of the advance. It is called from the merge goroutine
	// between observations — never concurrently with itself or with the
	// frontier advance — at most once per ProgressEvery. Long traces whose
	// per-observation advance is slow report at observation granularity;
	// there is no mid-observation delivery.
	Progress func(TraceProgress)
	// ProgressEvery is the minimum interval between Progress deliveries.
	// Zero disables periodic progress (Progress is then never called).
	ProgressEvery time.Duration
}

// TraceProgress is one periodic snapshot of a trace-checking run.
type TraceProgress struct {
	// Step is the index of the observation about to be advanced past;
	// Total is len(trace).
	Step, Total int
	// Frontier is the number of candidate states consistent with the
	// trace prefix ending at the last matched observation.
	Frontier int
}

// Validate rejects nonsensical trace-checking options with
// ErrInvalidOptions, mirroring Options.Validate.
func (o TraceOptions) Validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("%w: negative Workers %d (0 means GOMAXPROCS, 1 is sequential)", ErrInvalidOptions, o.Workers)
	case !o.Deadline.IsZero() && !o.Deadline.After(time.Now()):
		return fmt.Errorf("%w: Deadline %s is in the past", ErrInvalidOptions, o.Deadline.Format(time.RFC3339))
	case o.ProgressEvery < 0:
		return fmt.Errorf("%w: negative ProgressEvery %s", ErrInvalidOptions, o.ProgressEvery)
	}
	return nil
}

// stutterAction is the explanation recorded for a stuttering match.
const stutterAction = "<stutter>"

// inlineFrontier is the frontier width below which an observation is
// advanced on the calling goroutine even when Workers > 1: expanding a
// handful of states costs less than handing them to a pool and waiting.
// Guided traces spend most steps here (mean frontier ~1.2).
const inlineFrontier = 4

// CheckTrace decides whether the observed trace is a behaviour of spec,
// using the direct frontier method: the set of specification states
// consistent with the trace prefix is advanced one observation at a time.
// This is the linear-time path the paper wanted built into TLC (TLA+ issue
// 413); the Pressler-style Trace-module path lives in package tlatext.
//
// The first observation must match an initial state. Each later observation
// must be reachable from some state of the current frontier by exactly one
// action. An empty trace is trivially a behaviour.
func CheckTrace[S State](spec *Spec[S], trace []Observation[S]) (*TraceResult, error) {
	return CheckTraceWith(spec, trace, TraceOptions{})
}

// CheckTraceWith is CheckTrace with options: the frontier advance for each
// observation is split across opts.Workers goroutines, and the per-worker
// matches are merged into the deduplicated next frontier.
//
// Observations that implement GuidedObservation restrict their step to the
// actions they name. That can only shrink the frontier, so a pass is still
// a real behaviour of spec; the two ways a wrong hint could produce a
// false alarm are both closed. A hinted step that matches nothing is
// expanded again with every action (TraceResult.HintFallbacks), and a
// guided run that still diverges is discarded and the trace checked again
// from observation 0 with every hint ignored (TraceResult.Rechecked), so a
// reported divergence is always the unguided checker's.
//
// Frontier deduplication takes the BinaryState fast path when the spec
// state implements it, but never applies Spec.SymmetryVisitor: observations name
// concrete identifiers (this node, that actor), so symmetric-but-distinct
// frontier states match different future observations and must stay
// distinct.
func CheckTraceWith[S State](spec *Spec[S], trace []Observation[S], opts TraceOptions) (*TraceResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return &TraceResult{FailedStep: -1, OK: true}, nil
	}
	st := newStopper(opts.Context, opts.Deadline, nil)
	defer st.close()
	tc := newTraceChecker(spec, opts, st)
	res, err := tc.run(trace, true)
	var te *TraceError
	if errors.As(err, &te) && res.GuidedSteps > 0 {
		guided := res
		res, err = tc.run(trace, false)
		res.GuidedSteps, res.HintFallbacks, res.Rechecked = guided.GuidedSteps, guided.HintFallbacks, true
	}
	return res, err
}

// frontierChunk is the matched successors produced by one worker from one
// contiguous slice of the frontier. Its buffers are reused from one
// observation to the next.
type frontierChunk[S State] struct {
	states []S
	keys   []string
	acts   []bool // indexed like traceChecker.names
}

// traceChecker is the state of one CheckTraceWith call: everything the
// per-observation advance would otherwise allocate afresh.
type traceChecker[S State] struct {
	spec *Spec[S]
	opts TraceOptions
	st   *stopper
	// wcods are per-worker codec clones and locals the per-worker dedup
	// sets; index 0 belongs to the calling goroutine (also the single
	// inline worker).
	wcods  []*codec[S]
	locals []map[string]bool
	chunks []frontierChunk[S]
	seen   map[string]bool // merge dedup across chunks
	// names[i] is spec.Actions[i].Name, with stutterAction appended;
	// sorted lists the same indices in name order, the order explanations
	// are reported in.
	names    []string
	sorted   []int
	actIndex map[string]int
	allActs  []int
	hintActs []int // scratch: the resolved hint of the current step
	lastProg time.Time
}

func newTraceChecker[S State](spec *Spec[S], opts TraceOptions, st *stopper) *traceChecker[S] {
	workers := resolveWorkers(opts.Workers)
	n := len(spec.Actions)
	tc := &traceChecker[S]{
		spec: spec, opts: opts, st: st,
		wcods:    make([]*codec[S], workers),
		locals:   make([]map[string]bool, workers),
		seen:     make(map[string]bool),
		names:    make([]string, n+1),
		sorted:   make([]int, n+1),
		actIndex: make(map[string]int, n),
		allActs:  make([]int, n),
	}
	tc.wcods[0] = newCodec(&Spec[S]{}, false) // symmetry-free codec: binary fast path only
	for w := range tc.wcods {
		if w > 0 {
			tc.wcods[w] = tc.wcods[0].clone()
		}
		tc.locals[w] = make(map[string]bool)
	}
	for i, a := range spec.Actions {
		tc.names[i], tc.allActs[i], tc.actIndex[a.Name] = a.Name, i, i
	}
	tc.names[n] = stutterAction
	for i := range tc.sorted {
		tc.sorted[i] = i
	}
	sort.SliceStable(tc.sorted, func(i, j int) bool { return tc.names[tc.sorted[i]] < tc.names[tc.sorted[j]] })
	if opts.Progress != nil && opts.ProgressEvery > 0 {
		tc.lastProg = time.Now()
	}
	return tc
}

// run checks the whole trace once, honouring hints when guided is set.
func (tc *traceChecker[S]) run(trace []Observation[S], guided bool) (*TraceResult, error) {
	res := &TraceResult{FailedStep: -1}
	var frontier, spare []S
	cod := tc.wcods[0]
	clear(tc.seen)
	for _, s := range tc.spec.Init() {
		if trace[0].Matches(s) {
			if enc := cod.canonical(s); !tc.seen[string(enc)] {
				tc.seen[string(enc)] = true
				frontier = append(frontier, s)
			}
		}
	}
	if len(frontier) == 0 {
		res.FailedStep = 0
		return res, &TraceError{Step: 0, Obs: trace[0].String()}
	}
	res.Steps = 1
	res.FrontierSizes = append(make([]int, 0, len(trace)), len(frontier))
	if len(trace) > 1 {
		res.Explanations = make([][]string, 0, len(trace)-1)
	}

	for i := 1; i < len(trace); i++ {
		if tc.st.stopped() {
			res.Interrupted = true
			return res, tc.st.err()
		}
		// Time-based progress, checked between observations on the merge
		// goroutine: one clock read per observation when enabled, zero
		// concurrency with the frontier advance.
		if tc.opts.Progress != nil && tc.opts.ProgressEvery > 0 {
			if now := time.Now(); now.Sub(tc.lastProg) >= tc.opts.ProgressEvery {
				tc.lastProg = now
				tc.opts.Progress(TraceProgress{Step: i, Total: len(trace), Frontier: len(frontier)})
			}
		}
		var hint []int
		if guided {
			hint = tc.resolveHint(trace[i])
		}
		acts := tc.allActs
		if hint != nil {
			acts = hint
			res.GuidedSteps++
		}
		next, explanation := tc.advance(frontier, trace[i], acts, spare[:0])
		if len(next) == 0 && hint != nil {
			// The label lied, or the state the named action starts from was
			// pruned by an earlier hint: try everything before giving up.
			res.HintFallbacks++
			next, explanation = tc.advance(frontier, trace[i], tc.allActs, next)
		}
		if len(next) == 0 {
			res.FailedStep = i
			return res, &TraceError{Step: i, Obs: trace[i].String()}
		}
		res.Explanations = append(res.Explanations, explanation)
		frontier, spare = next, frontier
		res.Steps++
		res.FrontierSizes = append(res.FrontierSizes, len(frontier))
	}
	res.OK = true
	return res, nil
}

// resolveHint returns the indices of the spec actions obs names, or nil
// when the step is to be expanded in full: obs carries no hint, or none of
// the names it gives is an action of this spec. The result aliases scratch
// that the next call overwrites.
func (tc *traceChecker[S]) resolveHint(obs Observation[S]) []int {
	g, ok := obs.(GuidedObservation[S])
	if !ok {
		return nil
	}
	tc.hintActs = tc.hintActs[:0]
	for _, name := range g.ActionHints() {
		if a, ok := tc.actIndex[name]; ok && !slices.Contains(tc.hintActs, a) {
			tc.hintActs = append(tc.hintActs, a)
		}
	}
	if len(tc.hintActs) == 0 || len(tc.hintActs) == len(tc.allActs) {
		return nil
	}
	return tc.hintActs
}

// advance appends to next the deduplicated successors of frontier, by the
// given actions (and, with stuttering, the unchanged frontier states), that
// are consistent with obs, and returns them with the sorted set of action
// names that produced them. Chunks are merged in frontier order so the next
// frontier is the same at any worker count.
func (tc *traceChecker[S]) advance(frontier []S, obs Observation[S], acts []int, next []S) ([]S, []string) {
	workers := len(tc.wcods)
	if len(frontier) < inlineFrontier {
		workers = 1
	}
	plan := planChunks(len(frontier), workers)
	for len(tc.chunks) < plan.nChunks {
		tc.chunks = append(tc.chunks, frontierChunk[S]{acts: make([]bool, len(tc.names))})
	}
	plan.run(func(w, c, lo, hi int) {
		tc.expand(tc.wcods[w], tc.locals[w], &tc.chunks[c], frontier[lo:hi], obs, acts)
	})

	chunks := tc.chunks[:plan.nChunks]
	if len(chunks) == 1 { // already deduplicated by its worker
		next = append(next, chunks[0].states...)
	} else {
		clear(tc.seen)
		for i := range chunks {
			ch := &chunks[i]
			for j, s := range ch.states {
				if k := ch.keys[j]; !tc.seen[k] {
					tc.seen[k] = true
					next = append(next, s)
				}
			}
		}
	}
	if len(next) == 0 {
		return next, nil
	}
	var explanation []string
	for _, a := range tc.sorted {
		hit := false
		for i := range chunks {
			hit = hit || chunks[i].acts[a]
		}
		if n := len(explanation); hit && (n == 0 || explanation[n-1] != tc.names[a]) {
			explanation = append(explanation, tc.names[a])
		}
	}
	return next, explanation
}

// expand fills ch with the matches of one contiguous part of the frontier.
// Dedup is exact: the key is the state's full encoding, not a fingerprint.
func (tc *traceChecker[S]) expand(cod *codec[S], local map[string]bool, ch *frontierChunk[S], part []S, obs Observation[S], acts []int) {
	clear(local)
	clear(ch.acts)
	ch.states, ch.keys = ch.states[:0], ch.keys[:0]
	add := func(s S, act int) {
		ch.acts[act] = true
		enc := cod.canonical(s)
		if !local[string(enc)] { // no alloc on the duplicate path
			k := string(enc)
			local[k] = true
			ch.states = append(ch.states, s)
			ch.keys = append(ch.keys, k)
		}
	}
	for _, s := range part {
		if tc.opts.Stuttering && obs.Matches(s) {
			add(s, len(tc.names)-1)
		}
		for _, a := range acts {
			for _, succ := range tc.spec.Actions[a].Next(s) {
				if obs.Matches(succ) {
					add(succ, a)
				}
			}
		}
	}
}
