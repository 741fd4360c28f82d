package tla

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
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

// Matches reports whether s is the observed state: whether their
// encodings are equal, which the BinaryState contract makes the same as
// equal keys, without building two strings. Both encodings share one
// buffer; it escapes through the generic AppendBinary calls, so a call
// costs that one allocation.
func (o FullObservation[S]) Matches(s S) bool {
	a := s.AppendBinary(make([]byte, 0, 256))
	return bytes.Equal(a, o.Want.AppendBinary(a[len(a):]))
}

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
	// Context, when non-nil, cancels the run cooperatively: the checker
	// asks it between observations, after any Progress delivery, and a
	// cancel seen there returns the partial TraceResult (Interrupted set,
	// Steps == i after a cancel inside Progress(Step: i)) with an error
	// wrapping ErrInterrupted.
	// The CLIs wire SIGINT/SIGTERM and -deadline here.
	Context context.Context
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
// ErrInvalidOptions, by Options.Validate's rules for the shared fields.
func (o TraceOptions) Validate() error {
	return Options{Workers: o.Workers, ProgressEvery: o.ProgressEvery}.Validate()
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
// Frontier deduplication is exact: matches are told apart by their
// AppendBinary encodings, indexed by hash in the engine's chunk table
// (missTable) and compared byte for byte. It never applies
// Spec.SymmetryVisitor: observations name concrete identifiers (this node,
// that actor), so symmetric-but-distinct frontier states match different
// future observations and must stay distinct. An encoding counts only to
// break a tie: a narrow step, or the initial observation, that matches a
// single state (the usual case of a guided trace) encodes nothing, and a
// pooled step holds back a panic encoding a lone match, so an AppendBinary
// panic surfaces only when an observation matches two states or more.
func CheckTraceWith[S State](spec *Spec[S], trace []Observation[S], opts TraceOptions) (*TraceResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return &TraceResult{FailedStep: -1, OK: true}, nil
	}
	tc := newTraceChecker(spec, opts)
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
// contiguous slice of the frontier, each distinct state once. The first
// match is kept unencoded; a second one encodes both, and from then on
// every match is encoded into keys, back to back, its (hash, end) record
// appended to misses — so misses is empty or describes states entry for
// entry — and indexed in the worker's missTable (engine.go); a pooled step
// encodes a lone match too. Its buffers are reused between observations.
type frontierChunk[S State] struct {
	states []S
	misses []miss // fp (dedupHash) and end only
	keys   []byte
	acts   []bool     // indexed like traceChecker.names
	g      specGuard  // the spec callback the chunk's expansion is inside
	pi     *panicInfo // the panic that ended the chunk's expansion, if any
	held   *panicInfo // a panic encoding the lone match, held back (firstPanic)
}

// reset empties the chunk for the next observation.
func (ch *frontierChunk[S]) reset() {
	ch.states, ch.misses, ch.keys, ch.pi, ch.held = ch.states[:0], ch.misses[:0], ch.keys[:0], nil, nil
	clear(ch.acts)
}

// matches reports whether s is consistent with obs, under the guard.
func (ch *frontierChunk[S]) matches(obs Observation[S], s S) bool {
	ch.g.enter(opMatches, "", -1)
	ok := obs.Matches(s)
	ch.g.exit()
	return ok
}

// add keeps s unless the chunk already holds an equal state. t indexes the
// chunk's encodings.
func (ch *frontierChunk[S]) add(s S, t *missTable) {
	if len(ch.states) == 0 {
		ch.states = append(ch.states, s)
		return
	}
	if len(ch.misses) == 0 { // a tie to break
		ch.encodeFirst(t)
	}
	if lo, fp := ch.appendEncoding(s); ch.keep(lo, fp, t) {
		ch.states = append(ch.states, s)
	}
}

// encodeFirst encodes the chunk's first match, kept unencoded so far, and
// indexes it in t, which it resets.
func (ch *frontierChunk[S]) encodeFirst(t *missTable) {
	t.reset()
	lo, fp := ch.appendEncoding(ch.states[0])
	ch.keep(lo, fp, t)
}

// encodeLone encodes the chunk's lone match, if it has one, for the merge,
// holding back a panic in the encoding.
func (ch *frontierChunk[S]) encodeLone(t *missTable) {
	if len(ch.states) != 1 || len(ch.misses) > 0 {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			ch.held = ch.g.capture(r)
		}
	}()
	ch.encodeFirst(t)
}

// appendEncoding appends s's encoding to keys, under the guard, and
// returns where it starts and its hash.
func (ch *frontierChunk[S]) appendEncoding(s S) (lo int, fp uint64) {
	lo = len(ch.keys)
	ch.g.enter(opEncode, "", -1)
	ch.keys = s.AppendBinary(ch.keys)
	ch.g.exit()
	return lo, dedupHash(ch.keys[lo:])
}

// keep reports whether the encoding at keys[lo:], whose hash is fp, is new
// to t. A new one gets its record and is indexed; a known one is cut off
// again.
func (ch *frontierChunk[S]) keep(lo int, fp uint64, t *missTable) bool {
	enc := ch.keys[lo:]
	if t.find(ch.misses, ch.keys, fp, enc) >= 0 {
		ch.keys = ch.keys[:lo]
		return false
	}
	ch.misses = append(ch.misses, miss{fp: fp, end: int32(len(ch.keys))})
	t.add(ch.misses, len(ch.misses)-1)
	return true
}

// dedupSeed seeds dedupHash.
var dedupSeed = maphash.MakeSeed()

// dedupHash is the trace dedup's hash of an encoding: the runtime's memory
// hash, several times faster on the long encodings of a trace's states
// than the engine's fingerprint function, whose stable values a checkpoint
// keeps and this dedup has no use for — a hash hit is confirmed byte for
// byte.
func dedupHash(enc []byte) uint64 { return maphash.Bytes(dedupSeed, enc) }

// traceChecker is the state of one CheckTraceWith call: everything the
// per-observation advance would otherwise allocate afresh. Frontier dedup
// builds no string: each chunk, and the cross-chunk merge, keeps its
// matches' encodings in one reused byte buffer, indexed by hash in a
// missTable and compared byte for byte, and encodes only to break a tie.
type traceChecker[S State] struct {
	spec *Spec[S]
	opts TraceOptions
	// tables are the per-worker chunk tables; index 0 belongs to the
	// calling goroutine (also the single inline worker). merged (its keys
	// and misses) and seen are the cross-chunk merge's buffers and table.
	tables []missTable
	chunks []frontierChunk[S]
	merged frontierChunk[S]
	seen   missTable
	// names[i] is spec.Actions[i].Name, with stutterAction appended;
	// sorted lists the same indices in name order, the order explanations
	// are reported in.
	names    []string
	sorted   []int
	actIndex map[string]int
	allActs  []int
	hintActs []int    // scratch: the resolved hint of the current step
	slab     []string // the current run's explanations, back to back
	lastProg time.Time
}

func newTraceChecker[S State](spec *Spec[S], opts TraceOptions) *traceChecker[S] {
	n := len(spec.Actions)
	tc := &traceChecker[S]{
		spec: spec, opts: opts,
		tables:   make([]missTable, resolveWorkers(opts.Workers)),
		chunks:   []frontierChunk[S]{{acts: make([]bool, n+1)}},
		names:    make([]string, n+1),
		sorted:   make([]int, n+1),
		actIndex: make(map[string]int, n),
		allActs:  make([]int, n),
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
	frontier, pi := tc.initial(trace[0])
	if pi != nil {
		return res, tracePanic[S](pi, 0)
	}
	var spare []S
	if len(frontier) == 0 {
		res.FailedStep = 0
		return res, &TraceError{Step: 0, Obs: trace[0].String()}
	}
	res.Steps = 1
	res.FrontierSizes = append(make([]int, 0, len(trace)), len(frontier))
	tc.slab = nil
	if len(trace) > 1 {
		res.Explanations = make([][]string, 0, len(trace)-1)
		tc.slab = make([]string, 0, len(trace)-1)
	}

	for i := 1; i < len(trace); i++ {
		// Time-based progress, checked between observations on the merge
		// goroutine: one clock read per observation when enabled, zero
		// concurrency with the frontier advance.
		if tc.opts.Progress != nil && tc.opts.ProgressEvery > 0 {
			if now := time.Now(); now.Sub(tc.lastProg) >= tc.opts.ProgressEvery {
				tc.lastProg = now
				tc.opts.Progress(TraceProgress{Step: i, Total: len(trace), Frontier: len(frontier)})
			}
		}
		// After Progress, so a cancel inside Progress(Step: i) stops here,
		// with Steps == i.
		if canceled(tc.opts.Context) {
			res.Interrupted = true
			return res, interruptError(tc.opts.Context)
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
		next, explanation, pi := tc.advance(frontier, trace[i], acts, spare[:0])
		if pi == nil && len(next) == 0 && hint != nil {
			// The label lied, or the state the named action starts from was
			// pruned by an earlier hint: try everything before giving up.
			res.HintFallbacks++
			next, explanation, pi = tc.advance(frontier, trace[i], tc.allActs, next)
		}
		if pi != nil {
			return res, tracePanic[S](pi, i)
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

// initial returns the deduplicated initial states consistent with obs,
// found like one chunk's matches on the calling goroutine. Like a later
// step's advance, it runs Init, obs.Matches and the encoding under a guard
// and returns a panic in any of them instead of raising it.
func (tc *traceChecker[S]) initial(obs Observation[S]) (frontier []S, pi *panicInfo) {
	ch := &tc.chunks[0]
	ch.reset()
	defer func() {
		if r := recover(); r != nil {
			frontier, pi = nil, ch.g.capture(r)
		}
	}()
	ch.g.enter(opInit, "", -1)
	inits := tc.spec.Init()
	ch.g.exit()
	for _, s := range inits {
		if ch.matches(obs, s) {
			ch.add(s, &tc.tables[0])
		}
	}
	return slices.Clone(ch.states), nil
}

// tracePanic converts a panic captured at observation step into the
// *SpecPanic verdict, which names the step.
func tracePanic[S State](pi *panicInfo, step int) error {
	return &SpecPanic[S]{Op: fmt.Sprintf("%s at observation %d", opString(pi.kind, pi.name), step), Value: pi.value, Stack: pi.stack}
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
// frontier is the same at any worker count; for the same reason a panic in
// a spec callback or in obs.Matches is reported as a sequential expansion
// would meet it (see firstPanic), and ends the step.
func (tc *traceChecker[S]) advance(frontier []S, obs Observation[S], acts []int, next []S) ([]S, []string, *panicInfo) {
	workers := len(tc.tables)
	if len(frontier) < inlineFrontier {
		workers = 1
	}
	plan := planChunks(len(frontier), workers)
	for len(tc.chunks) < plan.nChunks {
		tc.chunks = append(tc.chunks, frontierChunk[S]{acts: make([]bool, len(tc.names))})
	}
	chunks := tc.chunks[:plan.nChunks]
	if len(chunks) == 1 {
		tc.expand(&tc.tables[0], &chunks[0], frontier, obs, acts, false)
	} else {
		plan.run(func(w, c, lo, hi int) {
			tc.expand(&tc.tables[w], &chunks[c], frontier[lo:hi], obs, acts, true)
		})
	}
	if pi := firstPanic(chunks); pi != nil {
		return next, nil, pi
	}
	if next = tc.merge(chunks, next); len(next) == 0 {
		return next, nil, nil
	}
	return next, tc.explain(chunks), nil
}

// firstPanic returns the panic a sequential expansion of chunks would meet
// first, or nil: the expansion panic of the first chunk that has one,
// unless two chunks up to and including that one matched. A sequential
// expansion would then have encoded every match before the panic on
// meeting the second, so the first held panic of those chunks, which
// comes before its own chunk's expansion panic, is met first.
func firstPanic[S State](chunks []frontierChunk[S]) *panicInfo {
	last, matched := len(chunks), 0
	for i := range chunks {
		if len(chunks[i].states) > 0 {
			matched++
		}
		if chunks[i].pi != nil {
			last = i + 1
			break
		}
	}
	for i := range chunks[:last] {
		if matched >= 2 && chunks[i].held != nil {
			return chunks[i].held
		}
		if chunks[i].pi != nil {
			return chunks[i].pi
		}
	}
	return nil
}

// merge appends to next the matches of chunks, in chunk order, each
// distinct state once. A chunk's states are already distinct, so when one
// chunk matched they are taken as they are; otherwise every match has its
// encoding (expand), and the merge keeps a copy of each distinct one.
func (tc *traceChecker[S]) merge(chunks []frontierChunk[S], next []S) []S {
	var only []S
	matched := 0
	for i := range chunks {
		if len(chunks[i].states) > 0 {
			matched, only = matched+1, chunks[i].states
		}
	}
	if matched < 2 {
		return append(next, only...)
	}
	m := &tc.merged
	m.misses, m.keys = m.misses[:0], m.keys[:0]
	tc.seen.reset()
	for i := range chunks {
		ch := &chunks[i]
		for j, s := range ch.states {
			lo := len(m.keys)
			m.keys = append(m.keys, missKey(ch.misses, ch.keys, j)...)
			if m.keep(lo, ch.misses[j].fp, &tc.seen) {
				next = append(next, s)
			}
		}
	}
	return next
}

// explain appends the sorted names of the actions that produced a match in
// chunks to the run's slab and returns them, their capacity clamped so
// that the next step's names cannot overwrite them.
func (tc *traceChecker[S]) explain(chunks []frontierChunk[S]) []string {
	lo := len(tc.slab)
	for _, a := range tc.sorted {
		for i := range chunks {
			if !chunks[i].acts[a] {
				continue
			}
			if n := len(tc.slab); n == lo || tc.slab[n-1] != tc.names[a] {
				tc.slab = push(tc.slab, tc.names[a])
			}
			break
		}
	}
	return tc.slab[lo:len(tc.slab):len(tc.slab)]
}

// expand fills ch with the matches of one contiguous part of the frontier,
// each distinct state once (see frontierChunk). A panic in a spec callback
// or in obs.Matches ends the chunk and is recorded in ch.pi. With lone set
// (the step is cut into several chunks) it then encodes the chunk's lone
// match, in case another chunk matched too (encodeLone).
func (tc *traceChecker[S]) expand(t *missTable, ch *frontierChunk[S], part []S, obs Observation[S], acts []int, lone bool) {
	ch.reset()
	defer func() {
		if r := recover(); r != nil {
			ch.pi = ch.g.capture(r)
		}
		if lone {
			ch.encodeLone(t)
		}
	}()
	stutter := len(tc.names) - 1
	for _, s := range part {
		if tc.opts.Stuttering && ch.matches(obs, s) {
			ch.acts[stutter] = true
			ch.add(s, t)
		}
		for _, a := range acts {
			ch.g.enter(opNext, tc.names[a], -1)
			succs := tc.spec.Actions[a].Next(s)
			ch.g.exit()
			for _, succ := range succs {
				if ch.matches(obs, succ) {
					ch.acts[a] = true
					ch.add(succ, t)
				}
			}
		}
	}
}
