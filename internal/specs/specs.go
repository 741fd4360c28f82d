// Package specs is the catalogue of the bundled specifications, the one
// both model-checking front ends (cmd/minitlc and the checking service in
// internal/checkd) read. An entry holds a spec's params — defaults, bounds
// and the one refusal per bad value — and its run: build the spec, check
// it under the caller's tla.Options, make the post-checks the caller asks
// for over the state graph, and return one type-erased Summary.
//
// One rule holds for every param, in both front ends: zero means the
// default, and a negative or over-bound value is refused with an error
// wrapping ErrParams.
package specs

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/arrayot"
	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// Params is the model configuration of one run: which knobs of the named
// spec to turn. One flat struct serves every spec; Resolve zeroes the
// fields a spec does not read, so two requests that differ only in those
// fields are the same run (and share a verdict-cache entry in checkd,
// whose cache key is this struct's JSON).
type Params struct {
	// Nodes/MaxTerm/MaxLog configure the raftmongo specs (0 = the paper's
	// default of 3 each).
	Nodes   int `json:"nodes,omitempty"`
	MaxTerm int `json:"max_term,omitempty"`
	MaxLog  int `json:"max_log,omitempty"`
	// Actors configures the locking spec (0 = 2).
	Actors int `json:"actors,omitempty"`
	// Symmetry enables symmetry reduction on specs that declare it.
	Symmetry bool `json:"symmetry,omitempty"`
	// OmitCompatibilityCheck selects the locking spec's buggy lock manager
	// — the configuration whose verdict is a violation.
	OmitCompatibilityCheck bool `json:"omit_compatibility_check,omitempty"`
}

// Summary is the type-erased result of one run. The engine's generic
// Result[S] cannot leave the catalogue (each spec has its own state
// type), so the front ends deal in Summaries: checkd stores, caches and
// serves the serialized fields, and minitlc prints all of them.
type Summary struct {
	// Verdict is "ok", "violation" or "state-limit": a run that answered
	// the question it was asked. It is empty when the run did not finish.
	Verdict        string         `json:"verdict"`
	Distinct       int            `json:"distinct"`
	Transitions    int            `json:"transitions"`
	Depth          int            `json:"depth"`
	Terminal       int            `json:"terminal"`
	DegradedMemory bool           `json:"degraded_memory,omitempty"`
	Violation      *ViolationInfo `json:"violation,omitempty"`

	// Interrupted and CheckpointPath describe a run that did not finish.
	Interrupted    bool   `json:"-"`
	CheckpointPath string `json:"-"`

	Spec                string        `json:"-"` // the spec's own name (tla.Spec.Name)
	Elapsed             time.Duration `json:"-"` // the time tla.Check took
	AmpleStates         int           `json:"-"` // under Options.PartialOrder
	DeferredTransitions int           `json:"-"`
	// Liveness is the Checks.Liveness verdict: "" when not checked, "ok"
	// or "failed"; Stuck is then the key of a state that cannot reach
	// agreement.
	Liveness string `json:"-"`
	Stuck    string `json:"-"`
	// Cases counts array_ot's terminal states, its generated test cases,
	// when the run recorded the graph.
	Cases int `json:"-"`
	// GraphNodes and GraphEdges size the dump Checks.DOT asked for.
	GraphNodes int `json:"-"`
	GraphEdges int `json:"-"`
}

// ViolationInfo is the structured counterexample of a "violation" verdict:
// the invariant, its error text, and the shortest trace as canonical state
// keys plus the actions between them.
type ViolationInfo struct {
	Invariant string   `json:"invariant"`
	Error     string   `json:"error"`
	Trace     []string `json:"trace"`
	TraceActs []string `json:"trace_acts,omitempty"`
}

// Checks are the post-checks a run makes over its state graph; either one
// makes the run record the graph.
type Checks struct {
	// Liveness checks that the commit point is eventually propagated
	// (the raftmongo specs; the others have no liveness property).
	Liveness bool
	// DOT writes the state graph to this file as GraphViz DOT.
	DOT string
}

// ErrUnknownSpec is wrapped by Lookup's error for a name the catalogue
// does not hold.
var ErrUnknownSpec = errors.New("specs: unknown spec")

// ErrParams is wrapped by every refusal of a spec's params. It wraps
// tla.ErrInvalidOptions: the request is refused before anything runs.
var ErrParams = fmt.Errorf("%w: spec params", tla.ErrInvalidOptions)

// Entry is one catalogue spec.
type Entry struct {
	Name   string
	params []param
	// noSymmetry says why the spec declares no symmetry; empty when it
	// declares some.
	noSymmetry string
	omitCheck  bool // the spec reads Params.OmitCompatibilityCheck
	// Run checks the spec under params Resolve returned and opts, then
	// makes the post-checks c asks for. Violations and state limits are
	// verdicts, not errors. Any other engine error (an interrupt, an I/O
	// failure, a bad checkpoint, a spec panic) is returned verbatim, with
	// the partial summary when the engine produced one; a post-check's
	// error comes with the finished run's summary.
	Run func(p Params, opts tla.Options, c Checks) (*Summary, error)
}

// param is one integer knob of a spec: its name (Params' JSON key), its
// field, its default and its upper bound.
type param struct {
	key      string
	field    func(*Params) *int
	def, max int
}

var raftParams = []param{
	{"nodes", func(p *Params) *int { return &p.Nodes }, raftmongo.DefaultConfig.Nodes, raftmongo.MaxNodes},
	{"max_term", func(p *Params) *int { return &p.MaxTerm }, raftmongo.DefaultConfig.MaxTerm, raftmongo.MaxValue},
	{"max_log", func(p *Params) *int { return &p.MaxLog }, raftmongo.DefaultConfig.MaxLogLen, raftmongo.MaxValue},
}

// catalogue is sorted by name.
var catalogue = []Entry{
	{
		Name:       "arrayot",
		noSymmetry: "array_ot has no symmetric identities (clients act in ID order)",
		// The paper's fixed configuration; no knobs exposed.
		Run: func(_ Params, opts tla.Options, c Checks) (*Summary, error) {
			return Check(arrayot.Spec(arrayot.DefaultConfig()), opts, c, countCases)
		},
	},
	{
		Name:      "locking",
		params:    []param{{"actors", func(p *Params) *int { return &p.Actors }, 2, locking.MaxActors}},
		omitCheck: true,
		Run: func(p Params, opts tla.Options, c Checks) (*Summary, error) {
			cfg := locking.SpecConfig{Actors: p.Actors, Symmetric: p.Symmetry, OmitCompatibilityCheck: p.OmitCompatibilityCheck}
			return Check(locking.Spec(cfg), opts, c, nil)
		},
	},
	{Name: "raftmongo-v1", params: raftParams, Run: raftRun(raftmongo.SpecV1)},
	{Name: "raftmongo-v2", params: raftParams, Run: raftRun(raftmongo.SpecV2)},
}

// Names lists the catalogue's spec names, sorted.
func Names() []string {
	names := make([]string, len(catalogue))
	for i, e := range catalogue {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the named entry, or an error wrapping ErrUnknownSpec that
// lists the known names.
func Lookup(name string) (*Entry, error) {
	for i := range catalogue {
		if catalogue[i].Name == name {
			return &catalogue[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSpec, name, Names())
}

// Resolve returns the params the entry's spec runs with: each of its knobs
// at p's value, or at the default where p's is zero, and every field the
// spec does not read zeroed. A negative or over-bound knob, or symmetry on
// a spec without it, is refused with an error wrapping ErrParams.
func (e *Entry) Resolve(p Params) (Params, error) {
	var out Params
	for _, k := range e.params {
		v := *k.field(&p)
		if v < 0 || v > k.max {
			return Params{}, fmt.Errorf("%w: %s takes %s in 1..%d (0 = the default, %d), not %d", ErrParams, e.Name, k.key, k.max, k.def, v)
		}
		if v == 0 {
			v = k.def
		}
		*k.field(&out) = v
	}
	if p.Symmetry && e.noSymmetry != "" {
		return Params{}, fmt.Errorf("%w: %s takes no symmetry: %s", ErrParams, e.Name, e.noSymmetry)
	}
	out.Symmetry = p.Symmetry
	out.OmitCompatibilityCheck = e.omitCheck && p.OmitCompatibilityCheck
	return out, nil
}

// raftRun is the run of a raftmongo variant, whose post-check is the
// commit-point-propagation liveness property.
func raftRun(spec func(raftmongo.Config) *tla.Spec[raftmongo.State]) func(Params, tla.Options, Checks) (*Summary, error) {
	return func(p Params, opts tla.Options, c Checks) (*Summary, error) {
		cfg := raftmongo.Config{Nodes: p.Nodes, MaxTerm: p.MaxTerm, MaxLogLen: p.MaxLog, Symmetric: p.Symmetry}
		sp := spec(cfg)
		return Check(sp, opts, c, func(sum *Summary, g *tla.Graph[raftmongo.State]) error {
			if !c.Liveness {
				return nil
			}
			// Agreement must be reachable within the spec's bounds.
			w, err := tla.CheckEventuallyWithin(g, raftmongo.CommitPointsEqual, func(s raftmongo.State) bool {
				return cfg.Nodes == s.NumNodes() && sp.Constraint(s)
			})
			if err != nil {
				return fmt.Errorf("liveness: reading the state graph: %w", err)
			}
			sum.Liveness = "ok"
			if w != -1 {
				sum.Liveness, sum.Stuck = "failed", g.KeyAt(w)
			}
			return nil
		})
	}
}

// countCases is array_ot's post-check: its terminal states are the test
// cases MBTCG generates.
func countCases(sum *Summary, g *tla.Graph[arrayot.State]) error {
	terminals, err := g.TerminalStates()
	if err != nil {
		return fmt.Errorf("reading the state graph: %w", err)
	}
	sum.Cases = len(terminals)
	return nil
}

// Check runs one spec and summarizes it: the body of every catalogue
// entry's Run, and the way tests check a probe spec. post, when non-nil,
// is the spec's own post-check; it runs on the recorded graph, before the
// DOT dump.
func Check[S tla.State](spec *tla.Spec[S], opts tla.Options, c Checks, post func(*Summary, *tla.Graph[S]) error) (*Summary, error) {
	opts.RecordGraph = opts.RecordGraph || c.Liveness || c.DOT != ""
	start := time.Now()
	res, err := tla.Check(spec, opts)
	if res == nil {
		return nil, err
	}
	sum := &Summary{
		Distinct:            res.Distinct,
		Transitions:         res.Transitions,
		Depth:               res.Depth,
		Terminal:            res.Terminal,
		DegradedMemory:      res.DegradedMemory,
		Interrupted:         res.Interrupted,
		CheckpointPath:      res.CheckpointPath,
		Spec:                spec.Name,
		Elapsed:             time.Since(start),
		AmpleStates:         res.AmpleStates,
		DeferredTransitions: res.DeferredTransitions,
	}
	switch {
	case err == nil:
		sum.Verdict = "ok"
	case res.Violation != nil:
		v := res.Violation
		vi := &ViolationInfo{Invariant: v.Invariant, Error: v.Err.Error(), TraceActs: v.TraceActs}
		for _, s := range v.Trace {
			vi.Trace = append(vi.Trace, s.Key())
		}
		sum.Verdict, sum.Violation, err = "violation", vi, nil
	case errors.Is(err, tla.ErrStateLimit):
		sum.Verdict, err = "state-limit", nil
	}
	g := res.Graph
	if err != nil || g == nil {
		return sum, err
	}
	// Closing releases any arena spill file backing the graph.
	defer g.Close()
	if post != nil {
		if err := post(sum, g); err != nil {
			return sum, err
		}
	}
	if c.DOT == "" {
		return sum, nil
	}
	sum.GraphNodes, sum.GraphEdges = g.Len(), g.NumEdges()
	return sum, writeDOT(g, c.DOT, spec.Name)
}

func writeDOT[S tla.State](g *tla.Graph[S], path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteDOT(f, name); err != nil {
		f.Close()
		return err
	}
	// A write the OS deferred can fail at close (ENOSPC, quota): the file
	// is truncated and must not be reported as written.
	return f.Close()
}
