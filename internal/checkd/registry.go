// Package checkd is the checking service behind cmd/checkd: a supervisor
// that runs model-checking jobs with per-job memory budgets, deadlines and
// checkpoint directories, a bounded admission queue, a verdict cache, and
// an HTTP/JSON API. It is the operational layer over the robustness
// primitives in internal/tla — every failure mode the engine classifies
// (spec panics, transient and persistent I/O faults, cancellation, process
// death) becomes an explicit supervision policy here instead of an error
// the caller has to interpret.
package checkd

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/arrayot"
	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// SpecParams is the model configuration half of a job request: which knobs
// of the named spec to turn. One flat struct serves every registered spec —
// each spec's normalizer zeroes the fields it does not read, so two
// requests that differ only in irrelevant fields share a verdict-cache
// entry.
type SpecParams struct {
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
	// — the configuration whose job verdict is a violation.
	OmitCompatibilityCheck bool `json:"omit_compatibility_check,omitempty"`
}

// Outcome is the type-erased result of one checking run: what the service
// stores, caches and serves. The engine's generic Result[S] cannot cross
// the registry boundary (each spec has its own state type), so the
// supervisor deals in Outcomes built by RunSpec.
type Outcome struct {
	// Verdict is "ok", "violation" or "state-limit". A violation is a
	// successful run from the service's point of view — the checker did
	// its job — so violations complete the job rather than failing it.
	Verdict        string         `json:"verdict"`
	Distinct       int            `json:"distinct"`
	Transitions    int            `json:"transitions"`
	Depth          int            `json:"depth"`
	Terminal       int            `json:"terminal"`
	DegradedMemory bool           `json:"degraded_memory,omitempty"`
	Violation      *ViolationInfo `json:"violation,omitempty"`

	// Interrupted and CheckpointPath describe a run that did not finish:
	// the supervisor consumes them for retry/drain bookkeeping; they are
	// never set on a cached or completed outcome.
	Interrupted    bool   `json:"-"`
	CheckpointPath string `json:"-"`
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

// RunFunc runs one checking attempt under the supervisor's options and
// returns the type-erased outcome. The error is the engine's verbatim —
// the supervisor classifies it into a policy (fail, retry, resume, done).
// A non-nil Outcome may accompany a non-nil error (an interrupted run
// carries its partial counters and checkpoint path).
type RunFunc func(opts tla.Options) (*Outcome, error)

// Builder binds normalized SpecParams into a runnable job. Registered per
// spec name; the registry is how jobs name raftmongo/locking/arrayot
// without the service importing their state types into its API.
type Builder func(p SpecParams) RunFunc

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a named spec to the registry. The built-in specs register
// themselves at init; tests register probes (panicking or crashing specs)
// to exercise supervision policies. Re-registering a name panics — a
// silently replaced spec would poison the verdict cache.
func Register(name string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("checkd: spec %q registered twice", name))
	}
	registry[name] = b
}

// ErrUnknownSpec is wrapped by Submit when the request names a spec the
// registry does not hold; the server maps it to 400.
var ErrUnknownSpec = errors.New("checkd: unknown spec")

// lookupSpec resolves a registered builder.
func lookupSpec(name string) (Builder, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownSpec, name, SpecNames())
	}
	return b, nil
}

// SpecNames lists the registered spec names, sorted.
func SpecNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// normalizeParams canonicalizes a request's params for one spec: defaults
// applied, irrelevant fields zeroed. Canonical params are what the verdict
// cache fingerprints, so `{}` and `{"nodes":3}` submitted to raftmongo-v2
// are the same job.
func normalizeParams(spec string, p SpecParams) (SpecParams, error) {
	out := SpecParams{}
	switch spec {
	case "raftmongo-v1", "raftmongo-v2":
		out.Nodes, out.MaxTerm, out.MaxLog = p.Nodes, p.MaxTerm, p.MaxLog
		if out.Nodes == 0 {
			out.Nodes = raftmongo.DefaultConfig.Nodes
		}
		if out.MaxTerm == 0 {
			out.MaxTerm = raftmongo.DefaultConfig.MaxTerm
		}
		if out.MaxLog == 0 {
			out.MaxLog = raftmongo.DefaultConfig.MaxLogLen
		}
		out.Symmetry = p.Symmetry
		if out.Nodes > 5 {
			return out, fmt.Errorf("%w: nodes > 5 would not terminate in a service context", tla.ErrInvalidOptions)
		}
	case "locking":
		out.Actors = p.Actors
		if out.Actors == 0 {
			out.Actors = 2
		}
		out.Symmetry = p.Symmetry
		out.OmitCompatibilityCheck = p.OmitCompatibilityCheck
		if out.Actors > locking.MaxActors {
			return out, fmt.Errorf("%w: actors > %d (locking.MaxActors)", tla.ErrInvalidOptions, locking.MaxActors)
		}
	case "arrayot":
		// The paper's fixed configuration; no knobs exposed.
		if p.Symmetry {
			return out, fmt.Errorf("%w: array_ot declares no symmetry (clients act in ID order)", tla.ErrInvalidOptions)
		}
	default:
		// Specs registered by tests take their params verbatim.
		out = p
	}
	if out.Nodes < 0 || out.MaxTerm < 0 || out.MaxLog < 0 || out.Actors < 0 {
		return out, fmt.Errorf("%w: negative spec config", tla.ErrInvalidOptions)
	}
	return out, nil
}

// RunSpec adapts one generic engine run into the type-erased Outcome the
// supervisor consumes. Violations and state limits become verdicts (the
// run answered the question it was asked); every other error — interrupts,
// I/O failures, bad checkpoints, spec panics — passes through for the
// supervisor to classify, alongside the partial outcome when the engine
// produced one.
func RunSpec[S tla.State](spec *tla.Spec[S], opts tla.Options) (*Outcome, error) {
	res, err := tla.Check(spec, opts)
	if res == nil {
		return nil, err
	}
	out := &Outcome{
		Distinct:       res.Distinct,
		Transitions:    res.Transitions,
		Depth:          res.Depth,
		Terminal:       res.Terminal,
		DegradedMemory: res.DegradedMemory,
		Interrupted:    res.Interrupted,
		CheckpointPath: res.CheckpointPath,
	}
	switch {
	case err == nil:
		out.Verdict = "ok"
	case res.Violation != nil:
		v := res.Violation
		vi := &ViolationInfo{Invariant: v.Invariant, Error: v.Err.Error(), TraceActs: v.TraceActs}
		for _, s := range v.Trace {
			vi.Trace = append(vi.Trace, s.Key())
		}
		out.Verdict = "violation"
		out.Violation = vi
		err = nil
	case errors.Is(err, tla.ErrStateLimit):
		out.Verdict = "state-limit"
		err = nil
	}
	return out, err
}

func init() {
	Register("raftmongo-v1", func(p SpecParams) RunFunc {
		cfg := raftmongo.Config{Nodes: p.Nodes, MaxTerm: p.MaxTerm, MaxLogLen: p.MaxLog, Symmetric: p.Symmetry}
		return func(opts tla.Options) (*Outcome, error) {
			return RunSpec(raftmongo.SpecV1(cfg), opts)
		}
	})
	Register("raftmongo-v2", func(p SpecParams) RunFunc {
		cfg := raftmongo.Config{Nodes: p.Nodes, MaxTerm: p.MaxTerm, MaxLogLen: p.MaxLog, Symmetric: p.Symmetry}
		return func(opts tla.Options) (*Outcome, error) {
			return RunSpec(raftmongo.SpecV2(cfg), opts)
		}
	})
	Register("locking", func(p SpecParams) RunFunc {
		cfg := locking.SpecConfig{Actors: p.Actors, Symmetric: p.Symmetry, OmitCompatibilityCheck: p.OmitCompatibilityCheck}
		return func(opts tla.Options) (*Outcome, error) {
			return RunSpec(locking.Spec(cfg), opts)
		}
	})
	Register("arrayot", func(p SpecParams) RunFunc {
		return func(opts tla.Options) (*Outcome, error) {
			return RunSpec(arrayot.Spec(arrayot.DefaultConfig()), opts)
		}
	})
}
