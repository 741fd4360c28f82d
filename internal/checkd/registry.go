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
	"fmt"
	"sync"

	"repro/internal/specs"
	"repro/internal/tla"
)

// SpecParams is the model configuration half of a job request: the spec
// catalogue's params, one flat struct for every spec.
type SpecParams = specs.Params

// Outcome is the type-erased result of one checking run: what the service
// stores, caches and serves (the catalogue's Summary, whose serialized
// fields are the job result's outcome). A violation is a successful run
// from the service's point of view — the checker did its job — so
// violations complete the job rather than failing it. Interrupted and
// CheckpointPath feed the supervisor's retry/drain bookkeeping; they are
// never set on a cached or completed outcome.
type Outcome = specs.Summary

// RunFunc runs one checking attempt under the supervisor's options and
// returns the type-erased outcome. The error is the engine's verbatim —
// the supervisor classifies it into a policy (fail, retry, resume, done).
// A non-nil Outcome may accompany a non-nil error (an interrupted run
// carries its partial counters and checkpoint path).
type RunFunc func(opts tla.Options) (*Outcome, error)

// Builder binds a registered spec's params into a runnable job.
type Builder func(p SpecParams) RunFunc

var (
	regMu    sync.RWMutex
	registry = map[string]Builder{}
)

// Register adds a named probe spec next to the catalogue's: tests register
// panicking or crashing specs to exercise supervision policies. A probe
// takes its params verbatim, negative values refused. Re-registering a
// name panics — a silently replaced spec would poison the verdict cache.
func Register(name string, b Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("checkd: spec %q registered twice", name))
	}
	registry[name] = b
}

// ErrUnknownSpec is wrapped by Submit when the request names a spec
// neither the catalogue nor the registry holds; the server maps it to 400.
var ErrUnknownSpec = specs.ErrUnknownSpec

// lookupSpec resolves a request's spec into its runner and canonical
// params: defaults applied, irrelevant fields zeroed, bad values refused.
// Canonical params are what the verdict cache fingerprints, so `{}` and
// `{"nodes":3}` submitted to raftmongo-v2 are the same job.
func lookupSpec(name string, p SpecParams) (RunFunc, SpecParams, error) {
	e, err := specs.Lookup(name)
	if err == nil {
		if p, err = e.Resolve(p); err != nil {
			return nil, p, err
		}
		return func(opts tla.Options) (*Outcome, error) { return e.Run(p, opts, specs.Checks{}) }, p, nil
	}
	regMu.RLock()
	b, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, p, err
	}
	if p.Nodes < 0 || p.MaxTerm < 0 || p.MaxLog < 0 || p.Actors < 0 {
		return nil, p, fmt.Errorf("%w: negative spec config", tla.ErrInvalidOptions)
	}
	return b(p), p, nil
}
