package checkd

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tla"
)

// JobState is the lifecycle of one job. queued → running → one of the
// terminal states (done, failed, canceled); interrupted is the drain
// parking state — the job checkpointed and the next startup re-queues it.
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCanceled    JobState = "canceled"
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether a state is final: nothing will move the job
// again in this process.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobRequest is the POST /jobs body: a registered spec name, its model
// configuration, and the run-shaping options a client may set.
type JobRequest struct {
	Spec    string     `json:"spec"`
	Config  SpecParams `json:"config"`
	Options JobOptions `json:"options"`
}

// JobOptions is the client-settable subset of tla.Options. Workers,
// memory budget and deadline shape how the run executes, not what it
// computes, so they do not contribute to the verdict-cache fingerprint —
// exactly the split the checkpoint manifest's options_fp makes.
type JobOptions struct {
	Workers         int   `json:"workers,omitempty"`
	MaxStates       int   `json:"max_states,omitempty"`
	PartialOrder    bool  `json:"partial_order,omitempty"`
	MemBudgetBytes  int64 `json:"mem_budget_bytes,omitempty"`
	DeadlineSeconds int   `json:"deadline_seconds,omitempty"`
	// NoCache forces a fresh run even when the verdict cache holds this
	// (spec, config, options) fingerprint.
	NoCache bool `json:"no_cache,omitempty"`
}

// shapingOptions is the tla.Options skeleton whose Fingerprint covers the
// result-shaping fields of the request.
func (r JobRequest) shapingOptions() tla.Options {
	return tla.Options{MaxStates: r.Options.MaxStates, PartialOrder: r.Options.PartialOrder}
}

// fingerprint is the verdict-cache key: spec name + canonical config +
// the engine's own options fingerprint, hashed with the checker's FNV.
// Params must be normalized first — normalizeParams is what makes `{}`
// and an explicit default config collide here.
func (r JobRequest) fingerprint() uint64 {
	cfg, err := json.Marshal(r.Config)
	if err != nil {
		// SpecParams is a flat struct of ints and bools; Marshal cannot
		// fail on it. Guard anyway: a zero key would alias every job.
		panic(fmt.Sprintf("checkd: marshaling SpecParams: %v", err))
	}
	return tla.FingerprintBytes([]byte(fmt.Sprintf(
		"spec=%s;config=%s;opts=%016x", r.Spec, cfg, r.shapingOptions().Fingerprint())))
}

// ProgressInfo is the streamed view of a running job, derived from the
// engine's time-based Options.Progress callbacks (Config.ProgressEvery).
type ProgressInfo struct {
	Distinct     int     `json:"distinct"`
	Transitions  int     `json:"transitions"`
	Depth        int     `json:"depth"`
	Level        int     `json:"level"`
	Frontier     int     `json:"frontier"`
	StatesPerSec float64 `json:"states_per_sec"`
	SpillBytes   int64   `json:"spill_bytes"`
	// ResidentBytes is the engine's estimate of memory charged against the
	// job's budget; 0 when no budget-tracking store is active.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
}

// JobStatus is the GET /jobs/{id} body.
type JobStatus struct {
	ID          string        `json:"id"`
	Spec        string        `json:"spec"`
	Fingerprint string        `json:"fingerprint"`
	State       JobState      `json:"state"`
	Cached      bool          `json:"cached,omitempty"`
	Attempts    int           `json:"attempts"`
	SubmittedAt time.Time     `json:"submitted_at"`
	Error       string        `json:"error,omitempty"`
	Progress    *ProgressInfo `json:"progress,omitempty"`
}

// JobResult is the GET /jobs/{id}/result body: the status plus the
// outcome once the job reached a terminal state.
type JobResult struct {
	JobStatus
	Outcome *Outcome `json:"outcome,omitempty"`
}

// job is the supervisor's mutable record of one submission.
type job struct {
	id        string
	req       JobRequest // normalized at admission
	fp        uint64
	submitted time.Time

	mu       sync.Mutex
	state    JobState
	cached   bool
	attempts int
	errMsg   string
	outcome  *Outcome
	cancel   func(error) // non-nil while an attempt runs
	// reg is the job's metrics registry, created lazily on the first
	// attempt and shared across retries so counters accumulate over the
	// job's whole life. Scraped by Supervisor.WriteMetrics while running.
	reg *obs.Registry
	// progress bookkeeping: the latest engine snapshot plus the previous
	// one's (distinct, time) for the states/sec derivative.
	prog         tla.Progress
	progAt       time.Time
	prevDistinct int
	prevAt       time.Time
}

// observeProgress folds one engine snapshot into the job, computing the
// states/sec derivative against the previous snapshot. Called from the
// engine's merge goroutine.
func (j *job) observeProgress(p tla.Progress, now time.Time) {
	j.mu.Lock()
	j.prevDistinct, j.prevAt = j.prog.Distinct, j.progAt
	j.prog, j.progAt = p, now
	j.mu.Unlock()
}

// status snapshots the job for the API. Safe against the running attempt's
// progress callbacks and the supervisor's state transitions.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Spec:        j.req.Spec,
		Fingerprint: fmt.Sprintf("%016x", j.fp),
		State:       j.state,
		Cached:      j.cached,
		Attempts:    j.attempts,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
	}
	if !j.progAt.IsZero() && j.state == JobRunning {
		pi := &ProgressInfo{
			Distinct:      j.prog.Distinct,
			Transitions:   j.prog.Transitions,
			Depth:         j.prog.Depth,
			Level:         j.prog.Level,
			Frontier:      j.prog.Frontier,
			SpillBytes:    j.prog.SpillBytes,
			ResidentBytes: j.prog.ResidentBytes,
		}
		if dt := j.progAt.Sub(j.prevAt).Seconds(); dt > 0 && !j.prevAt.IsZero() {
			pi.StatesPerSec = float64(j.prog.Distinct-j.prevDistinct) / dt
		}
		st.Progress = pi
	}
	return st
}

// registry returns the job's metrics registry (nil until the first
// attempt starts; nil registries are safe everywhere in package obs).
func (j *job) registry() *obs.Registry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reg
}

// result snapshots the job including its outcome.
func (j *job) result() JobResult {
	st := j.status()
	j.mu.Lock()
	out := j.outcome
	j.mu.Unlock()
	return JobResult{JobStatus: st, Outcome: out}
}
