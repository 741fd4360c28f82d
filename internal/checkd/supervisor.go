package checkd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tla"
)

// The supervisor turns the engine's failure taxonomy into service policy.
// PR 5 made each failure mode survivable in-process; here each one has an
// owner and a decision:
//
//	engine failure            policy
//	------------------------  ------------------------------------------
//	invariant violation       job done, verdict "violation" (+trace)
//	MaxStates hit             job done, verdict "state-limit"
//	spec panic (ErrSpecPanic) job failed permanently — rerunning a buggy
//	                          spec callback cannot help
//	invalid options           job failed permanently (also the spec-dependent
//	                          ones, e.g. partial_order on a spec that
//	                          declares no independence)
//	transient I/O fault       retried inside the engine (retryIO); only a
//	                          fault that exhausts those retries surfaces
//	persistent I/O fault,     attempt failed: retry from the last
//	runner crash (panic)      checkpoint with capped exponential backoff
//	                          + jitter, at most MaxAttempts attempts
//	persistent fault on an    engine degrades per DegradedMemory; the
//	optional spill write      outcome reports it (across resumes too), the
//	                          job completes
//	bad checkpoint on resume  checkpoint discarded, job restarted fresh
//	user cancel (DELETE)      job canceled, checkpoint removed
//	drain (SIGTERM)           job checkpointed and parked "interrupted";
//	                          the next startup re-queues and resumes it
//	process death (kill -9)   startup scan re-queues every job without a
//	                          result.json, resuming from MANIFEST.json —
//	                          at most one checkpoint interval is lost
//
// Durability layout, one directory per job under Config.Root:
//
//	<root>/<id>/job.json     the normalized request, written at admission
//	<root>/<id>/ck/          the engine checkpoint directory (MANIFEST.json)
//	<root>/<id>/result.json  the terminal record, written once at completion
//
// job.json and result.json are written tmp+rename, so the startup scan
// never reads a torn record; a job directory without result.json is by
// definition unfinished and re-queued.

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects admission over capacity (429): the queue is
	// bounded so a submission burst degrades to rejections, never OOM.
	ErrQueueFull = errors.New("checkd: job queue full")
	// ErrDraining rejects admission during graceful shutdown (503).
	ErrDraining = errors.New("checkd: draining, not admitting jobs")
	// ErrNoSuchJob is the 404.
	ErrNoSuchJob = errors.New("checkd: no such job")
)

// Cancellation causes, distinguished through context.Cause so the
// classifier can tell a drain from a user cancel.
var (
	errDrainStop  = errors.New("checkd: drain")
	errUserCancel = errors.New("checkd: canceled by request")
)

// Config sizes one Supervisor.
type Config struct {
	// Root is the persistence root: per-job directories with requests,
	// checkpoints and results. Required; created if missing.
	Root string
	// MaxConcurrent is the number of jobs checking at once (default 2) —
	// each job already parallelizes internally via Workers.
	MaxConcurrent int
	// QueueDepth bounds the admission queue (default 16); submissions
	// beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// CheckpointEvery is the periodic checkpoint cadence in BFS levels
	// (default 4): the bound on how much work a kill -9 loses.
	CheckpointEvery int
	// MaxAttempts bounds retries of a job whose attempt failed with a
	// retryable error (default 3, counting the first attempt).
	MaxAttempts int
	// BackoffBase/BackoffCap shape the capped exponential retry backoff:
	// base·2^(attempt-1) plus up to 50% jitter, capped (defaults 100ms/5s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JobDeadline caps every job's wall-clock run time (0 = none); a
	// request's DeadlineSeconds may only tighten it.
	JobDeadline time.Duration
	// MemBudgetPerJob is the default tla.Options.MemoryBudgetBytes for
	// jobs that do not set their own (0 = resident).
	MemBudgetPerJob int64
	// ProgressEvery is the least interval between each running job's
	// progress snapshots (default 1s). The engine delivers them only at
	// level boundaries, so a job whose levels take longer reports once per
	// level, and one whose levels are shorter at most once per interval.
	ProgressEvery time.Duration
	// FS routes the engine's durable I/O; nil = the real filesystem.
	// Tests plug a tla.FaultFS here to exercise the retry policies.
	FS tla.FS
	// Sleep replaces time.Sleep for retry backoff (tests fake the clock);
	// Now replaces time.Now. Nil selects the real clock.
	Sleep func(time.Duration)
	Now   func() time.Time
	// Logf receives one line per supervision decision; nil discards.
	Logf func(format string, args ...any)
}

// Supervisor runs jobs: admission, execution with retry/resume policy,
// verdict caching, persistence and startup recovery.
type Supervisor struct {
	cfg   Config
	cache *verdictCache
	rng   *rand.Rand // jitter; guarded by mu

	// Process-level observability: job lifecycle counters, queue depth and
	// cache traffic, scraped at GET /metrics together with every running
	// job's per-job engine registry (WriteMetrics).
	reg        *obs.Registry
	mSubmitted *obs.Counter
	mCompleted map[JobState]*obs.Counter
	mRunning   *obs.Gauge
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mRetries   *obs.Counter
	mRecovered *obs.Counter

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job ids in admission order
	queue    chan *job
	draining bool
	seq      int

	wg sync.WaitGroup // worker goroutines
}

// newSupervisorMetrics registers the checkd_* families on a fresh registry.
func (s *Supervisor) newSupervisorMetrics() {
	r := obs.NewRegistry()
	r.Help("checkd_jobs_submitted_total", "jobs admitted (including cache hits)")
	s.mSubmitted = r.Counter("checkd_jobs_submitted_total")
	r.Help("checkd_jobs_completed_total", "jobs reaching a terminal state, by state")
	s.mCompleted = map[JobState]*obs.Counter{
		JobDone:     r.Counter(`checkd_jobs_completed_total{state="done"}`),
		JobFailed:   r.Counter(`checkd_jobs_completed_total{state="failed"}`),
		JobCanceled: r.Counter(`checkd_jobs_completed_total{state="canceled"}`),
	}
	r.Help("checkd_jobs_running", "jobs currently checking")
	s.mRunning = r.Gauge("checkd_jobs_running")
	r.Help("checkd_cache_hits_total", "submissions answered from the verdict cache")
	s.mCacheHit = r.Counter("checkd_cache_hits_total")
	r.Help("checkd_cache_misses_total", "submissions that required a run")
	s.mCacheMiss = r.Counter("checkd_cache_misses_total")
	r.Help("checkd_job_retries_total", "job attempts retried after a retryable failure")
	s.mRetries = r.Counter("checkd_job_retries_total")
	r.Help("checkd_jobs_recovered_total", "unfinished jobs re-queued by the startup scan")
	s.mRecovered = r.Counter("checkd_jobs_recovered_total")
	r.Help("checkd_queue_depth", "jobs waiting in the admission queue")
	r.GaugeFunc("checkd_queue_depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.queue == nil {
			return 0
		}
		return float64(len(s.queue))
	})
	r.Help("checkd_cached_verdicts", "verdicts held by the in-memory cache")
	r.GaugeFunc("checkd_cached_verdicts", func() float64 { return float64(s.cache.len()) })
	s.reg = r
}

// Metrics returns the supervisor's process-level registry.
func (s *Supervisor) Metrics() *obs.Registry { return s.reg }

// WriteMetrics renders the process registry plus every running job's
// engine registry (scoped with job="<id>") as one valid Prometheus text
// exposition.
func (s *Supervisor) WriteMetrics(w io.Writer) error {
	parts := []obs.Labeled{{Reg: s.reg}}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		j, err := s.lookup(id)
		if err != nil {
			continue
		}
		j.mu.Lock()
		reg, running := j.reg, j.state == JobRunning
		j.mu.Unlock()
		if running && reg != nil {
			parts = append(parts, obs.Labeled{Key: "job", Value: id, Reg: reg})
		}
	}
	return obs.WritePrometheusMulti(w, parts)
}

// New builds a Supervisor over cfg.Root, recovers persisted jobs —
// completed results re-enter the in-memory table and verdict cache,
// unfinished jobs re-enter the queue to resume from their checkpoints —
// and starts the worker pool.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Root == "" {
		return nil, errors.New("checkd: Config.Root is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("checkd: creating root: %w", err)
	}
	s := &Supervisor{
		cfg:   cfg,
		cache: newVerdictCache(),
		rng:   rand.New(rand.NewSource(cfg.Now().UnixNano())),
		jobs:  make(map[string]*job),
	}
	s.newSupervisorMetrics()
	pending, err := s.recover()
	if err != nil {
		return nil, err
	}
	s.mRecovered.Add(int64(len(pending)))
	// The queue must hold every recovered job plus a full configured
	// depth of new ones: recovery never drops work.
	s.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queue <- j
	}
	for w := 0; w < cfg.MaxConcurrent; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// persistedJob is the job.json schema.
type persistedJob struct {
	ID        string     `json:"id"`
	Submitted time.Time  `json:"submitted"`
	Request   JobRequest `json:"request"`
}

// persistedResult is the result.json schema.
type persistedResult struct {
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Error    string   `json:"error,omitempty"`
	Outcome  *Outcome `json:"outcome,omitempty"`
}

// recover scans the persistence root: every job directory with a
// result.json re-enters the completed table (feeding the verdict cache),
// every one without is unfinished — process death or a drain — and is
// returned for re-queueing in admission order.
func (s *Supervisor) recover() ([]*job, error) {
	entries, err := os.ReadDir(s.cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("checkd: scanning root: %w", err)
	}
	var pending []*job
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Root, ent.Name())
		blob, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			s.cfg.Logf("checkd: skipping %s: %v", dir, err)
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(blob, &pj); err != nil || pj.ID != ent.Name() {
			s.cfg.Logf("checkd: skipping %s: torn or mismatched job.json", dir)
			continue
		}
		j := &job{id: pj.ID, req: pj.Request, fp: pj.Request.fingerprint(), submitted: pj.Submitted}
		if blob, err := os.ReadFile(filepath.Join(dir, "result.json")); err == nil {
			var pr persistedResult
			if err := json.Unmarshal(blob, &pr); err != nil {
				s.cfg.Logf("checkd: skipping %s: torn result.json", dir)
				continue
			}
			j.state = pr.State
			j.attempts = pr.Attempts
			j.errMsg = pr.Error
			j.outcome = pr.Outcome
			if pr.State == JobDone && pr.Outcome != nil {
				s.cache.put(j.fp, pr.Outcome)
			}
		} else {
			j.state = JobQueued
			if _, serr := os.Stat(filepath.Join(dir, "ck", "MANIFEST.json")); serr == nil {
				s.cfg.Logf("checkd: recovering job %s: resuming from checkpoint", j.id)
			} else {
				s.cfg.Logf("checkd: recovering job %s: restarting (no checkpoint)", j.id)
			}
			pending = append(pending, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].submitted.Before(pending[k].submitted) })
	sort.Slice(s.order, func(i, k int) bool {
		return s.jobs[s.order[i]].submitted.Before(s.jobs[s.order[k]].submitted)
	})
	return pending, nil
}

func (s *Supervisor) jobDir(id string) string { return filepath.Join(s.cfg.Root, id) }
func (s *Supervisor) ckDir(id string) string  { return filepath.Join(s.jobDir(id), "ck") }

// writeJSON persists v at path atomically (tmp + rename), so the startup
// scan never observes a torn record.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// validateRequest normalizes and validates one submission, returning the
// canonical request. Every rejection wraps tla.ErrInvalidOptions or
// ErrUnknownSpec for the server's 400 mapping.
func (s *Supervisor) validateRequest(req JobRequest) (JobRequest, error) {
	_, cfg, err := lookupSpec(req.Spec, req.Config)
	if err != nil {
		return req, err
	}
	req.Config = cfg
	if req.Options.DeadlineSeconds < 0 {
		return req, fmt.Errorf("%w: negative deadline_seconds", tla.ErrInvalidOptions)
	}
	// Reject engine-invalid options at admission instead of at run time:
	// the skeleton mirrors buildOptions minus the per-run fields.
	probe := req.shapingOptions()
	probe.Workers = req.Options.Workers
	probe.MemoryBudgetBytes = req.Options.MemBudgetBytes
	probe.CheckpointDir = "pending"
	probe.CheckpointEvery = s.cfg.CheckpointEvery
	if err := probe.Validate(); err != nil {
		return req, err
	}
	return req, nil
}

// Submit admits one job. A verdict-cache hit completes instantly: the
// returned JobResult carries the cached outcome and the job record exists
// only in memory (the verdict it aliases is persisted under the job that
// computed it). A miss persists the request and enqueues it; ErrQueueFull
// and ErrDraining reject without side effects.
func (s *Supervisor) Submit(req JobRequest) (JobResult, error) {
	req, err := s.validateRequest(req)
	if err != nil {
		return JobResult{}, err
	}
	fp := req.fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobResult{}, ErrDraining
	}
	now := s.cfg.Now()
	s.seq++
	id := fmt.Sprintf("j%x-%04d", now.UnixNano(), s.seq)
	j := &job{id: id, req: req, fp: fp, submitted: now}
	s.mSubmitted.Inc()

	if out, ok := s.cache.get(fp); ok && !req.Options.NoCache {
		j.state = JobDone
		j.cached = true
		j.outcome = out
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.mCacheHit.Inc()
		s.cfg.Logf("checkd: job %s (%s) served from verdict cache", id, req.Spec)
		return j.result(), nil
	}
	s.mCacheMiss.Inc()

	if len(s.queue) == cap(s.queue) {
		return JobResult{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, cap(s.queue))
	}
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return JobResult{}, fmt.Errorf("checkd: creating job dir: %w", err)
	}
	if err := writeJSON(filepath.Join(s.jobDir(id), "job.json"),
		persistedJob{ID: id, Submitted: now, Request: req}); err != nil {
		os.RemoveAll(s.jobDir(id))
		return JobResult{}, fmt.Errorf("checkd: persisting job: %w", err)
	}
	j.state = JobQueued
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue <- j // capacity checked above under mu; cannot block
	s.cfg.Logf("checkd: job %s (%s) queued", id, req.Spec)
	return j.result(), nil
}

// lookup returns the job record for id.
func (s *Supervisor) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchJob, id)
	}
	return j, nil
}

// Status returns the job's current status snapshot.
func (s *Supervisor) Status(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// Result returns the job's status plus outcome (nil until terminal).
func (s *Supervisor) Result(id string) (JobResult, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobResult{}, err
	}
	return j.result(), nil
}

// Jobs lists every known job in admission order.
func (s *Supervisor) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, err := s.lookup(id); err == nil {
			out = append(out, j.status())
		}
	}
	return out
}

// Cancel stops a job: a queued job is marked canceled (its worker pop
// becomes a no-op), a running job's attempt is interrupted with a
// user-cancel cause. Terminal jobs are left alone.
func (s *Supervisor) Cancel(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return nil
	case j.state == JobRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel(errUserCancel)
		return nil
	default:
		// Persist, then publish, both under j.mu: the worker's pop reads
		// the state under the same lock, so it cannot start the job in
		// between, and no client sees "canceled" before a restart would
		// honour it.
		s.persistTerminal(j.id, persistedResult{State: JobCanceled, Attempts: j.attempts, Error: errUserCancel.Error()})
		j.state = JobCanceled
		j.errMsg = errUserCancel.Error()
		j.mu.Unlock()
		s.cfg.Logf("checkd: job %s canceled before running", id)
		return nil
	}
}

// Draining reports whether the supervisor has stopped admitting (readyz).
func (s *Supervisor) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// CacheLen reports the number of cached verdicts (for /healthz and bench).
func (s *Supervisor) CacheLen() int { return s.cache.len() }

// Drain is the graceful shutdown: stop admitting, interrupt every running
// job so it checkpoints and parks as "interrupted", leave still-queued
// jobs persisted for the next startup, and wait for the workers to exit.
// Idempotent.
func (s *Supervisor) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue) // senders hold mu and check draining first, so no send-after-close
	var cancels []func(error)
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel(errDrainStop)
	}
	s.wg.Wait()
	s.cfg.Logf("checkd: drained")
}

// worker pulls jobs off the queue until drain closes it. A pop during
// drain leaves the job untouched — still "queued", still persisted — for
// the next startup to run.
func (s *Supervisor) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			continue
		}
		j.mu.Lock()
		skip := j.state.Terminal() // canceled while queued
		if !skip {
			j.state = JobRunning
		}
		j.mu.Unlock()
		if skip {
			continue
		}
		s.mRunning.Add(1)
		s.runJob(j)
		s.mRunning.Add(-1)
	}
}

// buildOptions assembles the engine options for one attempt.
func (s *Supervisor) buildOptions(j *job, ctx context.Context, resume bool) tla.Options {
	budget := j.req.Options.MemBudgetBytes
	if budget == 0 {
		budget = s.cfg.MemBudgetPerJob
	}
	opts := j.req.shapingOptions()
	opts.Workers = j.req.Options.Workers
	opts.MemoryBudgetBytes = budget
	opts.CheckpointDir = s.ckDir(j.id) // implies the state arena
	opts.CheckpointEvery = s.cfg.CheckpointEvery
	opts.FS = s.cfg.FS
	opts.Context = ctx
	opts.CheckpointMeta = map[string]string{"job_id": j.id, "spec": j.req.Spec}
	// Time-based progress, paced by ProgressEvery.
	opts.Progress = func(p tla.Progress) { j.observeProgress(p, s.cfg.Now()) }
	opts.ProgressEvery = s.cfg.ProgressEvery
	opts.Metrics = j.registry()
	if resume {
		opts.ResumeFrom = s.ckDir(j.id)
	}
	return opts
}

// attempt runs one checking attempt with panic isolation: a crash in the
// runner (outside the engine's own spec-panic capture) surfaces as a
// retryable error instead of taking the whole service down.
func (s *Supervisor) attempt(run RunFunc, opts tla.Options) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("checkd: job runner crashed: %v", r)
		}
	}()
	return run(opts)
}

// backoff computes the capped exponential delay before retry `attempt`
// (1-based), with up to 50% multiplicative jitter so retries from
// simultaneous faults do not stampede.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := s.cfg.BackoffBase << (attempt - 1)
	if d > s.cfg.BackoffCap || d <= 0 {
		d = s.cfg.BackoffCap
	}
	s.mu.Lock()
	jitter := s.rng.Float64()
	s.mu.Unlock()
	return d + time.Duration(float64(d)*0.5*jitter)
}

// hasCheckpoint reports whether the job's checkpoint directory holds a
// committed manifest to resume from.
func (s *Supervisor) hasCheckpoint(j *job) bool {
	_, err := os.Stat(filepath.Join(s.ckDir(j.id), "MANIFEST.json"))
	return err == nil
}

// persistTerminal writes the job's result.json. Persistence failure is
// logged, not fatal: the in-memory record still serves the API, and the
// worst case after a crash is re-running a finished job.
func (s *Supervisor) persistTerminal(id string, pr persistedResult) {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		s.cfg.Logf("checkd: persisting result of %s: %v", id, err)
		return
	}
	if err := writeJSON(filepath.Join(s.jobDir(id), "result.json"), &pr); err != nil {
		s.cfg.Logf("checkd: persisting result of %s: %v", id, err)
	}
}

// complete moves the job to a terminal state. The order is the contract a
// client polling the job relies on: result.json is written, a done outcome
// enters the verdict cache and the lifecycle counter moves before the
// terminal state becomes visible, so whoever sees "done" can fetch the
// result from a restarted process and resubmit into a cache hit. Only the
// job's own worker calls it, so nothing else writes the job in between.
//
// The other ways out of "running" keep the same order: Cancel of a queued
// job persists before it publishes, and a drain parks a job only after the
// engine has written the checkpoint the next startup resumes from. A retry
// publishes nothing — the job stays "running" across attempts.
func (s *Supervisor) complete(j *job, state JobState, out *Outcome, errMsg string) {
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()
	s.persistTerminal(j.id, persistedResult{State: state, Attempts: attempts, Error: errMsg, Outcome: out})
	if state == JobDone && out != nil {
		s.cache.put(j.fp, out)
	}
	s.mCompleted[state].Inc()
	j.mu.Lock()
	j.state = state
	j.outcome = out
	j.errMsg = errMsg
	j.cancel = nil
	j.mu.Unlock()
	s.cfg.Logf("checkd: job %s %s%s", j.id, state, suffixIf(errMsg))
}

func suffixIf(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// runJob executes one job to a terminal (or parked) state: the attempt
// loop applies the policy table at the top of this file.
func (s *Supervisor) runJob(j *job) {
	runner, _, err := lookupSpec(j.req.Spec, j.req.Config)
	if err != nil {
		s.complete(j, JobFailed, nil, err.Error())
		return
	}

	// One engine registry per job, shared across its attempts, scraped via
	// WriteMetrics while the job runs.
	j.mu.Lock()
	if j.reg == nil {
		j.reg = obs.NewRegistry()
	}
	j.mu.Unlock()

	// The deadline is armed when the job starts running (not when it was
	// admitted: queue time is the server's fault, not the client's). A
	// process restart re-arms it — the deadline bounds one process's
	// attempt span, the checkpoint chain bounds total lost work.
	var deadline time.Time
	if s.cfg.JobDeadline > 0 {
		deadline = s.cfg.Now().Add(s.cfg.JobDeadline)
	}
	if secs := j.req.Options.DeadlineSeconds; secs > 0 {
		if d := s.cfg.Now().Add(time.Duration(secs) * time.Second); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}

	// One cancelable context for the whole run, not one per attempt: a
	// cancel or a drain that arrives between attempts, during the retry
	// backoff, must stop the next attempt too (the engine sees an
	// already-canceled context at its first poll).
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	if !deadline.IsZero() {
		var stop context.CancelFunc
		ctx, stop = context.WithDeadline(ctx, deadline)
		defer stop()
	}

	for attempt := 1; ; attempt++ {
		if !deadline.IsZero() && !deadline.After(s.cfg.Now()) {
			s.complete(j, JobFailed, nil, "deadline exceeded before attempt "+fmt.Sprint(attempt))
			return
		}
		j.mu.Lock()
		j.attempts = attempt
		j.mu.Unlock()

		resume := s.hasCheckpoint(j)
		out, err := s.attempt(runner, s.buildOptions(j, ctx, resume))

		switch {
		case err == nil:
			s.complete(j, JobDone, out, "")
			return

		case errors.Is(err, tla.ErrInterrupted):
			switch {
			case errors.Is(err, errDrainStop):
				// Graceful drain: the engine already checkpointed (the
				// interrupt path writes one when CheckpointDir is set).
				// Park the job; no result.json, so the next startup
				// re-queues and resumes it.
				j.mu.Lock()
				j.state = JobInterrupted
				j.cancel = nil
				j.mu.Unlock()
				s.cfg.Logf("checkd: job %s checkpointed for drain (distinct so far: %d)", j.id, partialDistinct(out))
				return
			case errors.Is(err, errUserCancel):
				s.complete(j, JobCanceled, nil, errUserCancel.Error())
				os.RemoveAll(s.ckDir(j.id)) // a canceled job's checkpoint is dead weight
				return
			case errors.Is(err, context.DeadlineExceeded):
				s.complete(j, JobFailed, nil, "deadline exceeded")
				return
			default:
				// An interrupt cause the supervisor did not issue — fail
				// explicitly rather than loop on a cause it cannot clear.
				s.complete(j, JobFailed, nil, err.Error())
				return
			}

		case errors.Is(err, tla.ErrSpecPanic):
			// The spec's own code is broken; retrying replays the panic.
			// The error text carries the structured panic trace.
			s.complete(j, JobFailed, nil, err.Error())
			return

		case errors.Is(err, tla.ErrInvalidOptions):
			s.complete(j, JobFailed, nil, err.Error())
			return

		case errors.Is(err, tla.ErrBadCheckpoint):
			// The checkpoint is torn or stale (spec changed shape, options
			// mismatch). The checkpoint is disposable — the job is not:
			// discard and restart fresh, consuming an attempt.
			s.cfg.Logf("checkd: job %s attempt %d: bad checkpoint, discarding and restarting: %v", j.id, attempt, err)
			os.RemoveAll(s.ckDir(j.id))
			if attempt >= s.cfg.MaxAttempts {
				s.complete(j, JobFailed, nil, err.Error())
				return
			}
			s.mRetries.Inc()

		default:
			// Persistent I/O faults that exhausted the engine's internal
			// retries, runner crashes: retry from the last checkpoint with
			// capped exponential backoff.
			if attempt >= s.cfg.MaxAttempts {
				s.complete(j, JobFailed, nil, fmt.Sprintf("%d attempts failed; last: %v", attempt, err))
				return
			}
			s.mRetries.Inc()
			d := s.backoff(attempt)
			s.cfg.Logf("checkd: job %s attempt %d failed (%v); retrying in %s from %s", j.id, attempt, err,
				d, checkpointOrScratch(resumePointAfter(s, j)))
			s.cfg.Sleep(d)
		}
	}
}

func partialDistinct(out *Outcome) int {
	if out == nil {
		return 0
	}
	return out.Distinct
}

func resumePointAfter(s *Supervisor, j *job) bool { return s.hasCheckpoint(j) }

func checkpointOrScratch(hasCk bool) string {
	if hasCk {
		return "last checkpoint"
	}
	return "scratch"
}
