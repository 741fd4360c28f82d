package tla

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// engineMetrics bundles one run's observability sinks: the obs handles
// resolved from Options.Metrics and the JSONL journal built on
// Options.JournalWriter. A nil *engineMetrics is the uninstrumented run —
// every method is nil-receiver safe and every handle method is nil-safe in
// turn, so the engine's hot paths call them unconditionally and pay one
// predictable branch when observability is off.
//
// Handles are resolved once, here, at run start: the hot paths never touch
// the registry's maps or locks.
type engineMetrics struct {
	journal *obs.Journal

	// per-worker counters, indexed by worker id; their sums are pinned to
	// Result.Transitions and Result.Distinct by the consistency tests.
	workerExpansions []*obs.Counter
	workerClaims     []*obs.Counter

	levelWidth    *obs.Histogram
	fanout        *obs.Histogram
	phaseExpand   *obs.Histogram // per level-sync level: the expansion
	phaseMerge    *obs.Histogram // per level-sync level: expansion's end to the next level
	mergeDur      *obs.Histogram // per spill merge-join
	checkpointDur *obs.Histogram

	runSeals   *obs.Counter
	mergeJoins *obs.Counter
	spillBytes *obs.Counter

	arenaSegSpills    *obs.Counter
	arenaSpilledBytes *obs.Counter

	ampleStates         *obs.Counter
	deferredTransitions *obs.Counter
	porRejects          *obs.Counter

	ioRetries  *obs.Counter
	ioDegrades *obs.Counter
}

// newEngineMetrics resolves the run's handles. Returns nil — the
// uninstrumented run — when neither a registry nor a journal was requested.
func newEngineMetrics(opts Options, workers int) *engineMetrics {
	reg := opts.Metrics
	if reg == nil && opts.JournalWriter == nil {
		return nil
	}
	m := &engineMetrics{journal: obs.NewJournal(opts.JournalWriter)}
	if reg == nil {
		return m
	}
	reg.Help("tla_worker_expansions_total", "transitions examined, per engine worker; sums to Result.Transitions")
	reg.Help("tla_worker_claims_total", "distinct states first claimed, per engine worker; sums to Result.Distinct")
	m.workerExpansions = make([]*obs.Counter, workers)
	m.workerClaims = make([]*obs.Counter, workers)
	for w := 0; w < workers; w++ {
		m.workerExpansions[w] = reg.Counter(fmt.Sprintf(`tla_worker_expansions_total{worker="%d"}`, w))
		m.workerClaims[w] = reg.Counter(fmt.Sprintf(`tla_worker_claims_total{worker="%d"}`, w))
	}

	reg.Help("tla_level_width", "states per BFS level")
	m.levelWidth = reg.Histogram("tla_level_width", obs.ExpBuckets(1, 2, 21))
	reg.Help("tla_successor_fanout", "successors per expanded state")
	m.fanout = reg.Histogram("tla_successor_fanout", obs.ExpBuckets(1, 2, 9))
	durBuckets := obs.ExpBuckets(0.001, 10, 5) // 1ms .. 10s
	reg.Help("tla_spill_merge_seconds", "per-level merge-join against the spilled visited run")
	m.mergeDur = reg.Histogram("tla_spill_merge_seconds", durBuckets)
	reg.Help("tla_checkpoint_seconds", "checkpoint write duration")
	m.checkpointDur = reg.Histogram("tla_checkpoint_seconds", durBuckets)
	reg.Help("tla_level_phase_seconds", "per BFS level: the parallel expansion, and the merge (spill merge-join, merge passes, budget check)")
	phaseBuckets := obs.ExpBuckets(0.0001, 10, 6) // 100µs .. 10s
	m.phaseExpand = reg.Histogram(`tla_level_phase_seconds{phase="expand"}`, phaseBuckets)
	m.phaseMerge = reg.Histogram(`tla_level_phase_seconds{phase="merge"}`, phaseBuckets)

	reg.Help("tla_spill_run_seals_total", "seals of the resident fingerprints into the visited set's sorted on-disk run")
	m.runSeals = reg.Counter("tla_spill_run_seals_total")
	reg.Help("tla_spill_merge_joins_total", "levels whose probe misses were merge-joined against the on-disk run")
	m.mergeJoins = reg.Counter("tla_spill_merge_joins_total")
	reg.Help("tla_spill_bytes_sealed_total", "bytes written by seals: each seal writes the whole merged run")
	m.spillBytes = reg.Counter("tla_spill_bytes_sealed_total")

	reg.Help("tla_arena_segment_spills_total", "retained-state arena segments written to the spill file")
	m.arenaSegSpills = reg.Counter("tla_arena_segment_spills_total")
	reg.Help("tla_arena_spilled_bytes_total", "bytes of arena segments written to the spill file")
	m.arenaSpilledBytes = reg.Counter("tla_arena_spilled_bytes_total")

	reg.Help("tla_por_ample_states_total", "expanded states at which an ample subset was kept")
	m.ampleStates = reg.Counter("tla_por_ample_states_total")
	reg.Help("tla_por_deferred_transitions_total", "transitions skipped by ample-set pruning")
	m.deferredTransitions = reg.Counter("tla_por_deferred_transitions_total")
	reg.Help("tla_por_planner_rejects_total", "multi-process states the ample planner declined to prune")
	m.porRejects = reg.Counter("tla_por_planner_rejects_total")

	reg.Help("tla_io_retries_total", "transient durable-I/O errors retried with backoff")
	m.ioRetries = reg.Counter("tla_io_retries_total")
	reg.Help("tla_io_degrades_total", "persistent spill failures that degraded the run to resident retention")
	m.ioDegrades = reg.Counter("tla_io_degrades_total")
	return m
}

// addWorker credits a worker with expansion and distinct-claim deltas —
// how the level-synchronized merge attributes its per-chunk counts.
func (m *engineMetrics) addWorker(w int, expansions, claims int64) {
	if m == nil || m.workerExpansions == nil {
		return
	}
	m.workerExpansions[w].Add(expansions)
	m.workerClaims[w].Add(claims)
}

func (m *engineMetrics) observeLevelWidth(n int) {
	if m == nil {
		return
	}
	m.levelWidth.Observe(float64(n))
}

func (m *engineMetrics) observeFanout(n int) {
	if m == nil {
		return
	}
	m.fanout.Observe(float64(n))
}

// onRunSeal records one seal, which wrote a run of bytes.
func (m *engineMetrics) onRunSeal(bytes int64) {
	if m == nil {
		return
	}
	m.runSeals.Inc()
	m.spillBytes.Add(bytes)
}

// onMergeJoin records a level's merge-join against the sealed run.
func (m *engineMetrics) onMergeJoin(d time.Duration) {
	if m == nil {
		return
	}
	m.mergeJoins.Inc()
	m.mergeDur.Observe(d.Seconds())
}

// onArenaSpill records one arena segment written to the spill file.
func (m *engineMetrics) onArenaSpill(bytes int64) {
	if m == nil {
		return
	}
	m.arenaSegSpills.Inc()
	m.arenaSpilledBytes.Add(bytes)
}

// porRejectCounter hands the ample planner its shared reject counter (nil
// when uninstrumented).
func (m *engineMetrics) porRejectCounter() *obs.Counter {
	if m == nil {
		return nil
	}
	return m.porRejects
}

// onAmple records one ample-set prune: the state kept a proper subset and
// deferred n transitions.
func (m *engineMetrics) onAmple(deferred int) {
	if m == nil {
		return
	}
	m.ampleStates.Inc()
	m.deferredTransitions.Add(int64(deferred))
}

// onDegrade records a persistent spill failure that switched subsystem
// ("spill" or "arena") to resident retention.
func (m *engineMetrics) onDegrade(subsystem string) {
	if m == nil {
		return
	}
	m.ioDegrades.Inc()
	m.journal.Emit("degrade", map[string]any{"subsystem": subsystem})
}

// retry runs op through the engine's transient-I/O retry loop, counting
// and journaling each retried attempt for subsystem sys.
func (m *engineMetrics) retry(sys string, op func() error) error {
	if m == nil {
		return retryIO(op)
	}
	return retryIONotify(op, func(attempt int, err error) {
		m.ioRetries.Inc()
		m.journal.Emit("retry", map[string]any{
			"subsystem": sys,
			"attempt":   attempt,
			"error":     err.Error(),
		})
	})
}

// onCheckpoint records one checkpoint write.
func (m *engineMetrics) onCheckpoint(level int, path string, d time.Duration, err error) {
	if m == nil {
		return
	}
	m.checkpointDur.Observe(d.Seconds())
	f := map[string]any{"level": level, "seconds": d.Seconds()}
	if err != nil {
		f["error"] = err.Error()
	} else {
		f["path"] = path
	}
	m.journal.Emit("checkpoint", f)
}

// journalStart emits the run_start event.
func (m *engineMetrics) journalStart(spec string, workers int, por bool) {
	if m == nil {
		return
	}
	m.journal.Emit("run_start", map[string]any{
		"spec":          spec,
		"workers":       workers,
		"partial_order": por,
	})
}

// journalLevel emits one level event of a level-synchronized run, with the
// expansion and merge durations of the level that produced its frontier
// (0, and not observed, for the initial states and a resume's first level).
func (m *engineMetrics) journalLevel(p Progress, expand, merge time.Duration) {
	if m == nil {
		return
	}
	if expand > 0 {
		m.phaseExpand.Observe(expand.Seconds())
		m.phaseMerge.Observe(merge.Seconds())
	}
	m.journal.Emit("level", map[string]any{
		"level":       p.Level,
		"width":       p.Frontier,
		"distinct":    p.Distinct,
		"transitions": p.Transitions,
		"depth":       p.Depth,
		"spill_bytes": p.SpillBytes,
		"expand_s":    expand.Seconds(),
		"merge_s":     merge.Seconds(),
	})
}

// journalEnd emits the terminal run_end event with the run's verdict:
// "violation", "interrupted", "error" or "ok".
func (m *engineMetrics) journalEnd(res *resultCore, err error) {
	if m == nil {
		return
	}
	verdict := "ok"
	switch {
	case res.violation:
		verdict = "violation"
	case res.interrupted:
		verdict = "interrupted"
	case err != nil:
		verdict = "error"
	}
	f := map[string]any{
		"verdict":     verdict,
		"distinct":    res.distinct,
		"transitions": res.transitions,
		"depth":       res.depth,
		"degraded":    res.degraded,
	}
	if err != nil && !res.violation {
		f["error"] = err.Error()
	}
	m.journal.Emit("run_end", f)
}

// resultCore is the slice of a Result the journal's
// terminal event needs — Result itself is generic over S.
type resultCore struct {
	distinct, transitions, depth int
	violation                    bool
	interrupted                  bool
	degraded                     bool
}

func coreOf[S State](res *Result[S]) *resultCore {
	return &resultCore{
		distinct:    res.Distinct,
		transitions: res.Transitions,
		depth:       res.Depth,
		violation:   res.Violation != nil,
		interrupted: res.Interrupted,
		degraded:    res.DegradedMemory,
	}
}
