package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/tla"
)

// checkWorkload builds one of the four full-exploration workloads: a unit
// is one tla.Check of spec under opts.
func checkWorkload[S tla.State](name, why string, spec func(smoke bool) *tla.Spec[S], opts func(e *env) tla.Options) workload {
	unit := func(e *env) func() (unitResult, error) {
		sp, o := spec(e.smoke), opts(e)
		return func() (unitResult, error) {
			res, err := tla.Check(sp, o)
			return checkedUnit(res, err, e.exp)
		}
	}
	return workload{
		name: name, item: "distinct state", why: why,
		prepare: func(e *env) (*instance, error) {
			return &instance{unit: unit(e), close: func() {}}, nil
		},
		trace: func(e *env, rec *recorder, rep *report) (layerMetrics, error) {
			return traceCheck(e, rec, rep, unit(e), spec(e.smoke), opts(e))
		},
	}
}

// checkedUnit compares one Check's verdict and counts with expected.json.
// Only an engine failure is an error; a wrong answer is a failed unit.
func checkedUnit[S tla.State](res *tla.Result[S], err error, exp expectation) (unitResult, error) {
	if res == nil || (err != nil && !errors.Is(err, tla.ErrInvariantViolated)) {
		return unitResult{}, err
	}
	u := unitResult{items: res.Distinct, attempted: 1}
	verdict := "ok"
	if res.Violation != nil {
		verdict = "violation"
	}
	switch {
	case verdict != exp.Verdict:
		u.fail("verdict %s, expected %s", verdict, exp.Verdict)
	case res.Distinct != exp.Distinct || res.Transitions != exp.Transitions || (exp.Depth != 0 && res.Depth != exp.Depth):
		u.fail("%d states/%d transitions/depth %d, expected %d/%d/%d",
			res.Distinct, res.Transitions, res.Depth, exp.Distinct, exp.Transitions, exp.Depth)
	}
	return u, nil
}

// checkRun is one instrumented Check: its wall time, result, probe
// reading and what the engine's own registry and journal recorded.
type checkRun[S tla.State] struct {
	wall           float64
	res            *tla.Result[S]
	totals         probeTotals
	reg            *obs.Registry
	levels, widest int
}

// instrumentedCheck checks the instrumented spec ws under opts with a
// registry and a journal attached, records the unit's spans and counts
// its outcome into rep.
func instrumentedCheck[S tla.State](e *env, rec *recorder, rep *report, unit string, ws *tla.Spec[S], p *probe[S], opts tla.Options) (*checkRun[S], error) {
	r := &checkRun[S]{reg: obs.NewRegistry()}
	var journal bytes.Buffer
	opts.Metrics, opts.JournalWriter = r.reg, &journal
	runtime.GC()
	id := rec.begin(0, "tla.Check", unit)
	res, err := tla.Check(ws, opts)
	r.wall = rec.end(id)
	u, err := checkedUnit(res, err, e.exp)
	if err != nil {
		return nil, err
	}
	rep.absorb(u)
	r.res, r.totals = res, p.take()
	r.totals.spans(rec, id, opts.Workers)
	sc := bufio.NewScanner(&journal)
	for sc.Scan() {
		var line struct {
			Event  string `json:"event"`
			Fields struct {
				Width int `json:"width"`
			} `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if line.Event == "level" {
			r.levels++
			r.widest = max(r.widest, line.Fields.Width)
		}
	}
	return r, sc.Err()
}

// cpuSeconds reads the runtime's estimate of the CPU time spent in the
// garbage collector and in total (idle excluded).
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// traceCheck is the traced run of a full-exploration workload:
//
//  1. one instrumented pass at Workers: 1, where busy times are exact
//     (one goroutine, no contention) and the reservoir fills — the cost
//     model's equation wall = Σ spec busy + encode/fingerprint + residual
//     is solved here;
//  2. pairs of (bare, instrumented) units at the workload's own worker
//     count, for the tracing overhead and the per-layer counts at the
//     shape users run;
//  3. a single-goroutine replay of the sampled states for unit costs.
//
// bare is the unit the untraced run times.
func traceCheck[S tla.State](e *env, rec *recorder, rep *report, bare func() (unitResult, error), spec *tla.Spec[S], opts tla.Options) (layerMetrics, error) {
	start := time.Now()
	ws, p := instrument(spec, e.seed)

	one := opts
	one.Workers = 1
	p.sampling = true
	w1, err := instrumentedCheck(e, rec, rep, "w1", ws, p, one)
	p.sampling = false
	if err != nil {
		return nil, err
	}

	var walls []float64
	var gcCPU, busyCPU float64
	var last *checkRun[S]
	ratios, err := pairs(e, start, rep,
		func() (unitResult, error) {
			gc0, busy0 := cpuSeconds()
			u, err := bare()
			gc1, busy1 := cpuSeconds()
			gcCPU, busyCPU = gcCPU+gc1-gc0, busyCPU+busy1-busy0
			return u, err
		},
		func(i int) (float64, error) {
			if last, err = instrumentedCheck(e, rec, rep, fmt.Sprintf("w%d-%d", workers, i), ws, p, opts); err != nil {
				return 0, err
			}
			walls = append(walls, last.wall)
			return last.wall, nil
		})
	if err != nil {
		return nil, err
	}

	c := p.replay(spec)
	t, res := last.totals, last.res
	counter := func(name string) float64 { return float64(last.reg.Counter(name).Value()) }
	lm := layerMetrics{
		"spec.next_calls":                float64(t.next.calls),
		"spec.successors":                float64(t.next.items),
		"spec.next_busy_s":               t.next.seconds(),
		"spec.next_ns_per_successor":     c.nextNsPerSucc,
		"spec.next_allocs_per_successor": c.nextAllocsPerSucc,
		"spec.invariant_busy_s":          t.invariant.seconds(),
		"spec.encode_ns_per_state":       c.encodeNs,
		"spec.encode_bytes_per_state":    c.encodeBytes,
		"spec.key_ns_per_state":          c.keyNs,
		"spec.decode_ns_per_state":       c.decodeNs,
		"spec.orbit_busy_s":              t.orbit.seconds(),
		"tla.distinct_states":            float64(res.Distinct),
		"tla.transitions":                float64(res.Transitions),
		"tla.depth":                      float64(res.Depth),
		"tla.fingerprint_ns_per_state":   c.fingerprintNs,
		"tla.fingerprint_mb_per_s":       c.fingerprintMBs,
		"tla.speedup_w2":                 w1.wall / median(walls),
		"tla.level_count":                float64(last.levels),
		"tla.level_width_max":            float64(last.widest),
		"tla.steals":                     counter("tla_steals_total"),
		"tla.por_ample_states":           counter("tla_por_ample_states_total"),
		"tla.por_deferred_transitions":   counter("tla_por_deferred_transitions_total"),
		"tla.por_planner_rejects":        counter("tla_por_planner_rejects_total"),
		"tla.spill_runs_sealed":          counter("tla_spill_run_seals_total"),
		"tla.spill_merge_joins":          counter("tla_spill_merge_joins_total"),
		"tla.spill_merge_busy_s":         last.reg.Histogram("tla_spill_merge_seconds", nil).Sum(),
		"tla.spill_bytes_sealed":         counter("tla_spill_bytes_sealed_total"),
		"tla.arena_segments_spilled":     counter("tla_arena_segment_spills_total"),
		"bench.trace_overhead_pct":       (median(ratios) - 1) * 100,
	}
	if t.next.items > 0 {
		lm["tla.claim_fresh_ratio"] = float64(res.Distinct) / float64(t.next.items)
	}
	if t.orbit.calls > 0 {
		lm["spec.orbit_images_per_state"] = float64(t.orbit.items) / float64(t.orbit.calls)
	}
	if fails := counter("tla_steal_fails_total"); fails+lm["tla.steals"] > 0 {
		lm["tla.steal_fail_ratio"] = fails / (fails + lm["tla.steals"])
	}
	if busyCPU > 0 {
		lm["runtime.gc_cpu_share"] = gcCPU / busyCPU
	}
	// The residual is what the Workers:1 pass spent that no wrapper saw:
	// claim, retain, scheduling, the engine's own allocation. Encode and
	// fingerprint run inside the engine too, but their unit cost is known
	// from the replay, so they are taken out of it.
	codec := (c.encodeNs + c.fingerprintNs) * float64(w1.totals.next.items) / 1e9
	residual := w1.wall - w1.totals.specBusy().seconds() - codec
	lm["tla.residual_busy_s"] = residual
	lm["tla.residual_share"] = residual / w1.wall
	if share := residual / w1.wall; share < 0 || share > 0.6 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("tla.residual_share %.2f is outside [0, 0.6]: most of the Workers:1 pass is time no wrapper saw", share))
	}

	// A workload that does not ask for a mechanism must not pay for it.
	for name, bypassed := range map[string]bool{
		"tla.por_ample_states":       !opts.PartialOrder,
		"tla.spill_runs_sealed":      opts.MemoryBudgetBytes == 0,
		"tla.arena_segments_spilled": opts.MemoryBudgetBytes == 0,
		"tla.steals":                 opts.Schedule != tla.ScheduleWorkSteal,
	} {
		if bypassed && lm[name] != 0 {
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s = %v on a workload that bypasses it", name, lm[name]))
		}
	}
	return lm, nil
}
