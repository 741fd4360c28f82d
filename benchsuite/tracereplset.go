package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/fuzzer"
	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/trace"
)

const nodes = 3

// fuzzerSeed fixes the rollback-fuzzer run whose trace is checked. The
// trace does not follow -seed: across fuzzer seeds 1–14 the same step
// count gives traces that cost from 0.15 s to 2.0 s to check (frontier
// sizes differ eightfold), so a seed-chosen trace would make every timing
// of this workload a property of the seed, not of the checker.
const fuzzerSeed = 7

// replsetTrace runs the rollback fuzzer against a traced replica set and
// returns the merged events — the capture half of the MBTC pipeline.
func replsetTrace(smoke bool) ([]trace.Event, error) {
	cfg := fuzzer.DefaultRollbackConfig()
	cfg.Seed, cfg.Steps, cfg.SyncBeforeWrites = fuzzerSeed, 1000, true
	if smoke {
		cfg.Steps = 150
	}
	return mbtc.RunTraced(replset.Config{Nodes: nodes, Seed: fuzzerSeed}, func(c *replset.Cluster) error {
		_, err := fuzzer.FuzzRollback(cfg, c)
		return err
	})
}

// traceUnit counts one trace check against the expectation: the verdict,
// and the frontier sizes of the Workers:1 pass when that oracle exists.
func traceUnit(rep *mbtc.Report, exp expectation, oracle []int) unitResult {
	u := unitResult{items: rep.Events, attempted: 1}
	verdict := "fail"
	if rep.OK {
		verdict = "pass"
	}
	switch {
	case verdict != exp.Verdict:
		u.fail("trace verdict %s at step %d, expected %s", verdict, rep.FailedStep, exp.Verdict)
	case exp.Events != 0 && rep.Events != exp.Events:
		u.fail("%d trace events, expected %d", rep.Events, exp.Events)
	case oracle != nil && !slices.Equal(rep.StatesVisited, oracle):
		u.fail("frontier sizes differ from the Workers:1 pass")
	}
	return u
}

// prepareReplset generates the trace and builds the specification; a unit
// is one mbtc.CheckEventsOpts of it at the workload's worker count.
func prepareReplset(e *env) (*instance, error) {
	events, err := replsetTrace(e.smoke)
	if err != nil {
		return nil, err
	}
	spec := raftmongo.SpecV2(mbtc.CheckConfig(nodes))
	var oracle []int
	check := func(w int) (*mbtc.Report, error) {
		return mbtc.CheckEventsOpts(nodes, events, spec, tla.TraceOptions{Workers: w})
	}
	return &instance{
		unit: func() (unitResult, error) {
			rep, err := check(workers)
			if err != nil {
				return unitResult{}, err
			}
			return traceUnit(rep, e.exp, oracle), nil
		},
		oracle: func() error {
			rep, err := check(1)
			if err != nil {
				return err
			}
			oracle = rep.StatesVisited
			return nil
		},
		close: func() {},
	}, nil
}

func traceReplset() workload {
	return workload{
		name: "trace-replset", item: "trace event",
		why:     "the paper's MBTC: a rollback-fuzzer trace checked against RaftMongo V2 by the frontier method; no visited set, arena or scheduler, only Next, Matches and frontier dedup",
		prepare: prepareReplset,
		trace:   traceReplsetLayers,
	}
}

// traceReplsetLayers is the traced run: it calls the pieces
// mbtc.CheckEventsOpts composes, one span each, with Next and Matches
// wrapped — first at Workers:1 (the oracle, exact busy times), then in
// (bare, instrumented) pairs at the workload's worker count. The bare
// units are the untraced run's; their frontier sizes are compared there,
// the instrumented units' here.
func traceReplsetLayers(e *env, rec *recorder, rep *report) (layerMetrics, error) {
	start := time.Now()
	bare, err := prepareReplset(e)
	if err != nil {
		return nil, err
	}
	var events []trace.Event
	runTraced := rec.timed(0, "mbtc.RunTraced", "set-up", func() { events, err = replsetTrace(e.smoke) })
	if err != nil {
		return nil, err
	}
	spec := raftmongo.SpecV2(mbtc.CheckConfig(nodes))
	ws, p := instrument(spec, e.seed)

	type pass struct {
		wall, process, observations, check float64
		totals                             probeTotals
		res                                *tla.TraceResult
	}
	var oracle []int
	instrumented := func(unit string, w int) (*pass, error) {
		var ps pass
		var processed *trace.ProcessResult
		var obs []tla.Observation[raftmongo.State]
		var perr, cerr error
		runtime.GC()
		id := rec.begin(0, "mbtc.CheckEventsOpts", unit)
		ps.process = rec.timed(id, "trace.Process", unit, func() {
			processed, perr = trace.Process(nodes, events, trace.ProcessOptions{FillOplogPrefixes: true})
		})
		if perr != nil {
			return nil, perr
		}
		ps.observations = rec.timed(id, "mbtc.ObservationsFromProcessed", unit, func() {
			obs = p.observations(mbtc.ObservationsFromProcessed(nodes, events, processed))
		})
		cid := rec.begin(id, "tla.CheckTraceWith", unit)
		ps.res, cerr = tla.CheckTraceWith(ws, obs, tla.TraceOptions{Workers: w})
		ps.check = rec.end(cid)
		ps.wall = rec.end(id)
		if ps.res == nil {
			return nil, cerr
		}
		ps.totals = p.take()
		ps.totals.spans(rec, cid, w)
		rep.absorb(traceUnit(&mbtc.Report{Events: len(events), OK: ps.res.OK, FailedStep: ps.res.FailedStep,
			StatesVisited: ps.res.FrontierSizes}, e.exp, oracle))
		return &ps, nil
	}

	p.sampling = true
	w1, err := instrumented("w1", 1)
	p.sampling = false
	if err != nil {
		return nil, err
	}
	oracle = w1.res.FrontierSizes

	var checks []float64
	var last *pass
	ratios, err := pairs(e, start, rep, bare.unit,
		func(i int) (float64, error) {
			if last, err = instrumented(fmt.Sprintf("w%d-%d", workers, i), workers); err != nil {
				return 0, err
			}
			checks = append(checks, last.check)
			return last.wall, nil
		})
	if err != nil {
		return nil, err
	}

	c := p.replay(spec)
	t := last.totals
	n := float64(len(events))
	var sum, widest int
	for _, f := range last.res.FrontierSizes {
		sum += f
		widest = max(widest, f)
	}
	lm := layerMetrics{
		"spec.next_calls":                float64(t.next.calls),
		"spec.successors":                float64(t.next.items),
		"spec.next_busy_s":               t.next.seconds(),
		"spec.next_ns_per_successor":     c.nextNsPerSucc,
		"spec.next_allocs_per_successor": c.nextAllocsPerSucc,
		"spec.encode_ns_per_state":       c.encodeNs,
		"spec.encode_bytes_per_state":    c.encodeBytes,
		"spec.key_ns_per_state":          c.keyNs,
		"spec.decode_ns_per_state":       c.decodeNs,
		"spec.matches_calls":             float64(t.matches.calls),
		"spec.matches_busy_s":            t.matches.seconds(),
		"tla.trace_ms_per_event":         median(checks) * 1000 / n,
		"tla.trace_frontier_max":         float64(widest),
		"tla.trace_frontier_mean":        float64(sum) / float64(len(last.res.FrontierSizes)),
		"tla.trace_successors_per_event": float64(t.next.items) / n,
		"tla.trace_match_ratio":          float64(t.matches.items) / float64(t.matches.calls),
		"tla.speedup_w2":                 w1.check / median(checks),
		"trace.events":                   n,
		"trace.process_s":                last.process,
		"mbtc.observations_s":            last.observations,
		"mbtc.check_share":               last.check / last.wall,
		"replset.run_traced_s":           runTraced,
		"bench.trace_overhead_pct":       (median(ratios) - 1) * 100,
	}
	return lm, nil
}
