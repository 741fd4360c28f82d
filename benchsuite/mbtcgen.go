package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/arrayot"
	"repro/internal/mbtcg"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

func arrayotConfig(smoke bool) arrayot.Config {
	cfg := arrayot.DefaultConfig()
	if smoke {
		cfg.Clients = 2
	}
	return cfg
}

// conformance counts a generation's outputs against expected.json: the
// explored states, the number of cases, and zero mismatches when the
// cases run against each OT implementation.
func conformance(distinct int, cases []mbtcg.TestCase, ref, port []mbtcg.Mismatch, exp expectation) unitResult {
	u := unitResult{items: len(cases), attempted: 3}
	if distinct != exp.Distinct || len(cases) != exp.Cases {
		u.fail("%d states → %d cases, expected %d → %d", distinct, len(cases), exp.Distinct, exp.Cases)
	}
	if len(ref) != 0 {
		u.fail("%d mismatches on the ot reference, first: %s", len(ref), ref[0])
	}
	if len(port) != 0 {
		u.fail("%d mismatches on otgo.Engine, first: %s", len(port), port[0])
	}
	return u
}

// generateAndRun is the workload's unit: the generation pipeline, then
// the cases on both OT implementations.
func generateAndRun(e *env) func() (unitResult, error) {
	cfg := arrayotConfig(e.smoke)
	dot := filepath.Join(e.tmp, "array_ot.dot")
	return func() (unitResult, error) {
		cases, res, err := mbtcg.GenerateResult(cfg, dot, tla.Options{Workers: workers})
		if err != nil {
			return unitResult{}, err
		}
		ref := mbtcg.RunAll(cases, ot.NewTransformer(nil, false))
		port := mbtcg.RunAll(cases, otgo.Engine{})
		return conformance(res.Distinct, cases, ref, port, e.exp), nil
	}
}

func mbtcgArrayot() workload {
	return workload{
		name: "mbtcg-arrayot", item: "generated case",
		why: "the paper's MBTCG: check array_ot, dump the graph as DOT, parse it back, extract the cases, run them on both OT implementations; the check is a small part, so an engine speed-up should not move it",
		prepare: func(e *env) (*instance, error) {
			return &instance{unit: generateAndRun(e), close: func() {}}, nil
		},
		trace: traceMbtcg,
	}
}

// traceMbtcg is the traced run: the steps mbtcg.GenerateResult composes,
// called one by one with a span each, paired with bare units for the
// tracing overhead. tla.ParseDOT also runs inside mbtcg.FromDOT; it is
// called once more on its own so its share of from_dot_s is known.
func traceMbtcg(e *env, rec *recorder, rep *report) (layerMetrics, error) {
	start := time.Now()
	cfg := arrayotConfig(e.smoke)
	dot := filepath.Join(e.tmp, "array_ot.dot")
	ws, p := instrument(arrayot.Spec(cfg), e.seed)

	type pass struct {
		wall, check, write, parse, fromDOT, ref, port float64
		dotBytes                                      int64
		cases                                         int
		totals                                        probeTotals
	}
	instrumented := func(unit string) (*pass, error) {
		var ps pass
		var res *tla.Result[arrayot.State]
		var cases []mbtcg.TestCase
		var refMis, portMis []mbtcg.Mismatch
		var err error
		runtime.GC()
		id := rec.begin(0, "mbtcg.GenerateResult+RunAll", unit)
		cid := rec.begin(id, "tla.Check", unit)
		res, err = tla.Check(ws, tla.Options{Workers: workers, RecordGraph: true})
		ps.check = rec.end(cid)
		if err != nil {
			return nil, err
		}
		defer res.Graph.Close()
		ps.totals = p.take()
		ps.totals.spans(rec, cid, workers)
		ps.write = rec.timed(id, "tla.Graph.WriteDOT", unit, func() {
			var f *os.File
			if f, err = os.Create(dot); err != nil {
				return
			}
			if err = res.Graph.WriteDOT(f, "array_ot"); err != nil {
				f.Close()
				return
			}
			err = f.Close()
		})
		if err != nil {
			return nil, err
		}
		fid := rec.begin(id, "mbtcg.FromDOT", unit)
		f, err := os.Open(dot)
		if err != nil {
			return nil, err
		}
		cases, err = mbtcg.FromDOT(f, cfg.Initial)
		f.Close()
		ps.fromDOT = rec.end(fid)
		if err != nil {
			return nil, err
		}
		ps.ref = rec.timed(id, "mbtcg.RunAll(ot)", unit, func() { refMis = mbtcg.RunAll(cases, ot.NewTransformer(nil, false)) })
		ps.port = rec.timed(id, "mbtcg.RunAll(otgo)", unit, func() { portMis = mbtcg.RunAll(cases, otgo.Engine{}) })
		ps.wall = rec.end(id)
		ps.cases = len(cases)
		rep.absorb(conformance(res.Distinct, cases, refMis, portMis, e.exp))

		// Outside the unit: the parser on its own.
		if f, err = os.Open(dot); err != nil {
			return nil, err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		ps.dotBytes = fi.Size()
		ps.parse = rec.timed(0, "tla.ParseDOT", unit+"-parse", func() { _, err = tla.ParseDOT(f) })
		return &ps, err
	}

	var last *pass
	var err error
	ratios, err := pairs(e, start, rep, generateAndRun(e),
		func(i int) (float64, error) {
			last, err = instrumented(fmt.Sprintf("w%d-%d", workers, i))
			if err != nil {
				return 0, err
			}
			return last.wall, nil
		})
	if err != nil {
		return nil, err
	}
	mb := float64(last.dotBytes) / 1e6
	t := last.totals
	return layerMetrics{
		"spec.next_calls":          float64(t.next.calls),
		"spec.successors":          float64(t.next.items),
		"spec.next_busy_s":         t.next.seconds(),
		"spec.invariant_busy_s":    t.invariant.seconds(),
		"mbtcg.check_s":            last.check,
		"tla.dot_write_s":          last.write,
		"tla.dot_write_mb_per_s":   mb / last.write,
		"tla.dot_parse_s":          last.parse,
		"tla.dot_parse_mb_per_s":   mb / last.parse,
		"mbtcg.from_dot_s":         last.fromDOT,
		"mbtcg.dot_bytes":          float64(last.dotBytes),
		"mbtcg.cases":              float64(last.cases),
		"ot.run_ref_s":             last.ref,
		"otgo.run_s":               last.port,
		"bench.trace_overhead_pct": (median(ratios) - 1) * 100,
	}, nil
}
