// Command benchjson starts the repository's machine-readable performance
// trajectory: it runs the reduction and throughput measurements that CI's
// bench-delta stage watches as Go benchmarks, in-process, and writes them
// as one JSON file per PR — BENCH_10.json for this one; future PRs append
// BENCH_<n>.json next to it so the series can be diffed and plotted
// without parsing `go test -bench` text.
//
// Schema (schema_version 1):
//
//	{
//	  "schema_version": 1,            // bump on incompatible changes
//	  "pr": 8,                        // -pr; the PR this file snapshots
//	  "go_version": "go1.x",          // runtime.Version()
//	  "gomaxprocs": 4,                // worker parallelism the run saw
//	  "config": "small",              // -config: small | full
//	  "benchmarks": [
//	    {
//	      "name": "por/raftmongo-v1",  // family/spec, stable across PRs
//	      "distinct_states": 2338,     // explored by the measured run
//	      "baseline_states": 7599,     // explored by its baseline run
//	      "reduction": 3.25,           // baseline_states / distinct_states
//	      "states_per_sec": 133423,    // distinct of both runs / wall time
//	      "allocs_per_op": 598267,     // heap allocations, both runs
//	      "bytes_per_op": 41385224,    // heap bytes allocated, both runs
//	      "wall_seconds": 0.074        // both runs, wall clock
//	    }, ...
//	  ]
//	}
//
// Families: "por/<spec>" measures ample-set partial-order reduction
// against the unpruned run; "symmetry/<spec>" measures symmetry reduction
// against the asymmetric run; "symmetry+por/<spec>" measures the composed
// cut against symmetry alone (so its reduction is POR's marginal factor);
// "throughput/<spec>" has no baseline (baseline_states 0, reduction 1)
// and exists to track raw states/sec.
//
// The "checkd/" families measure the checking service end to end through
// an in-process supervisor and carry two extra fields: "jobs_per_sec"
// (checkd/jobs-uncached submits distinct runs, checkd/jobs-cached replays
// one fingerprint against the verdict cache) and "recovery_seconds"
// (checkd/recovery drains a checkpointing job mid-run and times a fresh
// supervisor from startup scan to the resumed job's verdict).
//
// The "obs-overhead/" families pin the instrumentation tax: the same
// exploration run with Options.Metrics off (the baseline states/sec) and
// on, with the relative slowdown in "overhead_pct" — the number the
// acceptance gate holds below 3%. Each mode's wall time is the best of
// several interleaved repetitions, which cancels scheduler noise that
// would otherwise swamp a single-digit-percent measurement.
//
// Usage:
//
//	benchjson [-out BENCH_10.json] [-pr 10] [-config small|full]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkd"
	"repro/internal/locking"
	"repro/internal/obs"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

type benchmark struct {
	Name           string  `json:"name"`
	DistinctStates int     `json:"distinct_states"`
	BaselineStates int     `json:"baseline_states"`
	Reduction      float64 `json:"reduction"`
	StatesPerSec   float64 `json:"states_per_sec"`
	AllocsPerOp    uint64  `json:"allocs_per_op"`
	BytesPerOp     uint64  `json:"bytes_per_op"`
	WallSeconds    float64 `json:"wall_seconds"`
	// The checkd families report service throughput and recovery latency;
	// zero (omitted) on the engine families.
	JobsPerSec      float64 `json:"jobs_per_sec,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`
	// The obs-overhead families report the metrics-registry slowdown in
	// percent of baseline states/sec; omitted elsewhere.
	OverheadPct float64 `json:"overhead_pct,omitempty"`
}

type report struct {
	SchemaVersion int         `json:"schema_version"`
	PR            int         `json:"pr"`
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	Config        string      `json:"config"`
	Benchmarks    []benchmark `json:"benchmarks"`
}

func main() {
	var (
		out    = flag.String("out", "BENCH_10.json", "output path")
		pr     = flag.Int("pr", 10, "PR number recorded in the report")
		config = flag.String("config", "small", "state-space size: small (3 nodes, 2 terms, logs of 2) or full (the paper's 3/3/3)")
	)
	flag.Parse()
	if err := run(*out, *pr, *config); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// measure runs baseline then measured, folding both runs' cost into one
// benchmark row: the reduction families pay for two explorations by
// construction, and charging both keeps allocs/op comparable across PRs.
func measure(name string, baseline, measured func() (int, error)) (benchmark, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	base, err := baseline()
	if err != nil {
		return benchmark{}, fmt.Errorf("%s baseline: %w", name, err)
	}
	dist, err := measured()
	if err != nil {
		return benchmark{}, fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	red := 1.0
	if base > 0 && dist > 0 {
		red = float64(base) / float64(dist)
	}
	return benchmark{
		Name:           name,
		DistinctStates: dist,
		BaselineStates: base,
		Reduction:      red,
		StatesPerSec:   float64(base+dist) / wall,
		AllocsPerOp:    after.Mallocs - before.Mallocs,
		BytesPerOp:     after.TotalAlloc - before.TotalAlloc,
		WallSeconds:    wall,
	}, nil
}

func run(out string, pr int, config string) error {
	rcfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	switch config {
	case "small":
	case "full":
		rcfg = raftmongo.DefaultConfig
	default:
		return fmt.Errorf("unknown -config %q (small or full)", config)
	}
	lcfg := locking.SpecConfig{Actors: 3}

	distinct := func(spec *tla.Spec[raftmongo.State], opts tla.Options) func() (int, error) {
		return func() (int, error) {
			res, err := tla.Check(spec, opts)
			if err != nil {
				return 0, err
			}
			return res.Distinct, nil
		}
	}
	ldistinct := func(opts tla.Options) func() (int, error) {
		return func() (int, error) {
			res, err := tla.Check(locking.Spec(lcfg), opts)
			if err != nil {
				return 0, err
			}
			return res.Distinct, nil
		}
	}
	none := func() (int, error) { return 0, nil }
	symCfg := rcfg
	symCfg.Symmetric = true

	rep := report{
		SchemaVersion: 1,
		PR:            pr,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config:        config,
	}
	for _, m := range []struct {
		name               string
		baseline, measured func() (int, error)
	}{
		{"por/raftmongo-v1", distinct(raftmongo.SpecV1(rcfg), tla.Options{}), distinct(raftmongo.SpecV1(rcfg), tla.Options{PartialOrder: true})},
		{"por/raftmongo-v2", distinct(raftmongo.SpecV2(rcfg), tla.Options{}), distinct(raftmongo.SpecV2(rcfg), tla.Options{PartialOrder: true})},
		{"por/locking", ldistinct(tla.Options{}), ldistinct(tla.Options{PartialOrder: true})},
		{"symmetry/raftmongo-v2", distinct(raftmongo.SpecV2(rcfg), tla.Options{}), distinct(raftmongo.SpecV2(symCfg), tla.Options{})},
		{"symmetry+por/raftmongo-v2", distinct(raftmongo.SpecV2(symCfg), tla.Options{}), distinct(raftmongo.SpecV2(symCfg), tla.Options{PartialOrder: true})},
		{"throughput/raftmongo-v2", none, distinct(raftmongo.SpecV2(rcfg), tla.Options{})},
	} {
		b, err := measure(m.name, m.baseline, m.measured)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s states=%-8d baseline=%-8d reduction=%.2fx states/sec=%.0f\n",
			b.Name, b.DistinctStates, b.BaselineStates, b.Reduction, b.StatesPerSec)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}

	obsRows, err := benchObsOverhead(rcfg)
	if err != nil {
		return err
	}
	for _, b := range obsRows {
		fmt.Printf("%-28s states=%-8d states/sec=%-10.0f overhead=%.2f%%\n",
			b.Name, b.DistinctStates, b.StatesPerSec, b.OverheadPct)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}

	serviceRows, err := benchCheckd(rcfg)
	if err != nil {
		return err
	}
	for _, b := range serviceRows {
		fmt.Printf("%-28s states=%-8d jobs/sec=%-10.1f recovery=%.3fs\n",
			b.Name, b.DistinctStates, b.JobsPerSec, b.RecoverySeconds)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// benchObsOverhead measures the metrics registry's states/sec tax on the
// CI-pinned exploration shape — the parallel check (BenchmarkParallelCheck)
// — by running the same spec with Options.Metrics off and on. Repetitions interleave the two modes and each mode keeps its
// best wall time, so a background scheduling hiccup cannot masquerade as
// instrumentation overhead.
func benchObsOverhead(rcfg raftmongo.Config) ([]benchmark, error) {
	const (
		reps          = 9 // paired samples per shape; the median ratio is reported
		runsPerSample = 3 // checks per timed sample, amortizing timer/load noise
	)
	shapes := []struct{ name string }{{"obs-overhead/levelsync"}}
	var rows []benchmark
	for _, sh := range shapes {
		one := func(instrument bool) (int, float64, error) {
			var opts tla.Options
			if instrument {
				opts.Metrics = obs.NewRegistry()
			}
			res, err := tla.Check(raftmongo.SpecV2(rcfg), opts)
			if err != nil {
				return 0, 0, err
			}
			return res.Distinct, 0, nil
		}
		// Warm-up run: page in the spec's code paths before timing.
		if _, _, err := one(false); err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		var distinct int
		ratios := make([]float64, 0, reps)
		onWalls := make([]float64, 0, reps)
		for r := 0; r < reps; r++ {
			// Each rep times the two modes back-to-back and keeps their
			// ratio: machine load varies slowly relative to one run, so it
			// cancels within a pair where it would swamp a min-of-N of
			// absolute walls. Alternating which mode runs first keeps a
			// monotone load trend from biasing the ratio either way.
			order := []bool{false, true}
			if r%2 == 1 {
				order = []bool{true, false}
			}
			var wallOff, wallOn float64
			for _, instrument := range order {
				start := time.Now()
				for n := 0; n < runsPerSample; n++ {
					d, _, err := one(instrument)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", sh.name, err)
					}
					distinct = d
				}
				wall := time.Since(start).Seconds() / runsPerSample
				if instrument {
					wallOn = wall
				} else {
					wallOff = wall
				}
			}
			ratios = append(ratios, wallOn/wallOff)
			onWalls = append(onWalls, wallOn)
		}
		// Median of the paired ratios is the overhead estimate; the median
		// instrumented wall anchors the reported throughput.
		sort.Float64s(ratios)
		sort.Float64s(onWalls)
		ratio := ratios[reps/2]
		bestOn := onWalls[reps/2]
		instSS := float64(distinct) / bestOn
		baseSS := instSS * ratio
		rows = append(rows, benchmark{
			Name:           sh.name,
			DistinctStates: distinct,
			BaselineStates: distinct,
			Reduction:      1,
			StatesPerSec:   instSS,
			WallSeconds:    bestOn,
			OverheadPct:    (1 - instSS/baseSS) * 100,
		})
	}
	return rows, nil
}

// benchCheckd measures the checking service through an in-process
// supervisor: uncached and cached job throughput, and the drain→restart
// recovery latency.
func benchCheckd(rcfg raftmongo.Config) ([]benchmark, error) {
	// Uncached: the same locking configuration submitted with NoCache, so
	// every job pays a full exploration. Bounded and CPU-deterministic.
	const uncached = 6
	root, err := os.MkdirTemp("", "benchjson-checkd-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	sup, err := checkd.New(checkd.Config{Root: filepath.Join(root, "uncached"), MaxConcurrent: 2, QueueDepth: uncached})
	if err != nil {
		return nil, err
	}
	waitDone := func(s *checkd.Supervisor, id string) (checkd.JobResult, error) {
		for {
			res, err := s.Result(id)
			if err != nil || res.State.Terminal() {
				if err == nil && res.State != checkd.JobDone {
					err = fmt.Errorf("job %s ended %s: %s", id, res.State, res.Error)
				}
				return res, err
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	req := checkd.JobRequest{Spec: "locking", Config: checkd.SpecParams{Actors: 3}}
	start := time.Now()
	ids := make([]string, 0, uncached)
	for i := 0; i < uncached; i++ {
		r := req
		r.Options.NoCache = true
		res, err := sup.Submit(r)
		if err != nil {
			return nil, fmt.Errorf("checkd/jobs-uncached: %w", err)
		}
		ids = append(ids, res.ID)
	}
	var distinct int
	for _, id := range ids {
		res, err := waitDone(sup, id)
		if err != nil {
			return nil, fmt.Errorf("checkd/jobs-uncached: %w", err)
		}
		distinct = res.Outcome.Distinct
	}
	uncachedWall := time.Since(start).Seconds()
	rows := []benchmark{{
		Name:           "checkd/jobs-uncached",
		DistinctStates: distinct,
		Reduction:      1,
		JobsPerSec:     float64(uncached) / uncachedWall,
		WallSeconds:    uncachedWall,
	}}

	// Cached: one priming run, then the same fingerprint replayed against
	// the verdict cache — the CI-resubmission path.
	const cached = 200
	if _, err := sup.Submit(req); err != nil {
		return nil, err
	}
	prime, err := sup.Submit(req) // wait via the cached-or-queued result
	if err != nil {
		return nil, err
	}
	if !prime.Cached {
		if _, err := waitDone(sup, prime.ID); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	for i := 0; i < cached; i++ {
		res, err := sup.Submit(req)
		if err != nil {
			return nil, fmt.Errorf("checkd/jobs-cached: %w", err)
		}
		if !res.Cached {
			return nil, fmt.Errorf("checkd/jobs-cached: submission %d missed the verdict cache", i)
		}
	}
	cachedWall := time.Since(start).Seconds()
	rows = append(rows, benchmark{
		Name:           "checkd/jobs-cached",
		DistinctStates: distinct,
		Reduction:      1,
		JobsPerSec:     float64(cached) / cachedWall,
		WallSeconds:    cachedWall,
	})
	sup.Drain()

	// Recovery: drain a checkpointing raftmongo job mid-run, then time a
	// fresh supervisor from startup scan to the resumed job's verdict —
	// the latency a kill -9 or rolling restart adds to a running job.
	recRoot := filepath.Join(root, "recovery")
	// A tight progress tick: the drain trigger below polls Progress.Distinct,
	// and the service default of one tick per second would let this short job
	// finish before the first delivery.
	sup2, err := checkd.New(checkd.Config{Root: recRoot, CheckpointEvery: 1, ProgressEvery: 2 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	res, err := sup2.Submit(checkd.JobRequest{
		Spec:   "raftmongo-v2",
		Config: checkd.SpecParams{Nodes: rcfg.Nodes, MaxTerm: 2, MaxLog: 2},
	})
	if err != nil {
		return nil, err
	}
	for {
		st, err := sup2.Status(res.ID)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return nil, fmt.Errorf("checkd/recovery: job finished before the drain")
		}
		if st.Progress != nil && st.Progress.Distinct > 5000 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sup2.Drain()
	start = time.Now()
	sup3, err := checkd.New(checkd.Config{Root: recRoot, CheckpointEvery: 4})
	if err != nil {
		return nil, err
	}
	final, err := waitDone(sup3, res.ID)
	if err != nil {
		return nil, fmt.Errorf("checkd/recovery: %w", err)
	}
	recovery := time.Since(start).Seconds()
	sup3.Drain()
	rows = append(rows, benchmark{
		Name:            "checkd/recovery",
		DistinctStates:  final.Outcome.Distinct,
		Reduction:       1,
		RecoverySeconds: recovery,
		WallSeconds:     recovery,
	})
	return rows, nil
}
