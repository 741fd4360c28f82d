package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	// workers is both GOMAXPROCS and the engine's worker count: the box
	// this benchmark is judged on has two cores (nproc is recorded in the
	// output so a reader can tell when that stops being true).
	workers = 2
	// setupRounds is how many times a workload is set up from scratch;
	// setup_s is the median, so one slow round cannot pose as a regression.
	setupRounds = 3
	// minUnits is the least number of timed units behind any median.
	minUnits = 5
)

//go:embed expected.json
var expectedJSON []byte

// expectation is one workload's entry of expected.json: the verdict and
// the exact counts its units must reproduce. Zero fields are not pinned
// (work-stealing does not fix Depth, for one).
type expectation struct {
	Verdict     string                 `json:"verdict"`
	Distinct    int                    `json:"distinct"`
	Transitions int                    `json:"transitions"`
	Depth       int                    `json:"depth"`
	Events      int                    `json:"events"`
	Cases       int                    `json:"cases"`
	Jobs        map[string]expectation `json:"jobs"`
}

func loadExpected(smoke bool) (map[string]expectation, error) {
	var all map[string]map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if smoke {
		return all["smoke"], nil
	}
	return all["full"], nil
}

// env is what a workload is given: the seed its inputs derive from, how
// long to measure, and where it may write.
type env struct {
	seed    int64
	seconds float64
	smoke   bool // tiny configurations, one unit: the path `go test` drives
	tmp     string
	exp     expectation
}

// workload is one named set of inputs and the program path it drives.
type workload struct {
	name string
	item string // what work_per_s and the *_per_item metrics count
	why  string
	// prepare generates the inputs and constructs the program under test.
	prepare func(e *env) (*instance, error)
	// trace runs the workload instrumented and returns the per-layer
	// metrics it can measure; the rest are reported as 0.
	// It counts every unit it checks into rep.
	trace func(e *env, rec *recorder, rep *report) (layerMetrics, error)
}

// instance is a prepared workload.
type instance struct {
	// unit runs one repetition and checks its outputs.
	unit func() (unitResult, error)
	// oracle, when set, computes the reference the units' outputs are
	// compared with. It is the harness's own checking cost, so it runs
	// once, after set-up and outside every timed region.
	oracle func() error
	close  func()
}

// unitResult is what one repetition did.
type unitResult struct {
	items int // items of work completed (see workload.item)
	// latencies holds call→verdict seconds per item when items have
	// verdicts of their own (checkd jobs); nil means the unit is the one
	// thing with a verdict and its wall time is the sample.
	latencies []float64
	attempted int // operations whose outcome was checked
	failed    int // of those, how many errored or differed from expected.json
	problems  []string
}

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

// layerMetrics maps per-layer metric names to values.
type layerMetrics map[string]float64

// metricValue is one reported metric.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"` // set when Value is the median of samples
}

// hostInfo records what the numbers were taken on.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// report is everything one workload process measured; the suite reads it
// from the child's second-to-last output line.
type report struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Host      hostInfo               `json:"host"`
	Units     int                    `json:"units"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"` // why units failed
	Notes     []string               `json:"notes,omitempty"`    // flags that fail nothing
	Metrics   map[string]metricValue `json:"metrics"`
	SpanFile  string                 `json:"span_file,omitempty"`
}

func (r *report) absorb(u unitResult) {
	r.Attempted += u.attempted
	r.Failed += u.failed
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, u.problems...)
	}
}

// measure is the untraced run: set the workload up setupRounds times, then
// time units for e.seconds, at least minUnits of them.
//
// A set-up round is prepare() plus one cold unit, so lazy initialisation,
// heap growth and cache fills count as set-up, not as the first sample;
// setup_s is what a run spends before its first timed unit. Five of the
// workloads have no inputs to generate — their prepare() builds a
// specification in microseconds — so on them setup_s is the cold unit and
// follows verdict_s. prepare() alone would be the independent number, but at
// that size it is scheduler noise, which a relative bound cannot judge; the
// traced run reports it as bench.prepare_s. Every unit starts from a
// released heap and a reset VmHWM, so its peak RSS is its own;
// peak_rss_mb is the median of the units' peaks — the maximum over a whole
// process is an extreme value and repeats badly (±20 % on trace-replset).
func measure(w workload, e *env) (*report, error) {
	rep := &report{Workload: w.name, Seed: e.seed, Host: host(), Metrics: map[string]metricValue{}}
	var inst *instance
	var setups, peaks []float64
	for round := 0; round < setupRounds; round++ {
		if inst != nil {
			inst.close()
		}
		if err := resetPeakRSS(); err != nil && round == 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("peak_rss_mb is the peak of the whole process, not of one unit: VmHWM cannot be reset (%v)", err))
		}
		t0 := time.Now()
		var err error
		if inst, err = w.prepare(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		u, err := inst.unit()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up unit: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.absorb(u)
		peak, err := peakRSSMB()
		if err != nil {
			inst.close()
			return nil, err
		}
		peaks = append(peaks, peak)
		if e.smoke {
			break
		}
	}
	defer inst.close()
	if inst.oracle != nil {
		if err := inst.oracle(); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}

	var walls, latencies, rates []float64
	var items int
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	for start := time.Now(); ; {
		// Collect, release and read the allocator's counters outside the
		// timed region: ReadMemStats stops the world.
		_ = resetPeakRSS() // a refusal is noted once, above
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		u, err := inst.unit()
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		peak, perr := peakRSSMB()
		if err = errors.Join(err, perr); err != nil {
			return nil, fmt.Errorf("unit %d: %w", len(walls), err)
		}
		rep.absorb(u)
		peaks = append(peaks, peak)
		walls = append(walls, wall)
		rates = append(rates, float64(u.items)/wall)
		latencies = append(latencies, u.latencies...)
		items += u.items
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		if e.smoke || (len(walls) >= minUnits && time.Since(start).Seconds() >= e.seconds) {
			break
		}
	}
	rep.Units = len(walls)
	if latencies == nil {
		latencies = walls
	}
	sampled := func(name, unit string, xs []float64) {
		s := summarize(xs)
		rep.Metrics[name] = metricValue{Value: s.Median, Unit: unit, Summary: &s}
	}
	sampled("setup_s", "s", setups)
	sampled("verdict_s", "s", latencies)
	sampled("work_per_s", "1/s", rates)
	rep.Metrics["allocs_per_item"] = metricValue{Value: float64(mallocs) / float64(items), Unit: "count"}
	rep.Metrics["alloc_bytes_per_item"] = metricValue{Value: float64(bytes) / float64(items), Unit: "B"}
	sampled("peak_rss_mb", "MB", peaks)
	return rep, nil
}

// traced is the instrumented run: the workload's trace function measures
// what it can, every other per-layer metric reads 0, and the spans go to
// outDir/trace-<workload>.json.
func traced(w workload, e *env, outDir string) (*report, error) {
	rep := &report{Workload: w.name, Traced: true, Seed: e.seed, Host: host(), Metrics: map[string]metricValue{}}
	rec := &recorder{}
	var inst *instance
	var err error
	prepare := rec.timed(0, "prepare", "set-up", func() { inst, err = w.prepare(e) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	inst.close()
	lm, err := w.trace(e, rec, rep)
	if err != nil {
		return nil, err
	}
	lm["bench.prepare_s"] = prepare
	lm["bench.failed_share"] = float64(rep.Failed) / float64(rep.Attempted)
	for _, m := range perLayer {
		rep.Metrics[m.Name] = metricValue{Value: lm[m.Name], Unit: m.Unit}
		delete(lm, m.Name)
	}
	for name := range lm {
		return nil, fmt.Errorf("trace of %s reports %q, which the catalogue does not list", w.name, name)
	}
	if rep.SpanFile, err = rec.write(outDir, w.name, e.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// pairs alternates a bare unit (the one the untraced run times) and an
// instrumented unit — which goes first flips every pair, so the slow drift
// of a shared host cancels — until e.seconds have passed since start, at
// least twice. It returns each pair's instrumented÷bare wall-time ratio.
func pairs(e *env, start time.Time, rep *report, bare func() (unitResult, error), instrumented func(i int) (float64, error)) ([]float64, error) {
	var ratios []float64
	for i := 0; ; i++ {
		var b, t float64
		var err error
		for _, runBare := range []bool{i%2 == 0, i%2 != 0} {
			if runBare {
				var u unitResult
				runtime.GC()
				t0 := time.Now()
				u, err = bare()
				b = time.Since(t0).Seconds()
				rep.absorb(u)
			} else {
				t, err = instrumented(i)
			}
			if err != nil {
				return nil, err
			}
		}
		ratios = append(ratios, t/b)
		if e.smoke || (i >= 1 && time.Since(start).Seconds() >= e.seconds) {
			return ratios, nil
		}
	}
}

// resetPeakRSS hands freed memory back to the operating system and resets
// the kernel's high-water mark to what is left, so that the next reading
// of VmHWM is the peak of what runs in between, not of everything the
// process did before. Where the kernel refuses the reset it returns the
// refusal: VmHWM then stays the process-wide peak, an upper bound that means
// something else, and the report says so.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}
