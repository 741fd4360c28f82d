// Command benchsuite is the repository's benchmark harness: seven named
// workloads over the checker, the paper's two conformance pipelines and
// the checking service, six end-to-end metrics measured untraced, and a
// per-layer cost model measured by a separate traced run. BENCHMARK.json
// at the repository root describes it; README.md in this directory is the
// metric catalogue.
//
//	benchsuite -workload NAME [-seed 7] [-seconds 8] [-trace 0|1]
//
// runs one workload in this process and prints, last, the one-line JSON
// result the benchmark contract asks for.
//
//	benchsuite [-seed 7] [-seconds 8] [-trace 0|1] [-aa]
//
// runs every workload, each in a child process of its own (a clean VmHWM,
// no garbage-collector cross-talk), and prints every metric by name with
// unit, median, quartiles and sample count. -trace 1 repeats the suite
// instrumented and prints the per-layer metrics; -aa runs the untraced
// suite twice and compares the two.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

func workloads() []workload {
	full := raftmongo.DefaultConfig
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	rcfg := func(smoke, symmetric bool) raftmongo.Config {
		c := full
		if smoke {
			c = small
		}
		c.Symmetric = symmetric
		return c
	}
	v1 := func(smoke bool) *tla.Spec[raftmongo.State] { return raftmongo.SpecV1(rcfg(smoke, false)) }
	return []workload{
		checkWorkload("check-raftmongo",
			"the full RaftMongo V1 exploration, level-synchronized and resident: slice-heavy states and seven actions, so Action.Next and its allocations should be most of the time",
			v1,
			func(*env) tla.Options { return tla.Options{Workers: workers} }),
		checkWorkload("check-locking",
			"same engine, opposite profile: tiny states, two actions, nine successors in ten are duplicates, so encode, fingerprint and claim dominate; the only cover of the work-stealing loop",
			func(smoke bool) *tla.Spec[locking.SpecState] {
				actors := 5
				if smoke {
					actors = 3
				}
				return locking.Spec(locking.SpecConfig{Actors: actors})
			},
			func(*env) tla.Options { return tla.Options{Workers: workers, Schedule: tla.ScheduleWorkSteal} }),
		checkWorkload("check-reduced",
			"RaftMongo V2 with symmetry and partial-order reduction, what a sensible user turns on: orbit canonicalisation and the ample-set planner do work no other workload touches",
			func(smoke bool) *tla.Spec[raftmongo.State] { return raftmongo.SpecV2(rcfg(smoke, true)) },
			func(*env) tla.Options { return tla.Options{Workers: workers, PartialOrder: true} }),
		checkWorkload("check-spill",
			"check-raftmongo under a 500 kB memory budget with the state arena: sorted runs on disk, a merge-join per level, spilled arena segments, so a resident-map gain that costs the spill path shows",
			v1,
			func(e *env) tla.Options {
				budget := int64(500_000)
				if e.smoke {
					budget = 20_000
				}
				return tla.Options{Workers: workers, StateArena: true, MemoryBudgetBytes: budget}
			}),
		traceReplset(),
		mbtcgArrayot(),
		checkdJobs(),
	}
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	smoke    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and end with the one-line JSON result (default: every workload, one child process each)")
	fs.Int64Var(&o.seed, "seed", 7, "the only source of randomness: the order checkd jobs arrive in, the probes' reservoir sampling")
	fs.Float64Var(&o.seconds, "seconds", 8, "how long each workload measures")
	fs.IntVar(&o.trace, "trace", 0, "1: instrumented run, per-layer metrics and a span file; 0: end-to-end metrics")
	fs.BoolVar(&o.aa, "aa", false, "run the untraced suite twice and compare the two runs metric by metric")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny configurations, one unit each: checks the harness, measures nothing")
	fs.StringVar(&o.out, "out", "out", "directory for trace-<workload>.json span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchsuite: unexpected arguments; see -h")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	var err error
	var ok bool
	if o.workload != "" {
		ok, err = runOne(o, stdout)
	} else {
		ok, err = runSuite(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne measures one workload in this process. Everything it writes —
// spill runs, arena segments, DOT dumps, checkd job directories — goes
// under one fresh directory inside the system temp dir, removed on return.
func runOne(o options, stdout io.Writer) (bool, error) {
	var w *workload
	for _, c := range workloads() {
		if c.name == o.workload {
			w = &c
		}
	}
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	exp, err := loadExpected(o.smoke)
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchsuite-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	// The engine creates its spill files in os.TempDir().
	defer os.Setenv("TMPDIR", os.Getenv("TMPDIR"))
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return false, err
	}
	e := &env{seed: o.seed, seconds: o.seconds, smoke: o.smoke, tmp: tmp, exp: exp[w.name]}
	var rep *report
	var defs []metricDef
	if o.trace == 1 {
		rep, err = traced(*w, e, o.out)
		defs = perLayer
	} else {
		rep, err = measure(*w, e)
		defs = endToEnd
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(stdout, rep, defs)
	detail, err := json.Marshal(rep)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", detail)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, d := range defs {
		result.Metrics[d.Name] = value{rep.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep.Failed == 0, nil
}

func printReport(w io.Writer, rep *report, defs []metricDef) {
	h := rep.Host
	fmt.Fprintf(w, "%s: seed %d, %d timed units, %d checked, %d failed; nproc %d, GOMAXPROCS %d, workers %d, %s, commit %s\n",
		rep.Workload, rep.Seed, rep.Units, rep.Attempted, rep.Failed, h.Nproc, h.GOMAXPROCS, h.Workers, h.GoVersion, h.Commit)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %s\n", d.Name, formatMetric(rep.Metrics[d.Name]))
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rep.SpanFile)
	}
}

func formatMetric(m metricValue) string {
	s := fmt.Sprintf("%14.6g %-6s", m.Value, m.Unit)
	if q := m.Summary; q != nil {
		s += fmt.Sprintf(" q1 %.6g  q3 %.6g  n %d", q.Q1, q.Q3, q.N)
		if q.TailP > 0 {
			s += fmt.Sprintf("  p%g %.6g", q.TailP, q.Tail)
		}
	}
	return s
}

// runChildren runs every workload in a child process of this executable
// and returns their reports.
func runChildren(o options, trace int, stderr io.Writer) ([]*report, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	var reps []*report
	ok := true
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(trace), "-out", o.out}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) < 2 {
			return nil, false, fmt.Errorf("%s: no result (%v)", w.name, runErr)
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			return nil, false, fmt.Errorf("%s: reading the child's report: %w", w.name, err)
		}
		ok = ok && runErr == nil
		reps = append(reps, &rep)
	}
	return reps, ok, nil
}

func runSuite(o options, stdout, stderr io.Writer) (bool, error) {
	first, ok, err := runChildren(o, 0, stderr)
	if err != nil {
		return false, err
	}
	for _, rep := range first {
		printReport(stdout, rep, endToEnd)
	}
	if o.aa {
		second, ok2, err := runChildren(o, 0, stderr)
		if err != nil {
			return false, err
		}
		ok = ok && ok2
		printAA(stdout, first, second)
	}
	if o.trace == 1 {
		layers, ok2, err := runChildren(o, 1, stderr)
		if err != nil {
			return false, err
		}
		ok = ok && ok2
		for _, rep := range layers {
			printReport(stdout, rep, perLayer)
		}
	}
	return ok, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAA compares two runs of the same commit: for each metric and
// workload both medians, their ratio, and whether the second is within
// the metric's bound of the first. A pairing that is not is UNRESOLVED —
// the benchmark cannot tell a regression of that size from its own noise.
func printAA(w io.Writer, first, second []*report) {
	fmt.Fprintf(w, "\nA/A: %-16s %-22s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			verdict := "PASS"
			if worsening(d, x, y) > d.Bound || worsening(d, y, x) > d.Bound {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(w, "     %-16s %-22s %14.6g %14.6g %8.4f %6.0f%% %s\n", a.Workload, d.Name, x, y, y/x, d.Bound*100, verdict)
		}
	}
}
