// Command mbtcg runs the model-based test-case generation pipeline of the
// paper's §5: it model-checks the array_ot specification, dumps the state
// graph to a DOT file, derives one test case per terminal state of the
// checker's graph (4,913 under the paper's configuration), runs the cases against
// both the reference and the independent OT implementation, and prints the
// branch-coverage table of §5.2. -schedule worksteal with -mem-budget is
// refused before the exploration starts: the spilling visited set needs
// BFS levels, which the barrier-free schedule does not have.
//
// Exit status: 0 when both implementations pass every generated case, 1
// when either fails one (after the report, -emit and -coverage) and on run
// errors, 2 on usage errors.
//
// Usage:
//
//	mbtcg [-dot array_ot.dot] [-emit generated_test.go] [-coverage] [-workers N] [-mem-budget BYTES] \
//	      [-schedule levelsync|worksteal] [-arena] [-deadline DUR] [-progress-every DUR] [-journal FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/arrayot"
	"repro/internal/cliobs"
	"repro/internal/coverage"
	"repro/internal/fuzzer"
	"repro/internal/mbtcg"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

func main() {
	var (
		dotPath   = flag.String("dot", "array_ot.dot", "state-graph DOT output path")
		emitPath  = flag.String("emit", "", "write the generated cases as a Go test file")
		withCov   = flag.Bool("coverage", false, "print the §5.2 coverage comparison table")
		workers   = flag.Int("workers", 0, "model-checker worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		memBudget = flag.Int64("mem-budget", 0, "approximate visited-set bytes before the fingerprints spill to one sorted run on disk (0 = fully resident)")
		schedule  = flag.String("schedule", "levelsync", "exploration schedule: levelsync or level-sync (deterministic BFS and DOT output), worksteal or work-steal (barrier-free; same cases, nondeterministic graph order; an error with -mem-budget)")
		arena     = flag.Bool("arena", false, "serve the state graph from the checker's encoded-state arena instead of live values (with -mem-budget it spills to disk, so generation runs on graphs that never fit in RAM)")
		deadline  = flag.Duration("deadline", 0, "wall-clock bound on the exploration, e.g. 90s or 10m (0 = none); generation needs the complete graph, so an over-deadline run aborts with the partial-state count")
		progEvery = flag.Duration("progress-every", 0, "print a one-line exploration status to stderr this often, e.g. 5s (0 = off); works under both schedules")
		journal   = flag.String("journal", "", "append the exploration's run journal (JSONL) to this file")
	)
	flag.Parse()
	// First signal stops the model checker cooperatively; generation needs
	// the complete state graph, so an interrupted exploration aborts the
	// pipeline with the partial-state count. A second signal kills normally.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *dotPath, *emitPath, *withCov, *workers, *memBudget, *schedule, *arena, *deadline, *progEvery, *journal); err != nil {
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, "mbtcg:", err)
		}
		os.Exit(1)
	}
}

// errFailed marks a negative verdict: run returns it after printing the
// report, and main exits 1 without repeating it.
var errFailed = errors.New("negative verdict")

func run(ctx context.Context, dotPath, emitPath string, withCov bool, workers int, memBudget int64, schedule string, arena bool, deadline time.Duration, progEvery time.Duration, journal string) error {
	sched, err := tla.ParseSchedule(schedule)
	if err != nil {
		return err
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	opts := tla.Options{Workers: workers, MemoryBudgetBytes: memBudget, Schedule: sched, StateArena: arena, Context: ctx}
	if progEvery > 0 {
		opts.Progress = cliobs.NewPrinter(os.Stderr, "mbtcg", memBudget).Observe
		opts.ProgressEvery = progEvery
	}
	if journal != "" {
		jf, err := os.OpenFile(journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		defer jf.Close()
		opts.JournalWriter = jf
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if sched == tla.ScheduleWorkSteal {
		fmt.Fprintln(os.Stderr, "mbtcg: note: worksteal generates the same cases but numbers graph states nondeterministically; diff DOT output across runs only under levelsync")
	}
	cases, res, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), dotPath, opts)
	if err != nil {
		return err
	}
	fmt.Printf("model checked array_ot: %d distinct states; generated %d test cases (paper: 4,913)\n",
		res.Distinct, len(cases))

	failed := false
	if ms := mbtcg.RunAll(cases, ot.NewTransformer(nil, false)); len(ms) != 0 {
		failed = true
		fmt.Printf("reference implementation FAILED %d cases; first: %s\n", len(ms), ms[0])
	} else {
		fmt.Println("reference implementation: all generated cases pass")
	}
	if ms := mbtcg.RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		failed = true
		fmt.Printf("independent implementation FAILED %d cases; first: %s\n", len(ms), ms[0])
	} else {
		fmt.Println("independent implementation: all generated cases pass (C++/Go parity)")
	}

	if emitPath != "" {
		f, err := os.Create(emitPath)
		if err != nil {
			return err
		}
		if err := mbtcg.EmitGoTests(f, "generated", "repro/internal/ot", cases); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("generated test file written to %s\n", emitPath)
	}

	if withCov {
		handReg := coverage.NewRegistry()
		if err := mbtcg.RunWorkloads(mbtcg.HandwrittenCases(), ot.NewTransformer(handReg, false)); err != nil {
			return err
		}
		fuzzReg := coverage.NewRegistry()
		fcfg := fuzzer.DefaultTransformConfig()
		frep := fuzzer.FuzzTransform(fcfg, ot.NewTransformer(fuzzReg, false))
		genReg := coverage.NewRegistry()
		if ms := mbtcg.RunAll(cases, ot.NewTransformer(genReg, false)); len(ms) != 0 {
			return fmt.Errorf("generated cases failed during coverage run: %s", ms[0])
		}
		fmt.Println("\nbranch coverage of the array merge rules (paper: 18/86, 79/86, 86/86):")
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("handwritten (%d tests)", len(mbtcg.HandwrittenCases())), handReg.Report())
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("fuzz-transform (%d execs)", frep.Executions), fuzzReg.Report())
		fmt.Printf("  %-32s %s\n", fmt.Sprintf("generated (%d cases)", len(cases)), genReg.Report())
	}
	if failed {
		return errFailed
	}
	return nil
}
