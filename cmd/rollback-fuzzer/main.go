// Command rollback-fuzzer runs the randomized replica-set test of §4.1
// standalone: partitions, elections, restarts and random writes against a
// (optionally traced) replica set, writing per-node trace logs to files —
// one log file per node, as each mongod writes its own. With -check the
// captured trace is additionally merged and model-based trace-checked
// against the RaftMongo specification (the Figure 1 pipeline's checking
// half, in-process) through mbtc's front end (mbtc.Run), so it prints the
// verdict block mbtc -fuzz prints, with the trace checker's knobs mbtc
// takes: -workers, -deadline and -progress-every.
//
// Usage:
//
//	rollback-fuzzer [-steps 8400] [-seed 7] [-nodes 3] [-out dir] [-flawed] [-sync-before-writes] \
//	                [-check] [-spec v2] [-workers N] [-deadline DUR] [-progress-every DUR]
//
// Exit status: 0 when the run completes (and, with -check, on MBTC PASS or
// a clean interrupt), 1 on MBTC FAIL (after the report) and on run errors,
// 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliobs"
	"repro/internal/fuzzer"
	"repro/internal/mbtc"
	"repro/internal/replset"
	"repro/internal/tla"
)

func main() {
	var (
		steps     = flag.Int("steps", 8400, "fuzzer steps")
		seed      = flag.Int64("seed", 7, "random seed")
		nodes     = flag.Int("nodes", 3, "replica-set size")
		outDir    = flag.String("out", "", "directory for per-node trace logs (tracing off when empty, unless -check)")
		flawed    = flag.Bool("flawed", false, "flawed initial-sync quorum + recent-only initial sync")
		syncFirst = flag.Bool("sync-before-writes", false, "fully sync all followers before writes begin")
		check     = flag.Bool("check", false, "trace-check the captured run against the RaftMongo specification")
		specVar   = flag.String("spec", "v2", "specification variant for -check: v1 (global term) or v2 (gossiped terms)")
		workers   = flag.Int("workers", 0, "trace-checker worker goroutines for -check (0 = GOMAXPROCS, 1 = sequential)")
		deadline  = flag.Duration("deadline", 0, "wall-clock bound on the trace check, e.g. 90s or 10m (0 = none); over-deadline checks stop like an interrupt, with partial results")
		progEvery = flag.Duration("progress-every", 0, "print a one-line trace-checking status (step, frontier) to stderr this often, e.g. 5s (0 = off); applies to -check")
	)
	flag.Parse()
	// First signal stops the trace checker cooperatively (the fuzzer run
	// itself is short); a second one kills the process normally.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *steps, *seed, *nodes, *outDir, *flawed, *syncFirst, *check, *specVar, *workers, *deadline, *progEvery); err != nil {
		if !errors.Is(err, mbtc.ErrFailed) { // a FAIL verdict is already printed
			fmt.Fprintln(os.Stderr, "rollback-fuzzer:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, steps int, seed int64, nodes int, outDir string, flawed, syncFirst, check bool, specVar string, workers int, deadline, progEvery time.Duration) (err error) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	topts := tla.TraceOptions{Workers: workers, Context: ctx}
	if progEvery > 0 {
		topts.Progress = cliobs.NewPrinter(os.Stderr, "rollback-fuzzer", 0).ObserveTrace
		topts.ProgressEvery = progEvery
	}
	if err := topts.Validate(); err != nil {
		return err
	}
	cfg := replset.Config{
		Nodes:                   nodes,
		Seed:                    seed,
		RecentOnlyInitialSync:   flawed,
		FlawedInitialSyncQuorum: flawed,
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		cfg.TraceSinks = make([]io.Writer, nodes)
		for i := range cfg.TraceSinks {
			f, ferr := os.Create(filepath.Join(outDir, fmt.Sprintf("node%d.log", i)))
			if ferr != nil {
				return ferr
			}
			defer func() {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}()
			cfg.TraceSinks[i] = f
		}
	}
	fcfg := fuzzer.RollbackConfig{
		Seed:             seed,
		Nodes:            nodes,
		Steps:            steps,
		SyncBeforeWrites: syncFirst,
		AllowRestarts:    true,
		AllowElections:   true,
	}
	workload := func(c *replset.Cluster) error {
		rep, err := fuzzer.FuzzRollback(fcfg, c)
		if err != nil {
			return err
		}
		fmt.Printf("rollback_fuzzer: %d steps, %d writes, %d elections, %d partitions, %d restarts, %d trace events (paper run: 2,683 events)\n",
			rep.Steps, rep.Writes, rep.Elections, rep.Partitions, rep.Restarts, c.EventCount())
		if outDir != "" {
			fmt.Printf("trace logs in %s\n", outDir)
		}
		return nil
	}
	if check {
		// The captured trace is merged and checked as mbtc -fuzz checks
		// its own run.
		return mbtc.Run(os.Stdout, "rollback_fuzzer", specVar, cfg, workload, topts)
	}
	c, err := replset.New(cfg)
	if err != nil {
		return err
	}
	return workload(c)
}
