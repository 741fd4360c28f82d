// Command rollback-fuzzer runs the randomized replica-set test of §4.1
// standalone: partitions, elections, restarts and random writes against a
// (optionally traced) replica set, writing per-node trace logs to files —
// one log file per node, as each mongod writes its own. With -check the
// captured trace is additionally merged and model-based trace-checked
// against the RaftMongo specification (the Figure 1 pipeline's checking
// half, in-process), with the trace checker's knobs mbtc takes: -workers,
// -deadline and -progress-every.
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
	"bytes"
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
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/trace"
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
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, "rollback-fuzzer:", err)
		}
		os.Exit(1)
	}
}

// errFailed marks a negative verdict: run returns it after printing the
// report, and main exits 1 without repeating it.
var errFailed = errors.New("negative verdict")

func run(ctx context.Context, steps int, seed int64, nodes int, outDir string, flawed, syncFirst, check bool, specVar string, workers int, deadline, progEvery time.Duration) error {
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
	var (
		files []*os.File
		bufs  []*bytes.Buffer
	)
	if outDir != "" || check {
		sinks := make([]io.Writer, nodes)
		if check {
			bufs = make([]*bytes.Buffer, nodes)
			for i := range bufs {
				bufs[i] = &bytes.Buffer{}
				sinks[i] = bufs[i]
			}
		}
		if outDir != "" {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			for i := 0; i < nodes; i++ {
				f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("node%d.log", i)))
				if err != nil {
					return err
				}
				files = append(files, f)
				if sinks[i] != nil {
					sinks[i] = io.MultiWriter(f, sinks[i])
				} else {
					sinks[i] = f
				}
			}
		}
		cfg.TraceSinks = sinks
	}
	c, err := replset.New(cfg)
	if err != nil {
		return err
	}
	fcfg := fuzzer.RollbackConfig{
		Seed:             seed,
		Nodes:            nodes,
		Steps:            steps,
		SyncBeforeWrites: syncFirst,
		AllowRestarts:    true,
		AllowElections:   true,
	}
	rep, err := fuzzer.FuzzRollback(fcfg, c)
	for _, f := range files {
		f.Close()
	}
	if err != nil {
		return err
	}
	fmt.Printf("rollback_fuzzer: %d steps, %d writes, %d elections, %d partitions, %d restarts, %d trace events (paper run: 2,683 events)\n",
		rep.Steps, rep.Writes, rep.Elections, rep.Partitions, rep.Restarts, c.EventCount())
	if outDir != "" {
		fmt.Printf("trace logs in %s\n", outDir)
	}
	if !check {
		return nil
	}
	return checkTrace(nodes, bufs, specVar, topts)
}

// checkTrace merges the per-node logs and runs the trace checker — the
// same path mbtc -fuzz takes, minus the second fuzzer run.
func checkTrace(nodes int, bufs []*bytes.Buffer, specVar string, topts tla.TraceOptions) error {
	streams := make([][]trace.Event, nodes)
	for i, b := range bufs {
		evs, err := trace.ReadEvents(bytes.NewReader(b.Bytes()))
		if err != nil {
			return err
		}
		streams[i] = evs
	}
	merged, err := trace.Merge(streams)
	if err != nil {
		return err
	}
	ccfg := mbtc.CheckConfig(nodes)
	var spec *tla.Spec[raftmongo.State]
	switch specVar {
	case "v1":
		spec = raftmongo.SpecV1(ccfg)
	case "v2":
		spec = raftmongo.SpecV2(ccfg)
	default:
		return fmt.Errorf("unknown spec variant %q", specVar)
	}
	crep, err := mbtc.CheckEventsOpts(nodes, merged, spec, topts)
	if err != nil {
		if crep != nil && crep.Interrupted && errors.Is(err, tla.ErrInterrupted) {
			fmt.Printf("trace check against RaftMongo %s: interrupted after matching %d of %d events (no divergence so far)\n",
				specVar, crep.Checked, crep.Events)
			return nil
		}
		return err
	}
	fmt.Printf("trace check against RaftMongo %s: %d events, %d oplog prefix fills, max frontier %d\n",
		specVar, crep.Events, crep.PrefixFills, crep.MaxFrontier)
	fmt.Println(crep.GuidedSummary())
	if crep.OK {
		fmt.Println("MBTC PASS: the trace is a behaviour of the specification")
		return nil
	}
	fmt.Printf("MBTC FAIL: trace diverges at step %d of %d (%s)\n", crep.FailedStep, crep.Events, crep.FailedEvent)
	return errFailed
}
