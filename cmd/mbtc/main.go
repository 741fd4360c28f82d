// Command mbtc runs the model-based trace-checking pipeline of the paper's
// Figure 1: it executes a scenario (or the rollback fuzzer) on a traced
// replica set, merges the per-node trace logs, post-processes them into a
// state sequence, and checks the sequence against a RaftMongo
// specification variant.
//
// Usage:
//
//	mbtc -scenario write_3_and_replicate [-spec v2] [-list] [-workers N] [-deadline DUR] [-progress-every DUR]
//	mbtc -fuzz [-steps 400] [-seed 7] [-sync-before-writes] [-flawed]
//
// Exit status: 0 on MBTC PASS (or a clean interrupt), 1 on MBTC FAIL (after
// the report) and on run errors, 2 on usage errors.
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

	"repro/internal/cliobs"
	"repro/internal/fuzzer"
	"repro/internal/mbtc"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/scenarios"
	"repro/internal/tla"
)

func main() {
	var (
		scenarioName = flag.String("scenario", "", "run this handwritten scenario")
		list         = flag.Bool("list", false, "list scenarios and exit")
		specVariant  = flag.String("spec", "v2", "specification variant: v1 (global term) or v2 (gossiped terms)")
		fuzz         = flag.Bool("fuzz", false, "run the rollback fuzzer instead of a scenario")
		steps        = flag.Int("steps", 400, "fuzzer steps")
		seed         = flag.Int64("seed", 7, "fuzzer seed")
		syncFirst    = flag.Bool("sync-before-writes", false, "fully sync all followers before writes (the paper's mitigation)")
		flawed       = flag.Bool("flawed", false, "enable the flawed initial-sync quorum rule and recent-only initial sync")
		workers      = flag.Int("workers", 0, "trace-checker worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		deadline     = flag.Duration("deadline", 0, "wall-clock bound on the run, e.g. 90s or 10m (0 = none); over-deadline runs stop like an interrupt, with partial results")
		progEvery    = flag.Duration("progress-every", 0, "print a one-line trace-checking status (step, frontier) to stderr this often, e.g. 5s (0 = off)")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenarios.All() {
			compat := ""
			if sc.TracingIncompatible {
				compat = " (tracing-incompatible)"
			}
			fmt.Printf("  %s%s\n", sc.Name, compat)
		}
		return
	}
	// First signal stops the checker cooperatively (partial result printed);
	// a second one kills the process through the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *scenarioName, *specVariant, *fuzz, *steps, *seed, *syncFirst, *flawed, *workers, *deadline, *progEvery); err != nil {
		if !errors.Is(err, errFailed) {
			fmt.Fprintln(os.Stderr, "mbtc:", err)
		}
		os.Exit(1)
	}
}

// errFailed marks a negative verdict: run returns it after printing the
// report, and main exits 1 without repeating it.
var errFailed = errors.New("negative verdict")

func run(ctx context.Context, scenarioName, specVariant string, fuzz bool, steps int, seed int64, syncFirst, flawed bool, workers int, deadline, progEvery time.Duration) error {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	topts := tla.TraceOptions{Workers: workers, Context: ctx}
	if progEvery > 0 {
		topts.Progress = cliobs.NewPrinter(os.Stderr, "mbtc", 0).ObserveTrace
		topts.ProgressEvery = progEvery
	}
	if err := topts.Validate(); err != nil {
		return err
	}
	var (
		cfg      replset.Config
		workload func(*replset.Cluster) error
		label    string
	)
	switch {
	case fuzz:
		fcfg := fuzzer.DefaultRollbackConfig()
		fcfg.Steps = steps
		fcfg.Seed = seed
		fcfg.SyncBeforeWrites = syncFirst
		cfg = replset.Config{
			Nodes:                   fcfg.Nodes,
			Seed:                    seed,
			RecentOnlyInitialSync:   flawed,
			FlawedInitialSyncQuorum: flawed,
		}
		workload = func(c *replset.Cluster) error {
			rep, err := fuzzer.FuzzRollback(fcfg, c)
			if err != nil {
				return err
			}
			fmt.Printf("rollback_fuzzer: %d steps, %d writes, %d elections, %d partitions, %d restarts\n",
				rep.Steps, rep.Writes, rep.Elections, rep.Partitions, rep.Restarts)
			return nil
		}
		label = "rollback_fuzzer"
	case scenarioName != "":
		for _, sc := range scenarios.All() {
			if sc.Name == scenarioName {
				cfg = replset.Config{Nodes: sc.Nodes, Arbiters: sc.Arbiters, Seed: 1}
				workload = sc.Run
				label = sc.Name
				if sc.TracingIncompatible {
					fmt.Println("warning: scenario is marked tracing-incompatible; expect a crash or violation")
				}
			}
		}
		if workload == nil {
			return fmt.Errorf("unknown scenario %q (use -list)", scenarioName)
		}
	default:
		return fmt.Errorf("need -scenario or -fuzz")
	}

	if cfg.Nodes > raftmongo.MaxNodes {
		return fmt.Errorf("%s has %d nodes; the RaftMongo specification checks at most %d (raftmongo.MaxNodes)", label, cfg.Nodes, raftmongo.MaxNodes)
	}
	ccfg := mbtc.CheckConfig(cfg.Nodes)
	var spec *tla.Spec[raftmongo.State]
	switch specVariant {
	case "v1":
		spec = raftmongo.SpecV1(ccfg)
	case "v2":
		spec = raftmongo.SpecV2(ccfg)
	default:
		return fmt.Errorf("unknown spec variant %q", specVariant)
	}

	rep, _, err := mbtc.PipelineOpts(cfg, workload, spec, topts)
	if err != nil {
		if rep != nil && rep.Interrupted && errors.Is(err, tla.ErrInterrupted) {
			fmt.Printf("%s against RaftMongo %s: interrupted after matching %d of %d trace events (no divergence so far)\n",
				label, specVariant, rep.Checked, rep.Events)
			return nil
		}
		return err
	}
	fmt.Printf("%s against RaftMongo %s: %d trace events, %d oplog prefix fills, max frontier %d\n",
		label, specVariant, rep.Events, rep.PrefixFills, rep.MaxFrontier)
	fmt.Println(rep.GuidedSummary())
	if rep.OK {
		fmt.Println("MBTC PASS: the trace is a behaviour of the specification")
		return nil
	}
	fmt.Printf("MBTC FAIL: trace diverges at step %d of %d (%s)\n", rep.FailedStep, rep.Events, rep.FailedEvent)
	return errFailed
}
