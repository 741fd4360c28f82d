// Command minitlc is the repository's TLC stand-in: it model-checks one of
// the bundled specifications, prints state-space statistics and any
// invariant violation with its counterexample, and can dump the reachable
// state graph as GraphViz DOT.
//
// Long runs are interruptible and resumable: ^C (or SIGTERM) stops the
// checker cooperatively and prints the partial statistics; with
// -checkpoint DIR the interrupted run also seals its state to DIR, and
// -resume DIR continues it later with a verdict and counts identical to an
// uninterrupted run. -checkpoint-every N additionally seals a checkpoint
// every N BFS levels, so even a killed process loses at most N levels.
//
// Usage:
//
//	minitlc -spec raftmongo-v1|raftmongo-v2|arrayot|locking \
//	        [-nodes 3] [-max-term 3] [-max-log 3] [-actors 2] \
//	        [-dot out.dot] [-liveness] [-workers N] [-symmetry] [-por] [-mem-budget BYTES] \
//	        [-schedule levelsync|worksteal] [-arena] \
//	        [-checkpoint DIR] [-checkpoint-every N] [-resume DIR] [-deadline DUR] \
//	        [-progress-every DUR] [-journal FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/arrayot"
	"repro/internal/cliobs"
	"repro/internal/locking"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// specConfig is every flag that shapes the explored state space; a resumed
// run must use the checkpointing run's values, so they round-trip through
// the checkpoint's metadata blob.
type specConfig struct {
	specName string
	nodes    int
	maxTerm  int
	maxLog   int
	actors   int
	symmetry bool
	por      bool
}

func (c specConfig) meta() map[string]string {
	return map[string]string{
		"spec":     c.specName,
		"nodes":    strconv.Itoa(c.nodes),
		"max-term": strconv.Itoa(c.maxTerm),
		"max-log":  strconv.Itoa(c.maxLog),
		"actors":   strconv.Itoa(c.actors),
		"symmetry": strconv.FormatBool(c.symmetry),
		"por":      strconv.FormatBool(c.por),
	}
}

func configFromMeta(meta map[string]string) (specConfig, error) {
	var c specConfig
	var ok bool
	if c.specName, ok = meta["spec"]; !ok {
		return c, errors.New("checkpoint metadata is missing the spec name (not written by minitlc?)")
	}
	var err error
	atoi := func(key string) int {
		if err != nil {
			return 0
		}
		v, aerr := strconv.Atoi(meta[key])
		if aerr != nil {
			err = fmt.Errorf("checkpoint metadata %s=%q: %v", key, meta[key], aerr)
		}
		return v
	}
	c.nodes, c.maxTerm, c.maxLog, c.actors = atoi("nodes"), atoi("max-term"), atoi("max-log"), atoi("actors")
	c.symmetry = meta["symmetry"] == "true"
	c.por = meta["por"] == "true" // absent in pre-POR checkpoints: false
	return c, err
}

func main() {
	var (
		specName  = flag.String("spec", "raftmongo-v1", "specification: raftmongo-v1, raftmongo-v2, arrayot, locking")
		nodes     = flag.Int("nodes", 3, "replica-set size (raftmongo)")
		maxTerm   = flag.Int("max-term", 3, "term bound (raftmongo)")
		maxLog    = flag.Int("max-log", 3, "oplog length bound (raftmongo)")
		actors    = flag.Int("actors", 2, "actor count (locking)")
		dotPath   = flag.String("dot", "", "write the state graph as DOT to this file")
		liveness  = flag.Bool("liveness", false, "check the commit-point-propagation liveness property (raftmongo)")
		workers   = flag.Int("workers", 0, "checker worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		symmetry  = flag.Bool("symmetry", false, "symmetry reduction over interchangeable identities (raftmongo nodes, locking actors)")
		por       = flag.Bool("por", false, "ample-set partial-order reduction for specs that declare transition independence (raftmongo, locking); composes with -symmetry, both schedules, -arena and -mem-budget")
		memBudget = flag.Int64("mem-budget", 0, "approximate visited-set bytes before fingerprint shards spill to sorted runs on disk (0 = fully resident)")
		schedule  = flag.String("schedule", "levelsync", "exploration schedule: levelsync or level-sync (deterministic BFS, shortest counterexamples), worksteal or work-steal (barrier-free, identical verdicts and counts)")
		arena     = flag.Bool("arena", false, "retain discovered states as encoded bytes in an append-only arena instead of live values (cuts retention memory; counterexamples and the -dot/-liveness graph are decoded from the arena)")
		ckDir     = flag.String("checkpoint", "", "write a resumable checkpoint to this directory on interrupt (and periodically with -checkpoint-every); implies -arena")
		ckEvery   = flag.Int("checkpoint-every", 0, "additionally checkpoint every N BFS levels (0 = only on interrupt; needs -checkpoint)")
		resume    = flag.String("resume", "", "resume the run checkpointed in this directory (spec flags are restored from the checkpoint); implies -arena and, unless -checkpoint says otherwise, further checkpoints go to the same directory")
		deadline  = flag.Duration("deadline", 0, "wall-clock bound on the run, e.g. 90s or 10m (0 = none); a run over the deadline stops like an interrupt — partial statistics, and a resumable checkpoint under -checkpoint")
		progEvery = flag.Duration("progress-every", 0, "print a one-line status to stderr this often, e.g. 5s (0 = off); works under both schedules")
		journal   = flag.String("journal", "", "append the run journal (JSONL, one event per level/epoch plus checkpoint/retry/degrade/verdict) to this file")
	)
	flag.Parse()

	// ^C / SIGTERM stop the checker cooperatively: the run winds down at
	// the next stop point, prints its partial statistics, and — when
	// checkpointing — seals a resumable checkpoint. A second signal kills
	// the process the usual way (stop() restores default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := specConfig{specName: *specName, nodes: *nodes, maxTerm: *maxTerm, maxLog: *maxLog, actors: *actors, symmetry: *symmetry, por: *por}
	if err := run(ctx, cfg, *dotPath, *liveness, *workers, *memBudget, *schedule, *arena, *ckDir, *ckEvery, *resume, *deadline, *progEvery, *journal); err != nil {
		fmt.Fprintln(os.Stderr, "minitlc:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg specConfig, dotPath string, liveness bool, workers int, memBudget int64, schedule string, arena bool, ckDir string, ckEvery int, resume string, deadline time.Duration, progEvery time.Duration, journal string) error {
	sched, err := tla.ParseSchedule(schedule)
	if err != nil {
		return err
	}
	if resume != "" {
		// The checkpoint knows which state space it explored; the resumed
		// run must rebuild the identical spec, so its metadata overrides
		// the spec flags.
		info, err := tla.ReadCheckpointInfo(resume)
		if err != nil {
			return err
		}
		cfg, err = configFromMeta(info.Meta)
		if err != nil {
			return err
		}
		if ckDir == "" {
			ckDir = resume // keep checkpointing where the run left off
		}
		fmt.Printf("resuming %s from %s: %d distinct states, %d transitions, depth %d, %d levels\n",
			info.Spec, resume, info.Distinct, info.Transitions, info.Depth, info.Levels)
	}
	if (ckDir != "" || resume != "") && !arena {
		arena = true
		fmt.Fprintln(os.Stderr, "minitlc: note: checkpoint/resume stores states in the encoding arena; -arena enabled")
	}
	if cfg.por && liveness {
		// CheckEventuallyWithin walks the recorded graph; POR records only
		// the reduced edge set, which under-approximates reachability from
		// intermediate states and can produce bogus liveness verdicts.
		cfg.por = false
		fmt.Fprintln(os.Stderr, "minitlc: note: -liveness needs the full state graph; -por disabled for this run")
	}
	opts := tla.Options{
		RecordGraph:       dotPath != "" || liveness,
		Workers:           workers,
		MemoryBudgetBytes: memBudget,
		Schedule:          sched,
		PartialOrder:      cfg.por,
		StateArena:        arena,
		Context:           ctx,
		CheckpointDir:     ckDir,
		CheckpointEvery:   ckEvery,
		ResumeFrom:        resume,
		CheckpointMeta:    cfg.meta(),
	}
	if deadline > 0 {
		opts.Deadline = time.Now().Add(deadline)
	}
	if progEvery > 0 {
		// Status goes to stderr only: stdout (verdict, DOT announcements)
		// stays pipeable. Time-based delivery works under both schedules.
		opts.Progress = cliobs.NewPrinter(os.Stderr, "minitlc", memBudget).Observe
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
	if sched == tla.ScheduleWorkSteal && opts.RecordGraph {
		fmt.Fprintln(os.Stderr, "minitlc: note: worksteal numbers graph states nondeterministically; liveness verdicts are unaffected, but diff DOT output across runs only under levelsync")
	}
	switch cfg.specName {
	case "raftmongo-v1", "raftmongo-v2":
		rcfg := raftmongo.Config{Nodes: cfg.nodes, MaxTerm: cfg.maxTerm, MaxLogLen: cfg.maxLog, Symmetric: cfg.symmetry}
		spec := raftmongo.SpecV1(rcfg)
		if cfg.specName == "raftmongo-v2" {
			spec = raftmongo.SpecV2(rcfg)
		}
		res, err := check(spec, opts)
		if err != nil {
			return err
		}
		if res.Interrupted {
			return nil
		}
		if liveness {
			w := tla.CheckEventuallyWithin(res.Graph, raftmongo.CommitPointsEqual, func(s raftmongo.State) bool {
				return rcfg.Nodes == s.NumNodes() && withinBounds(rcfg, s)
			})
			if w == -1 {
				fmt.Println("liveness: commit point is eventually propagated — OK")
			} else {
				fmt.Printf("liveness FAILED: state %q cannot reach agreement\n", res.Graph.KeyAt(w))
			}
		}
		return dump(res.Graph, dotPath, spec.Name)
	case "arrayot":
		if cfg.symmetry {
			fmt.Fprintln(os.Stderr, "minitlc: note: array_ot has no symmetric identities (clients act in ID order); -symmetry has no effect")
		}
		res, err := check(arrayot.Spec(arrayot.DefaultConfig()), opts)
		if err != nil || res.Interrupted {
			return err
		}
		if res.Graph != nil {
			fmt.Printf("terminal states (generated test cases): %d\n", len(res.Graph.TerminalStates()))
		}
		return dump(res.Graph, dotPath, "array_ot")
	case "locking":
		res, err := check(locking.Spec(locking.SpecConfig{Actors: cfg.actors, Symmetric: cfg.symmetry}), opts)
		if err != nil || res.Interrupted {
			return err
		}
		return dump(res.Graph, dotPath, "Locking")
	}
	return fmt.Errorf("unknown spec %q", cfg.specName)
}

func withinBounds(cfg raftmongo.Config, s raftmongo.State) bool {
	for i := 0; i < s.NumNodes(); i++ {
		if s.Terms[i] > cfg.MaxTerm || len(s.Oplogs[i]) > cfg.MaxLogLen {
			return false
		}
	}
	return true
}

func check[S tla.State](spec *tla.Spec[S], opts tla.Options) (*tla.Result[S], error) {
	start := time.Now()
	res, err := tla.Check(spec, opts)
	elapsed := time.Since(start)
	if res != nil && res.DegradedMemory {
		fmt.Fprintln(os.Stderr, "minitlc: warning: a persistent I/O failure disabled disk spilling; results are exact but -mem-budget was not honoured (DegradedMemory)")
	}
	if res != nil && opts.Schedule == tla.ScheduleWorkSteal && res.Schedule != tla.ScheduleWorkSteal {
		fmt.Fprintf(os.Stderr, "minitlc: warning: -schedule worksteal was downgraded to %s (bounded depth, memory budgets and checkpoint/resume are level-synchronized)\n", res.Schedule)
	}
	if res != nil && opts.PartialOrder && !res.PartialOrder {
		fmt.Fprintln(os.Stderr, "minitlc: note: -por requested but this spec declares no transition independence; the run was unpruned")
	}
	if res != nil && res.PartialOrder {
		fmt.Printf("partial-order reduction: %d ample states, %d transitions deferred\n", res.AmpleStates, res.DeferredTransitions)
	}
	if err != nil {
		switch {
		case res != nil && res.Violation != nil:
			v := res.Violation
			fmt.Printf("%s: invariant %s VIOLATED: %v\n", spec.Name, v.Invariant, v.Err)
			fmt.Printf("counterexample (%d steps):\n", len(v.Trace)-1)
			for i, s := range v.Trace {
				act := "<init>"
				if i > 0 {
					act = v.TraceActs[i-1]
				}
				fmt.Printf("  %2d %-45s %s\n", i, act, s.Key())
			}
			return res, nil
		case res != nil && res.Interrupted && errors.Is(err, tla.ErrInterrupted):
			// A clean interrupt is a successful partial run — unless a
			// requested checkpoint could not be written, which the joined
			// error reports and the missing CheckpointPath confirms.
			if opts.CheckpointDir != "" && res.CheckpointPath == "" {
				return nil, err
			}
			fmt.Printf("%s: interrupted after %d distinct states, %d transitions, depth %d (%.2fs)\n",
				spec.Name, res.Distinct, res.Transitions, res.Depth, elapsed.Seconds())
			if res.CheckpointPath != "" {
				fmt.Printf("checkpoint written to %s — continue with: minitlc -resume %s\n", res.CheckpointPath, res.CheckpointPath)
			}
			return res, nil
		default:
			return nil, err
		}
	}
	fmt.Printf("%s: %d distinct states, %d transitions, depth %d, %d terminal (%.2fs)\n",
		spec.Name, res.Distinct, res.Transitions, res.Depth, res.Terminal, elapsed.Seconds())
	return res, nil
}

// dump writes the state graph as DOT and closes it, releasing any arena
// spill file backing an -arena graph.
func dump[S tla.State](g *tla.Graph[S], path, name string) error {
	if g == nil {
		return nil
	}
	defer g.Close()
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WriteDOT(f, name); err != nil {
		return err
	}
	fmt.Printf("state graph written to %s (%d nodes, %d edges)\n", path, g.Len(), g.NumEdges())
	return nil
}
