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
// A run does what its flags say or is refused before it explores anything:
// -por on a spec that declares no transition independence and -liveness
// with -por are errors, not warnings.
//
// Exit status: 0 when the run passes (or was interrupted cleanly), 1 on a
// negative verdict (an invariant violation or a liveness failure, after the
// report and any -dot dump) and on run errors, 2 on usage errors.
//
// Usage:
//
//	minitlc -spec raftmongo-v1|raftmongo-v2|arrayot|locking \
//	        [-nodes 3] [-max-term 3] [-max-log 3] [-actors 2] \
//	        [-dot out.dot] [-liveness] [-workers N] [-symmetry] [-por] [-mem-budget BYTES] \
//	        [-checkpoint DIR] [-checkpoint-every N] [-resume DIR] [-deadline DUR] \
//	        [-progress-every DUR] [-journal FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
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
		workers   = flag.Int("workers", 0, "checker worker goroutines (0 = GOMAXPROCS); a speed setting only: every count gives the same result")
		symmetry  = flag.Bool("symmetry", false, "symmetry reduction over interchangeable identities (raftmongo nodes, locking actors; a usage error on arrayot)")
		por       = flag.Bool("por", false, "ample-set partial-order reduction for specs that declare transition independence (raftmongo, locking; an error on arrayot and with -liveness); composes with -symmetry, -workers, -mem-budget and -checkpoint")
		memBudget = flag.Int64("mem-budget", 0, "approximate visited-set bytes before the fingerprints spill to one sorted run on disk; a budget also keeps discovered states as encoded bytes in an arena whose segments spill past it (0 = fully resident, live values)")
		ckDir     = flag.String("checkpoint", "", "write a resumable checkpoint to this directory on interrupt (and periodically with -checkpoint-every); retains states in the arena, as -mem-budget does")
		ckEvery   = flag.Int("checkpoint-every", 0, "additionally checkpoint every N BFS levels (0 = only on interrupt; needs -checkpoint)")
		resume    = flag.String("resume", "", "resume the run checkpointed in this directory (spec flags are restored from the checkpoint); retains states in the arena and, unless -checkpoint says otherwise, further checkpoints go to the same directory")
		deadline  = flag.Duration("deadline", 0, "wall-clock bound on the run, e.g. 90s or 10m (0 = none); a run over the deadline stops like an interrupt — partial statistics, and a resumable checkpoint under -checkpoint")
		progEvery = flag.Duration("progress-every", 0, "print a one-line status to stderr this often, e.g. 5s (0 = off)")
		journal   = flag.String("journal", "", "append the run journal (JSONL, one event per level plus checkpoint/retry/degrade/verdict) to this file")
	)
	flag.Parse()

	// ^C / SIGTERM stop the checker cooperatively: the run winds down at
	// the next stop point, prints its partial statistics, and — when
	// checkpointing — seals a resumable checkpoint. A second signal kills
	// the process the usual way (stop() restores default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := specConfig{specName: *specName, nodes: *nodes, maxTerm: *maxTerm, maxLog: *maxLog, actors: *actors, symmetry: *symmetry, por: *por}
	if err := run(ctx, cfg, *dotPath, *liveness, *workers, *memBudget, *ckDir, *ckEvery, *resume, *deadline, *progEvery, *journal); err != nil {
		if errors.Is(err, errFailed) {
			os.Exit(1) // the report is already on stdout
		}
		fmt.Fprintln(os.Stderr, "minitlc:", err)
		if errors.Is(err, errUsage) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks flag combinations minitlc refuses, which exit 2 like the
// flag package's own usage errors.
var errUsage = errors.New("usage")

// errFailed marks a negative verdict: run returns it after printing the
// report and writing any -dot dump, and main exits 1 without repeating it.
var errFailed = errors.New("negative verdict")

// verdict is run's return for a completed check: dump's error, else
// errFailed when the verdict is negative.
func verdict(dumpErr error, failed bool) error {
	if dumpErr == nil && failed {
		return errFailed
	}
	return dumpErr
}

func run(ctx context.Context, cfg specConfig, dotPath string, liveness bool, workers int, memBudget int64, ckDir string, ckEvery int, resume string, deadline time.Duration, progEvery time.Duration, journal string) error {
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
	if cfg.por && liveness {
		// CheckEventuallyWithin walks the recorded graph; POR records only
		// the reduced edge set, which under-approximates reachability from
		// intermediate states and can produce bogus liveness verdicts.
		return fmt.Errorf("%w: -liveness needs the full state graph, which -por prunes; drop one of the two", errUsage)
	}
	if cfg.symmetry && cfg.specName == "arrayot" {
		return fmt.Errorf("%w: -symmetry: array_ot has no symmetric identities (clients act in ID order)", errUsage)
	}
	if cfg.specName == "locking" && (cfg.actors < 0 || cfg.actors > locking.MaxActors) {
		return fmt.Errorf("%w: -actors %d: the locking spec takes 0..%d actors", errUsage, cfg.actors, locking.MaxActors)
	}
	if (cfg.specName == "raftmongo-v1" || cfg.specName == "raftmongo-v2") && (cfg.nodes < 0 || cfg.nodes > raftmongo.MaxNodes) {
		return fmt.Errorf("%w: -nodes %d: the raftmongo specs take 0..%d nodes", errUsage, cfg.nodes, raftmongo.MaxNodes)
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	opts := tla.Options{
		RecordGraph:       dotPath != "" || liveness,
		Workers:           workers,
		MemoryBudgetBytes: memBudget,
		PartialOrder:      cfg.por,
		Context:           ctx,
		CheckpointDir:     ckDir,
		CheckpointEvery:   ckEvery,
		ResumeFrom:        resume,
		CheckpointMeta:    cfg.meta(),
	}
	if progEvery > 0 {
		// Status goes to stderr only: stdout (verdict, DOT announcements)
		// stays pipeable.
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
		failed := res.Violation != nil
		if liveness {
			w := tla.CheckEventuallyWithin(res.Graph, raftmongo.CommitPointsEqual, func(s raftmongo.State) bool {
				return rcfg.Nodes == s.NumNodes() && withinBounds(rcfg, s)
			})
			if w == -1 {
				fmt.Println("liveness: commit point is eventually propagated — OK")
			} else {
				fmt.Printf("liveness FAILED: state %q cannot reach agreement\n", res.Graph.KeyAt(w))
				failed = true
			}
		}
		return verdict(dump(res.Graph, dotPath, spec.Name), failed)
	case "arrayot":
		res, err := check(arrayot.Spec(arrayot.DefaultConfig()), opts)
		if err != nil || res.Interrupted {
			return err
		}
		if res.Graph != nil {
			fmt.Printf("terminal states (generated test cases): %d\n", len(res.Graph.TerminalStates()))
		}
		return verdict(dump(res.Graph, dotPath, "array_ot"), res.Violation != nil)
	case "locking":
		res, err := check(locking.Spec(locking.SpecConfig{Actors: cfg.actors, Symmetric: cfg.symmetry}), opts)
		if err != nil || res.Interrupted {
			return err
		}
		return verdict(dump(res.Graph, dotPath, "Locking"), res.Violation != nil)
	}
	return fmt.Errorf("unknown spec %q", cfg.specName)
}

func withinBounds(cfg raftmongo.Config, s raftmongo.State) bool {
	for i := 0; i < s.NumNodes(); i++ {
		if int(s.Terms[i]) > cfg.MaxTerm || s.Oplogs[i].Len() > cfg.MaxLogLen {
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
	if res != nil && opts.PartialOrder {
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
	// The visited set trusts 64-bit fingerprints at every worker count, so
	// print TLC's estimate of what that risks: N distinct states collide
	// with probability about N²/2⁶⁵.
	n := float64(res.Distinct)
	fmt.Printf("fingerprint collision probability (optimistic): %.1e\n", n*n/math.Exp2(65))
	return res, nil
}

// dump writes the state graph as DOT and closes it, releasing any arena
// spill file backing the graph.
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
	if err := g.WriteDOT(f, name); err != nil {
		f.Close()
		return err
	}
	// A write the OS deferred can fail at close (ENOSPC, quota): the file
	// is truncated and must not be reported as written.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("state graph written to %s (%d nodes, %d edges)\n", path, g.Len(), g.NumEdges())
	return nil
}
