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
// The specs, their params and their post-checks come from the spec
// catalogue (internal/specs), which the checking service checkd reads too:
// one params table, one rule and one refusal text for both front ends.
// Zero means a param's default; a negative or over-bound value is a usage
// error. The table (see README "Spec params"):
//
//	-nodes     raftmongo-v1/-v2   0 = 3   1..5 (raftmongo.MaxNodes)
//	-max-term  raftmongo-v1/-v2   0 = 3   1..32767 (raftmongo.MaxValue)
//	-max-log   raftmongo-v1/-v2   0 = 3   1..32767 (raftmongo.MaxValue)
//	-actors    locking            0 = 2   1..8 (locking.MaxActors)
//	-symmetry  raftmongo, locking         refused on arrayot
//
// A run does what its flags say or is refused before it explores anything:
// -por on a spec that declares no transition independence and -liveness
// with -por are errors, not warnings.
//
// Exit status: 0 when the run passes (or was interrupted cleanly), 1 on a
// negative verdict (an invariant violation or a liveness failure, after the
// report and any -dot dump) and on run errors, 2 on usage errors (an
// unknown spec and a refused param included).
//
// Usage:
//
//	minitlc -spec raftmongo-v1|raftmongo-v2|arrayot|locking \
//	        [-nodes N] [-max-term N] [-max-log N] [-actors N] \
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cliobs"
	"repro/internal/specs"
	"repro/internal/tla"
)

// config is minitlc's command line: the spec, its params, the post-checks
// and the engine options the flags set. The spec, its params and
// PartialOrder shape the explored state space; a resumed run must use the
// checkpointing run's values, so they round-trip through the checkpoint's
// metadata blob.
type config struct {
	spec      string
	params    specs.Params
	liveness  bool
	dot       string
	opts      tla.Options
	deadline  time.Duration
	progEvery time.Duration
	journal   string
}

// sizes returns the int params by their checkpoint metadata keys.
func (c *config) sizes() map[string]*int {
	return map[string]*int{"nodes": &c.params.Nodes, "max-term": &c.params.MaxTerm, "max-log": &c.params.MaxLog, "actors": &c.params.Actors}
}

func (c config) meta() map[string]string {
	m := map[string]string{"spec": c.spec, "symmetry": strconv.FormatBool(c.params.Symmetry), "por": strconv.FormatBool(c.opts.PartialOrder)}
	for key, v := range c.sizes() {
		m[key] = strconv.Itoa(*v)
	}
	return m
}

// fromMeta restores the spec flags of a checkpointed run.
func (c *config) fromMeta(meta map[string]string) error {
	var ok bool
	if c.spec, ok = meta["spec"]; !ok {
		return errors.New("checkpoint metadata is missing the spec name (not written by minitlc?)")
	}
	for key, v := range c.sizes() {
		n, err := strconv.Atoi(meta[key])
		if err != nil {
			return fmt.Errorf("checkpoint metadata %s=%q: %v", key, meta[key], err)
		}
		*v = n
	}
	c.params.Symmetry = meta["symmetry"] == "true"
	c.opts.PartialOrder = meta["por"] == "true" // absent in pre-POR checkpoints: false
	return nil
}

// resolve looks c's spec up in the catalogue and replaces c's params by
// the ones the spec runs with; an unknown spec or a refused param is a
// usage error.
func (c *config) resolve() (*specs.Entry, error) {
	e, err := specs.Lookup(c.spec)
	if err != nil {
		return nil, err
	}
	c.params, err = e.Resolve(c.params)
	return e, err
}

func main() {
	var c config
	flag.StringVar(&c.spec, "spec", "raftmongo-v1", "specification: "+strings.Join(specs.Names(), ", "))
	flag.IntVar(&c.params.Nodes, "nodes", 0, "replica-set size (raftmongo; 0 = the default)")
	flag.IntVar(&c.params.MaxTerm, "max-term", 0, "term bound (raftmongo; 0 = the default)")
	flag.IntVar(&c.params.MaxLog, "max-log", 0, "oplog length bound (raftmongo; 0 = the default)")
	flag.IntVar(&c.params.Actors, "actors", 0, "actor count (locking; 0 = the default)")
	flag.StringVar(&c.dot, "dot", "", "write the state graph as DOT to this file")
	flag.BoolVar(&c.liveness, "liveness", false, "check the commit-point-propagation liveness property (raftmongo)")
	flag.IntVar(&c.opts.Workers, "workers", 0, "checker worker goroutines (0 = GOMAXPROCS); a speed setting only: every count gives the same result")
	flag.BoolVar(&c.params.Symmetry, "symmetry", false, "symmetry reduction over interchangeable identities (raftmongo nodes, locking actors; a usage error on arrayot)")
	flag.BoolVar(&c.opts.PartialOrder, "por", false, "ample-set partial-order reduction for specs that declare transition independence (raftmongo, locking; an error on arrayot and with -liveness); composes with -symmetry, -workers, -mem-budget and -checkpoint")
	flag.Int64Var(&c.opts.MemoryBudgetBytes, "mem-budget", 0, "approximate visited-set bytes before the fingerprints spill to one sorted run on disk; a budget also keeps discovered states as encoded bytes in an arena whose segments spill past it (0 = fully resident, live values)")
	flag.StringVar(&c.opts.CheckpointDir, "checkpoint", "", "write a resumable checkpoint to this directory on interrupt (and periodically with -checkpoint-every); retains states in the arena, as -mem-budget does")
	flag.IntVar(&c.opts.CheckpointEvery, "checkpoint-every", 0, "additionally checkpoint every N BFS levels (0 = only on interrupt; needs -checkpoint)")
	flag.StringVar(&c.opts.ResumeFrom, "resume", "", "resume the run checkpointed in this directory (spec flags are restored from the checkpoint); retains states in the arena and, unless -checkpoint says otherwise, further checkpoints go to the same directory")
	flag.DurationVar(&c.deadline, "deadline", 0, "wall-clock bound on the run, e.g. 90s or 10m (0 = none); a run over the deadline stops like an interrupt — partial statistics, and a resumable checkpoint under -checkpoint")
	flag.DurationVar(&c.progEvery, "progress-every", 0, "print a one-line status to stderr this often, e.g. 5s (0 = off)")
	flag.StringVar(&c.journal, "journal", "", "append the run journal (JSONL, one event per level plus checkpoint/retry/degrade/verdict) to this file")
	flag.Parse()

	// ^C / SIGTERM stop the checker cooperatively: the run winds down at
	// the next stop point, prints its partial statistics, and — when
	// checkpointing — seals a resumable checkpoint. A second signal kills
	// the process the usual way (stop() restores default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, c); err != nil {
		if errors.Is(err, errFailed) {
			os.Exit(1) // the report is already on stdout
		}
		fmt.Fprintln(os.Stderr, "minitlc:", err)
		if isUsage(err) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks flag combinations minitlc refuses.
var errUsage = errors.New("usage")

// isUsage reports whether err exits 2 like the flag package's own usage
// errors: a refused flag combination, an unknown spec or a refused param.
func isUsage(err error) bool {
	return errors.Is(err, errUsage) || errors.Is(err, specs.ErrUnknownSpec) || errors.Is(err, specs.ErrParams)
}

// errFailed marks a negative verdict: run returns it after printing the
// report and writing any -dot dump, and main exits 1 without repeating it.
var errFailed = errors.New("negative verdict")

func run(ctx context.Context, c config) error {
	if resume := c.opts.ResumeFrom; resume != "" {
		// The checkpoint knows which state space it explored; the resumed
		// run must rebuild the identical spec, so its metadata overrides
		// the spec flags.
		info, err := tla.ReadCheckpointInfo(resume)
		if err != nil {
			return err
		}
		if err := c.fromMeta(info.Meta); err != nil {
			return err
		}
		if c.opts.CheckpointDir == "" {
			c.opts.CheckpointDir = resume // keep checkpointing where the run left off
		}
		fmt.Printf("resuming %s from %s: %d distinct states, %d transitions, depth %d, %d levels\n",
			info.Spec, resume, info.Distinct, info.Transitions, info.Depth, info.Levels)
	}
	if c.opts.PartialOrder && c.liveness {
		// CheckEventuallyWithin walks the recorded graph; POR records only
		// the reduced edge set, which under-approximates reachability from
		// intermediate states and can produce bogus liveness verdicts.
		return fmt.Errorf("%w: -liveness needs the full state graph, which -por prunes; drop one of the two", errUsage)
	}
	spec, err := c.resolve()
	if err != nil {
		return err
	}
	if c.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.deadline)
		defer cancel()
	}
	c.opts.Context = ctx
	c.opts.CheckpointMeta = c.meta()
	if c.progEvery > 0 {
		// Status goes to stderr only: stdout (verdict, DOT announcements)
		// stays pipeable.
		c.opts.Progress = cliobs.NewPrinter(os.Stderr, "minitlc", c.opts.MemoryBudgetBytes).Observe
		c.opts.ProgressEvery = c.progEvery
	}
	if c.journal != "" {
		jf, err := os.OpenFile(c.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening journal: %w", err)
		}
		defer jf.Close()
		c.opts.JournalWriter = jf
	}
	sum, err := spec.Run(c.params, c.opts, specs.Checks{Liveness: c.liveness, DOT: c.dot})
	return report(c, sum, err)
}

// report prints a run's summary and returns run's result: nil for a pass
// or a clean interrupt, errFailed for a negative verdict, else err.
func report(c config, sum *specs.Summary, err error) error {
	if sum == nil {
		return err
	}
	if sum.DegradedMemory {
		fmt.Fprintln(os.Stderr, "minitlc: warning: a persistent I/O failure disabled disk spilling; results are exact but -mem-budget was not honoured (DegradedMemory)")
	}
	if c.opts.PartialOrder {
		fmt.Printf("partial-order reduction: %d ample states, %d transitions deferred\n", sum.AmpleStates, sum.DeferredTransitions)
	}
	if sum.Verdict == "" {
		// A clean interrupt is a successful partial run — unless a
		// requested checkpoint could not be written, which the joined
		// error reports and the missing CheckpointPath confirms.
		if !sum.Interrupted || !errors.Is(err, tla.ErrInterrupted) || (c.opts.CheckpointDir != "" && sum.CheckpointPath == "") {
			return err
		}
		fmt.Printf("%s: interrupted after %d distinct states, %d transitions, depth %d (%.2fs)\n",
			sum.Spec, sum.Distinct, sum.Transitions, sum.Depth, sum.Elapsed.Seconds())
		if sum.CheckpointPath != "" {
			fmt.Printf("checkpoint written to %s — continue with: minitlc -resume %s\n", sum.CheckpointPath, sum.CheckpointPath)
		}
		return nil
	}
	if v := sum.Violation; v != nil {
		fmt.Printf("%s: invariant %s VIOLATED: %s\n", sum.Spec, v.Invariant, v.Error)
		fmt.Printf("counterexample (%d steps):\n", len(v.Trace)-1)
		for i, key := range v.Trace {
			act := "<init>"
			if i > 0 {
				act = v.TraceActs[i-1]
			}
			fmt.Printf("  %2d %-45s %s\n", i, act, key)
		}
	} else {
		fmt.Printf("%s: %d distinct states, %d transitions, depth %d, %d terminal (%.2fs)\n",
			sum.Spec, sum.Distinct, sum.Transitions, sum.Depth, sum.Terminal, sum.Elapsed.Seconds())
		// The visited set trusts 64-bit fingerprints at every worker
		// count, so print TLC's estimate of what that risks: N distinct
		// states collide with probability about N²/2⁶⁵.
		n := float64(sum.Distinct)
		fmt.Printf("fingerprint collision probability (optimistic): %.1e\n", n*n/math.Exp2(65))
	}
	switch sum.Liveness {
	case "ok":
		fmt.Println("liveness: commit point is eventually propagated — OK")
	case "failed":
		fmt.Printf("liveness FAILED: state %q cannot reach agreement\n", sum.Stuck)
	}
	if sum.Cases > 0 {
		fmt.Printf("terminal states (generated test cases): %d\n", sum.Cases)
	}
	if err != nil {
		return err
	}
	if c.dot != "" {
		fmt.Printf("state graph written to %s (%d nodes, %d edges)\n", c.dot, sum.GraphNodes, sum.GraphEdges)
	}
	if sum.Violation != nil || sum.Liveness == "failed" {
		return errFailed
	}
	return nil
}
