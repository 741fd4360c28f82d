// Package mbtc implements model-based trace-checking (§4): the full Figure
// 1 pipeline. A replica-set workload runs with trace logging enabled; the
// per-node logs are merged by timestamp; the Python-script-equivalent
// post-processor builds the replica-set state sequence; and the sequence is
// checked against the RaftMongo specification.
//
// The check uses partial observations: each trace event constrains the
// reporting node's four variables (and, for a leader event, every other
// node's role — the one-leader assumption of the processing script), while
// the other nodes' terms, commit points and oplogs remain existentially
// quantified in the checker's frontier. This is Pressler's refinement
// technique [34]: variables the implementation cannot log are left for the
// checker to solve.
package mbtc

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/trace"
)

// NodeObs is the partial observation derived from one trace event: the
// reporting node's specification variables, with the oplog made whole by
// the post-processor when the implementation reported a truncated one.
type NodeObs struct {
	Node        int
	Role        raftmongo.Role
	Term        int16
	CommitPoint raftmongo.CommitPoint
	Oplog       raftmongo.Oplog
	// LeaderExclusive asserts every other node is a follower; set for
	// Leader events, per the processing script's assumption.
	LeaderExclusive bool
	// Actions names the specification actions the event's own action label
	// corresponds to (specActions); nil when the label says nothing. It
	// narrows the checker's search and is never part of the match.
	Actions []string
}

// ActionHints implements tla.GuidedObservation.
func (o NodeObs) ActionHints() []string { return o.Actions }

// specActions is the one place that relates the action label of an
// implementation trace event (replset's traceEvent call sites) to the
// RaftMongo actions that can produce the event. Both variants' names are
// listed; the checker ignores the ones the spec in hand does not declare,
// and a row none of whose names it declares means "any action".
//
// The "any" rows are the §4.2.2 discrepancies. "Term": V1 has one global
// term and no gossip action, so an UpdateTermThroughHeartbeat event has no
// V1 counterpart and is left to full expansion (where it diverges, as the
// paper found). The same discrepancy folds the implementation's two ways
// of learning a commit point into V1's single LearnCommitPoint. A label
// this table does not know — another instrumentation point, a hand-edited
// log, the empty string — is "any" as well. "Copying the oplog" and "two
// leaders" need no row: a prefix-filled initial-sync event is still one
// (multi-entry) AppendOplog, and a second leader diverges under every
// action.
var specActions = map[string][]string{
	"AppendOplog":                   {"AppendOplog"},
	"RollbackOplog":                 {"RollbackOplog"},
	"BecomePrimaryByMagic":          {"BecomePrimaryByMagic"},
	"Stepdown":                      {"Stepdown"},
	"ClientWrite":                   {"ClientWrite"},
	"AdvanceCommitPoint":            {"AdvanceCommitPoint"},
	"UpdateTermThroughHeartbeat":    {"UpdateTermThroughHeartbeat"},
	"LearnCommitPointWithTermCheck": {"LearnCommitPointWithTermCheck", "LearnCommitPoint"},
	"LearnCommitPointFromSyncSourceNeverBeyondLastApplied": {"LearnCommitPointFromSyncSourceNeverBeyondLastApplied", "LearnCommitPoint"},
}

// Matches implements tla.Observation for raftmongo.State.
func (o NodeObs) Matches(s raftmongo.State) bool {
	n := o.Node
	if s.Roles[n] != o.Role || s.Terms[n] != o.Term || s.CommitPoints[n] != o.CommitPoint {
		return false
	}
	if !s.Oplogs[n].Equal(o.Oplog) {
		return false
	}
	if o.LeaderExclusive {
		for j, r := range s.Roles[:s.Nodes] {
			if j != n && r != raftmongo.Follower {
				return false
			}
		}
	}
	return true
}

func (o NodeObs) String() string {
	return fmt.Sprintf("node %d: %s term=%d cp=%s oplog=%v", o.Node, o.Role, o.Term, o.CommitPoint, o.Oplog)
}

// initObs matches only the canonical initial state.
type initObs struct{ nodes int }

func (o initObs) Matches(s raftmongo.State) bool {
	for i := 0; i < o.nodes; i++ {
		if s.Roles[i] != raftmongo.Follower || s.Terms[i] != 0 ||
			!s.CommitPoints[i].IsNull() || s.Oplogs[i].Len() != 0 {
			return false
		}
	}
	return true
}

func (o initObs) String() string { return "initial state" }

// ObservationsFromProcessed converts a processed state sequence plus its
// source events into checker observations: one initial observation, then
// one partial observation per event. An observation's oplog is the
// processed state's, shared rather than copied: both are immutable, and
// Matches compares it with a candidate's entry by entry, no slice built.
// The NodeObs values live in one block and the observations point into
// it, so the call makes two allocations whatever the event count.
func ObservationsFromProcessed(nodes int, events []trace.Event, res *trace.ProcessResult) []tla.Observation[raftmongo.State] {
	obs := make([]tla.Observation[raftmongo.State], 0, len(events)+1)
	obs = append(obs, initObs{nodes: nodes})
	nobs := make([]NodeObs, len(events))
	for i, e := range events {
		st := res.States[i+1]
		nobs[i] = NodeObs{
			Node:            e.Node,
			Role:            st.Roles[e.Node],
			Term:            st.Terms[e.Node],
			CommitPoint:     st.CommitPoints[e.Node],
			Oplog:           st.Oplogs[e.Node],
			LeaderExclusive: e.Role == "Leader",
			Actions:         specActions[e.Action],
		}
		obs = append(obs, &nobs[i])
	}
	return obs
}

// Report is the outcome of one MBTC pipeline run.
type Report struct {
	Events        int
	PrefixFills   int
	Checked       int // observations matched
	OK            bool
	FailedStep    int    // -1 when OK
	FailedEvent   string // the event that diverged, when !OK
	MaxFrontier   int
	StatesVisited []int // frontier sizes per step
	// GuidedSteps, HintFallbacks and Rechecked are the checker's account of
	// how far the events' action labels carried it (tla.TraceResult): steps
	// expanded by the labelled action only, those of them re-expanded in
	// full because the label matched nothing, and whether a guided
	// divergence made it check the whole trace again unguided — in which
	// case every other field describes that unguided run.
	GuidedSteps   int
	HintFallbacks int
	Rechecked     bool
	// Interrupted reports that the checker stopped early because
	// TraceOptions.Context was canceled (or its deadline passed): Checked
	// observations were matched before the stop and the trace did not
	// diverge — it was not finished. The companion error wraps
	// tla.ErrInterrupted.
	Interrupted bool
}

// CheckEventsOpts runs the post-processor and the trace checker over merged
// events against the given specification variant. topts are the
// trace-checker options — worker count, cancellation, progress; the zero
// value checks with GOMAXPROCS workers. Options the frontier method cannot
// honour (symmetry: observations name concrete nodes) do not exist on
// TraceOptions by construction.
func CheckEventsOpts(nodes int, events []trace.Event, spec *tla.Spec[raftmongo.State], topts tla.TraceOptions) (*Report, error) {
	processed, err := trace.Process(nodes, events, trace.ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		return nil, fmt.Errorf("mbtc: post-processing: %w", err)
	}
	return checkObservations(events, processed, ObservationsFromProcessed(nodes, events, processed), spec, topts)
}

// checkObservations runs the trace checker over obs (the observations of
// events, one initial observation first) and folds its result into a Report.
func checkObservations(events []trace.Event, processed *trace.ProcessResult, obs []tla.Observation[raftmongo.State], spec *tla.Spec[raftmongo.State], topts tla.TraceOptions) (*Report, error) {
	res, checkErr := tla.CheckTraceWith(spec, obs, topts)
	if res == nil { // rejected before exploring anything (invalid options)
		return nil, checkErr
	}
	rep := &Report{
		Events:        len(events),
		PrefixFills:   processed.PrefixFill,
		Checked:       res.Steps,
		OK:            res.OK,
		FailedStep:    res.FailedStep,
		StatesVisited: res.FrontierSizes,
		GuidedSteps:   res.GuidedSteps,
		HintFallbacks: res.HintFallbacks,
		Rechecked:     res.Rechecked,
		Interrupted:   res.Interrupted,
	}
	for _, n := range res.FrontierSizes {
		if n > rep.MaxFrontier {
			rep.MaxFrontier = n
		}
	}
	if !res.OK && res.FailedStep > 0 && res.FailedStep-1 < len(events) {
		e := events[res.FailedStep-1]
		rep.FailedEvent = fmt.Sprintf("%s by node %d at %v", e.Action, e.Node, e.Timestamp)
	}
	var te *tla.TraceError
	if checkErr != nil && !errors.As(checkErr, &te) {
		return rep, checkErr
	}
	return rep, nil // divergence is a result, not a pipeline error
}

// RunTraced constructs a traced cluster, runs the workload, and returns
// the timestamp-merged trace events — the capture half of Figure 1. A node
// whose cfg.TraceSinks entry is set writes its log there too.
func RunTraced(cfg replset.Config, workload func(*replset.Cluster) error) ([]trace.Event, error) {
	if cfg.TraceSinks != nil && len(cfg.TraceSinks) != cfg.Nodes {
		return nil, fmt.Errorf("mbtc: %d trace sinks for %d nodes", len(cfg.TraceSinks), cfg.Nodes)
	}
	bufs := make([]*bytes.Buffer, cfg.Nodes)
	sinks := make([]io.Writer, cfg.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		sinks[i] = bufs[i]
		if cfg.TraceSinks != nil && cfg.TraceSinks[i] != nil {
			sinks[i] = io.MultiWriter(cfg.TraceSinks[i], bufs[i])
		}
	}
	cfg.TraceSinks = sinks
	c, err := replset.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := workload(c); err != nil {
		return nil, fmt.Errorf("mbtc: workload: %w", err)
	}
	streams := make([][]trace.Event, cfg.Nodes)
	for i, b := range bufs {
		evs, rerr := trace.ReadEvents(bytes.NewReader(b.Bytes()))
		if rerr != nil {
			return nil, rerr
		}
		streams[i] = evs
	}
	return trace.Merge(streams)
}

// PipelineOpts runs a traced workload end to end: construct a traced
// cluster, run the workload, collect and merge the logs, post-process, and
// check against the spec. It returns the report plus the merged events (for
// the Trace-module path of package tlatext). topts are the trace-checker
// options, as for CheckEventsOpts — the hook the CLIs thread cancellation
// (TraceOptions.Context wired to SIGINT/SIGTERM) and deadlines through. The
// workload itself is not cancelable — replica-set runs are short — only the
// checking half is.
func PipelineOpts(cfg replset.Config, workload func(*replset.Cluster) error, spec *tla.Spec[raftmongo.State], topts tla.TraceOptions) (*Report, []trace.Event, error) {
	merged, err := RunTraced(cfg, workload)
	if err != nil {
		return nil, nil, err
	}
	rep, err := CheckEventsOpts(cfg.Nodes, merged, spec, topts)
	return rep, merged, err
}

// CheckConfig returns the specification configuration used for trace
// checking: generous bounds, since the frontier method never explores
// beyond the observed behaviour.
func CheckConfig(nodes int) raftmongo.Config {
	return raftmongo.Config{Nodes: nodes, MaxTerm: 100, MaxLogLen: 100}
}

// variantSpec returns the RaftMongo variant a trace of a nodes-node replica
// set is checked against — "v1" (one global term) or "v2" (gossiped
// terms) — under CheckConfig. A spec state holds at most
// raftmongo.MaxNodes nodes.
func variantSpec(variant string, nodes int) (*tla.Spec[raftmongo.State], error) {
	if nodes > raftmongo.MaxNodes {
		return nil, fmt.Errorf("%d-node replica set: the RaftMongo specification checks at most %d nodes (raftmongo.MaxNodes)", nodes, raftmongo.MaxNodes)
	}
	switch variant {
	case "v1":
		return raftmongo.SpecV1(CheckConfig(nodes)), nil
	case "v2":
		return raftmongo.SpecV2(CheckConfig(nodes)), nil
	}
	return nil, fmt.Errorf("unknown spec variant %q", variant)
}

// ErrFailed is what Run returns after printing an MBTC FAIL verdict, so
// that a command can exit 1 without repeating the report.
var ErrFailed = errors.New("mbtc: negative verdict")

// Run is the trace-checking front end the mbtc and rollback-fuzzer
// commands share: it looks up the spec variant, runs the workload on a
// traced cluster, checks the merged trace (PipelineOpts) and prints the
// verdict block to w — a summary line headed by label, the guided line,
// then MBTC PASS or MBTC FAIL, or instead of all three the interrupted
// line of a canceled check. It returns nil on a pass or a clean
// interrupt, ErrFailed after a FAIL, and any other error unprinted.
func Run(w io.Writer, label, variant string, cfg replset.Config, workload func(*replset.Cluster) error, topts tla.TraceOptions) error {
	spec, err := variantSpec(variant, cfg.Nodes)
	if err != nil {
		return err
	}
	rep, _, err := PipelineOpts(cfg, workload, spec, topts)
	if err != nil {
		if rep != nil && rep.Interrupted && errors.Is(err, tla.ErrInterrupted) {
			fmt.Fprintf(w, "%s against RaftMongo %s: interrupted after matching %d of %d trace events (no divergence so far)\n",
				label, variant, rep.Checked, rep.Events)
			return nil
		}
		return err
	}
	fmt.Fprintf(w, "%s against RaftMongo %s: %d trace events, %d oplog prefix fills, max frontier %d\n",
		label, variant, rep.Events, rep.PrefixFills, rep.MaxFrontier)
	fmt.Fprintf(w, "guided: %d steps, %d hint fallbacks, rechecked=%v\n", rep.GuidedSteps, rep.HintFallbacks, rep.Rechecked)
	if rep.OK {
		fmt.Fprintln(w, "MBTC PASS: the trace is a behaviour of the specification")
		return nil
	}
	fmt.Fprintf(w, "MBTC FAIL: trace diverges at step %d of %d (%s)\n", rep.FailedStep, rep.Events, rep.FailedEvent)
	return ErrFailed
}
