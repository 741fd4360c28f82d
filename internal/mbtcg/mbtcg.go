// Package mbtcg implements model-based test-case generation (§5): it runs
// the model checker over the array_ot specification, dumps the reachable
// state graph to a GraphViz DOT file, parses the file back (preserving the
// paper's TLC → DOT → Golang-generator pipeline boundary), and extracts one
// test case per terminal state. Each test case carries:
//
//  1. the initial array,
//  2. the operations each client performed,
//  3. the transformed operations each client applied after merging, and
//  4. the final state of the array,
//
// exactly the four components of the paper's generated C++ test cases
// (Figure 9). The cases can be run in-process against any
// ot.BatchTransformer — the reference implementation or the independent
// otgo engine — and can be emitted as a compilable Go test file.
package mbtcg

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/arrayot"
	"repro/internal/ot"
	"repro/internal/tla"
)

// TestCase is one generated conformance test.
type TestCase struct {
	// Name is a stable identifier derived from the behaviour, in the
	// spirit of Figure 9's Transform_Node__<fingerprint> names.
	Name string
	// Initial is the array every peer starts from.
	Initial []int
	// ClientOps[c] is the operation client c performed locally.
	ClientOps []ot.Op
	// Downloaded[c] are the transformed operations client c applied when
	// merging (the fixture.check_ops assertions).
	Downloaded [][]ot.Op
	// Final is the converged array (the fixture.check_array assertion).
	Final []int
}

// GenerateResult model-checks the specification for cfg, writes the state
// graph as DOT to dotPath (creating the file), parses it back, and extracts
// the generated test cases, sorted by name. The full checker Result rides
// along, so callers can inspect the counters, the effective schedule, or
// the violation. opts are the checker options — worker count, schedule,
// memory budget; RecordGraph is forced on: the pipeline is the graph dump.
// The cases are identical under every option combination the engine
// accepts. With opts.StateArena the graph is served from the checker's
// retained-state arena — under a MemoryBudgetBytes it spills to disk, so
// the generation pipeline runs on state graphs that never fit in RAM
// (arrayot.State implements tla.BinaryDecoder). The graph is closed before
// returning, on every path: the DOT file is the pipeline's hand-off
// artifact.
func GenerateResult(cfg arrayot.Config, dotPath string, opts tla.Options) ([]TestCase, *tla.Result[arrayot.State], error) {
	opts.RecordGraph = true
	res, err := tla.Check(arrayot.Spec(cfg), opts)
	if res != nil && res.Graph != nil {
		// A violating run keeps its arena-backed graph; release it too.
		defer res.Graph.Close()
	}
	if err != nil {
		return nil, res, fmt.Errorf("mbtcg: model checking failed: %w", err)
	}
	f, err := os.Create(dotPath)
	if err != nil {
		return nil, res, err
	}
	if err := res.Graph.WriteDOT(f, "array_ot"); err != nil {
		f.Close()
		return nil, res, err
	}
	if err := f.Close(); err != nil {
		return nil, res, err
	}
	rf, err := os.Open(dotPath)
	if err != nil {
		return nil, res, err
	}
	defer rf.Close()
	cases, err := FromDOT(rf, cfg.Initial)
	if err != nil {
		return nil, res, err
	}
	return cases, res, nil
}

// FromDOT parses a DOT state-graph dump of the array_ot specification and
// extracts one test case per terminal (fully synchronized) state.
func FromDOT(r io.Reader, initial []int) ([]TestCase, error) {
	dg, err := tla.ParseDOT(r)
	if err != nil {
		return nil, err
	}
	var cases []TestCase
	for _, id := range dg.Terminal() {
		ps, err := arrayot.ParseKey(dg.Labels[id])
		if err != nil {
			return nil, fmt.Errorf("mbtcg: node %d: %w", id, err)
		}
		tc, err := caseFromState(ps, initial)
		if err != nil {
			return nil, fmt.Errorf("mbtcg: node %d: %w", id, err)
		}
		cases = append(cases, tc)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

func caseFromState(ps *arrayot.ParsedState, initial []int) (TestCase, error) {
	tc := TestCase{
		Initial: append([]int(nil), initial...),
		Final:   append([]int(nil), ps.ServerState...),
	}
	var nameParts []string
	for c, log := range ps.ClientLogs {
		if len(log) == 0 {
			return tc, fmt.Errorf("client %d performed no operation", c)
		}
		own := log[:ps.Performed[c]]
		if len(own) != ps.Performed[c] {
			return tc, fmt.Errorf("client %d log too short", c)
		}
		if len(own) != 1 {
			return tc, fmt.Errorf("client %d performed %d ops, generator expects 1", c, len(own))
		}
		tc.ClientOps = append(tc.ClientOps, own[0])
		tc.Downloaded = append(tc.Downloaded, append([]ot.Op(nil), log[len(own):]...))
		nameParts = append(nameParts, opToken(own[0]))
	}
	tc.Name = "Transform_" + strings.Join(nameParts, "__")
	return tc, nil
}

// opToken renders an op as an identifier fragment.
func opToken(o ot.Op) string {
	switch o.Kind {
	case ot.KindSet:
		return fmt.Sprintf("Set_%d_%d", o.Ndx, o.Value)
	case ot.KindInsert:
		return fmt.Sprintf("Ins_%d_%d", o.Ndx, o.Value)
	case ot.KindMove:
		return fmt.Sprintf("Mov_%d_%d", o.Ndx, o.To)
	case ot.KindSwap:
		return fmt.Sprintf("Swp_%d_%d", o.Ndx, o.To)
	case ot.KindErase:
		return fmt.Sprintf("Ers_%d", o.Ndx)
	case ot.KindClear:
		return "Clr"
	}
	return "Unk"
}

// Mismatch describes one divergence between a test case's expectations and
// an implementation's behaviour.
type Mismatch struct {
	Case   string
	Detail string
}

func (m Mismatch) String() string { return m.Case + ": " + m.Detail }

// Run executes one test case against the given transformer: the clients
// perform their operations, everyone syncs, and the final array, the
// per-client downloaded operations, and convergence are all checked.
// It returns the mismatches (empty means the implementation conforms).
func Run(tc TestCase, tr ot.BatchTransformer) []Mismatch {
	var out []Mismatch
	n := ot.NewNetwork(tr, tc.Initial, len(tc.ClientOps))
	for c, op := range tc.ClientOps {
		if err := n.Perform(c, op); err != nil {
			return append(out, Mismatch{tc.Name, fmt.Sprintf("client %d cannot perform %s: %v", c, op, err)})
		}
	}
	if _, err := n.SyncAll(); err != nil {
		return append(out, Mismatch{tc.Name, fmt.Sprintf("sync failed: %v", err)})
	}
	if !n.Converged() {
		out = append(out, Mismatch{tc.Name, "peers did not converge"})
	}
	if got := n.ServerState(); !intsEqual(got, tc.Final) {
		out = append(out, Mismatch{tc.Name, fmt.Sprintf("final array = %v, want %v", got, tc.Final)})
	}
	for c := range tc.ClientOps {
		hist := n.ClientHistory(c)
		got := hist[1:] // after the client's own single op
		if !opsEqual(got, tc.Downloaded[c]) {
			out = append(out, Mismatch{tc.Name, fmt.Sprintf("client %d applied %v, want %v", c, got, tc.Downloaded[c])})
		}
	}
	return out
}

// RunAll executes every case, returning all mismatches.
func RunAll(cases []TestCase, tr ot.BatchTransformer) []Mismatch {
	var out []Mismatch
	for _, tc := range cases {
		out = append(out, Run(tc, tr)...)
	}
	return out
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func opsEqual(a, b []ot.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
