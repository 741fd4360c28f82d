// Package mbtcg implements model-based test-case generation (§5): it runs
// the model checker over the array_ot specification, dumps the reachable
// state graph to a GraphViz DOT file (the artifact the paper's TLC run
// produced), and extracts one test case per terminal state straight from
// the checker's recorded graph. FromDOT is the other entry: it parses a
// DOT dump — ours or one produced by TLC — back into the same cases,
// keeping the paper's TLC → DOT → Golang-generator boundary testable. Each
// test case carries:
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
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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
// graph as DOT to dotPath (creating the file), and extracts the generated
// test cases from the checker's graph, sorted by name — one pass over the
// graph, which never re-reads the file it wrote; the cases equal what
// FromDOT extracts from that file. The full checker Result rides along, so
// callers can inspect the counters or the violation. opts are the checker
// options — worker count, memory budget; RecordGraph is forced
// on: the pipeline is the graph dump. The cases are identical under every
// option combination the engine accepts. Under a MemoryBudgetBytes the
// graph is served from the checker's retained-state arena and spills to
// disk, so the generation pipeline runs on state graphs that never fit in
// RAM (arrayot.State implements tla.BinaryDecoder). The graph is closed before returning, on every path:
// the DOT file is the pipeline's export artifact.
func GenerateResult(cfg arrayot.Config, dotPath string, opts tla.Options) ([]TestCase, *tla.Result[arrayot.State], error) {
	opts.RecordGraph = true
	res, err := tla.Check(arrayot.Spec(cfg), opts)
	if res != nil && res.Graph != nil {
		// A violating run keeps its graph (and any spill file); release it too.
		defer res.Graph.Close()
	}
	if err != nil {
		return nil, res, fmt.Errorf("mbtcg: model checking failed: %w", err)
	}
	g := res.Graph
	terminals, err := g.TerminalStates()
	if err != nil {
		return nil, res, fmt.Errorf("mbtcg: reading the state graph: %w", err)
	}
	f, err := os.Create(dotPath)
	if err != nil {
		return nil, res, err
	}
	if err := g.WriteDOT(f, "array_ot"); err != nil {
		f.Close()
		return nil, res, err
	}
	if err := f.Close(); err != nil {
		return nil, res, err
	}
	cases := make([]TestCase, 0, len(terminals))
	for _, id := range terminals {
		s := g.StateAt(id)
		v := s.Net.View()
		tc, err := caseFromState(v.ClientLog, s.Performed, v.ServerState, cfg.Initial)
		if err != nil {
			return nil, res, fmt.Errorf("mbtcg: state %d: %w", id, err)
		}
		cases = append(cases, tc)
	}
	sortCases(cases)
	return cases, res, nil
}

// FromDOT parses a DOT state-graph dump of the array_ot specification and
// extracts one test case per terminal (fully synchronized) state: the
// import path for a dump written elsewhere, such as by TLC.
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
		tc, err := caseFromState(ps.ClientLogs, ps.Performed, ps.ServerState, initial)
		if err != nil {
			return nil, fmt.Errorf("mbtcg: node %d: %w", id, err)
		}
		cases = append(cases, tc)
	}
	sortCases(cases)
	return cases, nil
}

func sortCases(cases []TestCase) {
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
}

// caseFromState builds the test case of one terminal state from its client
// logs, the number of operations each client performed, and the server's
// final array. The case copies what it keeps: Initial and Final into one
// array, every client's downloaded ops into another, and its name into
// one buffer.
func caseFromState(clientLogs [][]ot.Op, performed, final, initial []int) (TestCase, error) {
	ints := append(append(make([]int, 0, len(initial)+len(final)), initial...), final...)
	tc := TestCase{
		Initial: ints[:len(initial):len(initial)],
		Final:   ints[len(initial):],
	}
	if len(performed) != len(clientLogs) {
		return tc, fmt.Errorf("%d clients but %d performed counts", len(clientLogs), len(performed))
	}
	downloads := 0
	for c, log := range clientLogs {
		if len(log) == 0 {
			return tc, fmt.Errorf("client %d performed no operation", c)
		}
		if performed[c] != 1 {
			return tc, fmt.Errorf("client %d performed %d ops, generator expects 1", c, performed[c])
		}
		downloads += len(log) - 1
	}
	tc.ClientOps = make([]ot.Op, len(clientLogs))
	tc.Downloaded = make([][]ot.Op, len(clientLogs))
	ops := make([]ot.Op, 0, downloads)
	name := append(make([]byte, 0, 64), "Transform_"...)
	for c, log := range clientLogs {
		tc.ClientOps[c] = log[0]
		if tail := log[1:]; len(tail) > 0 {
			ops = append(ops, tail...)
			tc.Downloaded[c] = ops[len(ops)-len(tail) : len(ops) : len(ops)]
		}
		if c > 0 {
			name = append(name, "__"...)
		}
		name = appendOpToken(name, log[0])
	}
	tc.Name = string(name)
	return tc, nil
}

// appendOpToken appends an op rendered as an identifier fragment.
func appendOpToken(buf []byte, o ot.Op) []byte {
	switch o.Kind {
	case ot.KindSet:
		return appendInts(append(buf, "Set"...), o.Ndx, o.Value)
	case ot.KindInsert:
		return appendInts(append(buf, "Ins"...), o.Ndx, o.Value)
	case ot.KindMove:
		return appendInts(append(buf, "Mov"...), o.Ndx, o.To)
	case ot.KindSwap:
		return appendInts(append(buf, "Swp"...), o.Ndx, o.To)
	case ot.KindErase:
		return appendInts(append(buf, "Ers"...), o.Ndx)
	case ot.KindClear:
		return append(buf, "Clr"...)
	}
	return append(buf, "Unk"...)
}

// appendInts appends each of xs preceded by an underscore.
func appendInts(buf []byte, xs ...int) []byte {
	for _, x := range xs {
		buf = strconv.AppendInt(append(buf, '_'), int64(x), 10)
	}
	return buf
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
	n := ot.NetworkFromView(tr, replayView(tc.Initial, len(tc.ClientOps)))
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
	// The deployment is this call's own: read it through the copy-free
	// View rather than the copying getters.
	v := n.View()
	if got := v.ServerState; !intsEqual(got, tc.Final) {
		out = append(out, Mismatch{tc.Name, fmt.Sprintf("final array = %v, want %v", got, tc.Final)})
	}
	for c := range tc.ClientOps {
		got := v.ClientLog[c][1:] // after the client's own single op
		if !opsEqual(got, tc.Downloaded[c]) {
			out = append(out, Mismatch{tc.Name, fmt.Sprintf("client %d applied %v, want %v", c, got, tc.Downloaded[c])})
		}
	}
	return out
}

// replayView returns the deployment a case of k one-op clients replays on,
// as the View Run builds it from. Every peer starts from initial itself,
// uncopied: a deployment never writes into an array it holds. The server's
// and each client's log are carved from one block of k ops apiece: such a
// case ends with every log at most k long — the server's holds each
// client's op once, a client's its own and the others' — so no log grows
// past its share. Each share's capacity is clamped to k, so an overflow
// would reallocate, never write into a neighbour.
func replayView(initial []int, k int) ot.View {
	ops := make([]ot.Op, (k+1)*k)
	v := ot.View{
		ServerLog:   ops[:0:k],
		ServerState: initial,
		ClientLog:   make([][]ot.Op, k),
		ClientState: make([][]int, k),
		Progress:    make([]ot.Progress, k),
	}
	for c := range v.ClientLog {
		v.ClientLog[c] = ops[(c+1)*k : (c+1)*k : (c+2)*k]
		v.ClientState[c] = initial
	}
	return v
}

// runBlock is the number of cases one RunAll goroutine claims at a time.
const runBlock = 64

// RunAll executes every case, returning all mismatches in case order —
// exactly what calling Run on each case in turn returns. The cases run on
// up to GOMAXPROCS goroutines, each claiming blocks of runBlock cases, so
// tr is called from several goroutines at once and must be safe for that
// (see ot.BatchTransformer). A panic in one case is re-raised here, once
// every goroutine has stopped: the panic of the earliest failing block.
func RunAll(cases []TestCase, tr ot.BatchTransformer) []Mismatch {
	blocks := (len(cases) + runBlock - 1) / runBlock
	workers := min(runtime.GOMAXPROCS(0), blocks)
	if workers <= 1 {
		return runCases(cases, tr)
	}
	type result struct {
		mismatches []Mismatch
		panic      any
	}
	results := make([]result, blocks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				block := cases[b*runBlock : min((b+1)*runBlock, len(cases))]
				func() {
					defer func() {
						if pv := recover(); pv != nil {
							results[b].panic = pv
						}
					}()
					results[b].mismatches = runCases(block, tr)
				}()
			}
		}()
	}
	wg.Wait()
	var out []Mismatch
	for _, r := range results {
		if r.panic != nil {
			panic(r.panic)
		}
		out = append(out, r.mismatches...)
	}
	return out
}

// runCases runs cases in order on the calling goroutine.
func runCases(cases []TestCase, tr ot.BatchTransformer) []Mismatch {
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
