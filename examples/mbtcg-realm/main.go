// The Section 5 case study end to end: generate the 4,913 conformance test
// cases from the array_ot specification, run them against both OT
// implementations, rediscover the legacy ArraySwap/ArrayMove
// non-termination bug with the model checker, and print the branch-coverage
// table of §5.2.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/arrayot"
	"repro/internal/coverage"
	"repro/internal/fuzzer"
	"repro/internal/mbtcg"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

func main() {
	dir, err := os.MkdirTemp("", "mbtcg")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Generate: model check, dump DOT, parse, extract cases.
	cases, res, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), filepath.Join(dir, "array_ot.dot"), tla.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("array_ot model checked: %d distinct states, %d generated cases (paper: 4,913)\n",
		res.Distinct, len(cases))

	// Conformance: both implementations pass every case.
	if ms := mbtcg.RunAll(cases, ot.NewTransformer(nil, false)); len(ms) != 0 {
		log.Fatalf("reference failed: %s", ms[0])
	}
	if ms := mbtcg.RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		log.Fatalf("independent failed: %s", ms[0])
	}
	fmt.Println("reference and independent implementations pass all generated cases (parity)")

	// The §5.1.3 discovery: with the legacy rules and ArraySwap enabled,
	// the checker finds the non-terminating merge.
	legacy := arrayot.Config{
		Initial: []int{1, 2, 3}, Clients: 2, OpsPerClient: 1,
		IncludeSwap: true, Transformer: ot.NewTransformer(nil, true),
	}
	if res, err := tla.Check(arrayot.Spec(legacy), tla.Options{}); err != nil && res.Violation != nil {
		fmt.Printf("legacy ArraySwap bug found by the checker: %v\n", res.Violation.Err)
		fmt.Printf("  counterexample: %v\n", res.Violation.TraceActs)
	} else {
		log.Fatal("legacy bug not found")
	}

	// The §5.2 coverage table.
	handReg := coverage.NewRegistry()
	if err := mbtcg.RunWorkloads(mbtcg.HandwrittenCases(), ot.NewTransformer(handReg, false)); err != nil {
		log.Fatal(err)
	}
	fuzzReg := coverage.NewRegistry()
	frep := fuzzer.FuzzTransform(fuzzer.DefaultTransformConfig(), ot.NewTransformer(fuzzReg, false))
	genReg := coverage.NewRegistry()
	if ms := mbtcg.RunAll(cases, ot.NewTransformer(genReg, false)); len(ms) != 0 {
		log.Fatal(ms[0])
	}
	fmt.Println("\nbranch coverage of the array merge rules (paper: 21% / 92% / 100%):")
	fmt.Printf("  handwritten (%2d tests):   %s\n", len(mbtcg.HandwrittenCases()), handReg.Report())
	fmt.Printf("  fuzz-transform (%d execs): %s\n", frep.Executions, fuzzReg.Report())
	fmt.Printf("  generated (%d cases):    %s\n", len(cases), genReg.Report())

	// Emit the generated cases as a Go test file, Figure 9 style.
	out := filepath.Join(dir, "generated_test.go")
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	if err := mbtcg.EmitGoTests(f, "generated", "repro/internal/ot", cases); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(out)
	fmt.Printf("\nemitted %d cases as a Go test file (%d KiB)\n", len(cases), info.Size()/1024)
}
