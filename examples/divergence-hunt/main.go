// Divergence hunt: inject mutations into an OT implementation and show the
// generated test suite catches every one — the conformance signal MBTCG
// provides while two implementations of one specification evolve (§5).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/arrayot"
	"repro/internal/mbtcg"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/tla"
)

// mutation wraps the independent engine and corrupts one aspect of its
// output — each is a realistic transcription slip from §5.1.1.
type mutation struct {
	name  string
	apply func(aOut, bOut []ot.Op) ([]ot.Op, []ot.Op)
}

var mutations = []mutation{
	{"forget erase index adjustment", func(a, b []ot.Op) ([]ot.Op, []ot.Op) {
		for i, o := range a {
			if o.Kind == ot.KindErase && o.Ndx > 0 {
				o.Ndx--
				a[i] = o
			}
		}
		return a, b
	}},
	{"drop the set-vs-erase discard", func(a, b []ot.Op) ([]ot.Op, []ot.Op) {
		// Resurrect discarded operations as sets of index 0.
		if len(a) == 0 {
			return []ot.Op{ot.Set(0, 999)}, b
		}
		return a, b
	}},
	{"off-by-one insert shift", func(a, b []ot.Op) ([]ot.Op, []ot.Op) {
		for i, o := range a {
			if o.Kind == ot.KindInsert && o.Ndx > 0 {
				o.Ndx--
				a[i] = o
			}
		}
		return a, b
	}},
	{"swap move endpoints", func(a, b []ot.Op) ([]ot.Op, []ot.Op) {
		for i, o := range a {
			if o.Kind == ot.KindMove {
				o.Ndx, o.To = o.To, o.Ndx
				a[i] = o
			}
		}
		return a, b
	}},
}

type mutant struct {
	otgo.Engine
	m mutation
}

func (mu mutant) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	aOut, bOut, err := mu.Engine.TransformLists(as, bs)
	if err != nil {
		return nil, nil, err
	}
	aOut, bOut = mu.m.apply(aOut, bOut)
	return aOut, bOut, nil
}

func main() {
	dir, err := os.MkdirTemp("", "hunt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cases, _, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), filepath.Join(dir, "g.dot"), tla.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d conformance cases\n\n", len(cases))

	if ms := mbtcg.RunAll(cases, otgo.Engine{}); len(ms) != 0 {
		log.Fatalf("clean engine failed: %s", ms[0])
	}
	fmt.Println("unmutated engine: all cases pass")

	caught := 0
	for _, m := range mutations {
		ms := mbtcg.RunAll(cases, mutant{m: m})
		status := "MISSED"
		if len(ms) > 0 {
			status = fmt.Sprintf("caught by %d case failures (first: %s)", len(ms), firstCase(ms))
			caught++
		}
		fmt.Printf("mutation %-32q %s\n", m.name, status)
	}
	fmt.Printf("\n%d/%d mutations caught by the generated suite\n", caught, len(mutations))
	if caught != len(mutations) {
		os.Exit(1)
	}
}

func firstCase(ms []mbtcg.Mismatch) string { return ms[0].Case }
