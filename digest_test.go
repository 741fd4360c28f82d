package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/arrayot"
	"repro/internal/locking"
	"repro/internal/mbtcg"
	"repro/internal/raftmongo"
	"repro/internal/tla"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json")

// digest is what a run's output is pinned by: the SHA-256 of its streamed
// DOT dump (and, for array_ot, of the EmitGoTests file generated from its
// graph) plus its counters.
type digest struct {
	DOT         string `json:"dot_sha256"`
	Emit        string `json:"emit_sha256,omitempty"`
	Distinct    int    `json:"distinct"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
}

// graphDigest checks spec with opts, recording the graph, and digests it.
func graphDigest[S tla.State](t *testing.T, spec *tla.Spec[S], opts tla.Options) digest {
	t.Helper()
	opts.RecordGraph = true
	res, err := tla.Check(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	h := sha256.New()
	if err := res.Graph.WriteDOT(h, spec.Name); err != nil {
		t.Fatal(err)
	}
	return digest{DOT: hex.EncodeToString(h.Sum(nil)), Distinct: res.Distinct, Transitions: res.Transitions, Depth: res.Depth}
}

// arrayotDigest runs the MBTCG pipeline and digests its DOT dump and the
// Go test file emitted from its cases.
func arrayotDigest(t *testing.T, opts tla.Options) digest {
	t.Helper()
	dot := filepath.Join(t.TempDir(), "array_ot.dot")
	cases, res, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), dot, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	var emit bytes.Buffer
	if err := mbtcg.EmitGoTests(&emit, "generated", "repro/internal/ot", cases); err != nil {
		t.Fatal(err)
	}
	dotSum, emitSum := sha256.Sum256(b), sha256.Sum256(emit.Bytes())
	return digest{DOT: hex.EncodeToString(dotSum[:]), Emit: hex.EncodeToString(emitSum[:]), Distinct: res.Distinct, Transitions: res.Transitions, Depth: res.Depth}
}

// TestDigests pins the engine's output on small configurations of every
// bundled spec at Workers 1, 2 and 4: the DOT dump byte for byte (by its
// SHA-256) and the distinct, transition and depth counts. A change to the
// engine that means to keep its output must leave testdata/digests.json
// as it is; -update rewrites it.
func TestDigests(t *testing.T) {
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	reduced := small
	reduced.Symmetric = true
	configs := []struct {
		name string
		run  func(t *testing.T, workers int) digest
	}{
		{"raftmongo-v1", func(t *testing.T, w int) digest {
			return graphDigest(t, raftmongo.SpecV1(small), tla.Options{Workers: w})
		}},
		{"raftmongo-v2-por-symmetry", func(t *testing.T, w int) digest {
			return graphDigest(t, raftmongo.SpecV2(reduced), tla.Options{Workers: w, PartialOrder: true})
		}},
		{"locking-3-arena-budget-1", func(t *testing.T, w int) digest {
			return graphDigest(t, locking.Spec(locking.SpecConfig{Actors: 3}), tla.Options{Workers: w, StateArena: true, MemoryBudgetBytes: 1})
		}},
		{"arrayot-mbtcg", func(t *testing.T, w int) digest {
			return arrayotDigest(t, tla.Options{Workers: w})
		}},
	}
	got := map[string]digest{}
	for _, c := range configs {
		for _, w := range []int{1, 2, 4} {
			got[fmt.Sprintf("%s/w%d", c.name, w)] = c.run(t, w)
		}
	}
	golden := filepath.Join("testdata", "digests.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]digest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, %s has %d", len(got), golden, len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok || g != w {
			t.Errorf("%s: got %+v, want %+v", k, g, w)
		}
	}
}
