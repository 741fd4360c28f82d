package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

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
			return graphDigest(t, locking.Spec(locking.SpecConfig{Actors: 3}), tla.Options{Workers: w, MemoryBudgetBytes: 1})
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
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readDigests(t)
	if len(got) != len(want) {
		t.Errorf("%d digests, %s has %d", len(got), goldenDigests, len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok || g != w {
			t.Errorf("%s: got %+v, want %+v", k, g, w)
		}
	}
}

// goldenDigests is the file TestDigests pins its digests in.
var goldenDigests = filepath.Join("testdata", "digests.json")

func readDigests(t *testing.T) map[string]digest {
	t.Helper()
	b, err := os.ReadFile(goldenDigests)
	if err != nil {
		t.Fatalf("%v (run TestDigests with -update to create it)", err)
	}
	var want map[string]digest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// resumeDigestConfigs are the TestDigests configurations TestResumeDigests
// checkpoints and resumes, by digest name: raftmongo-v1 fingerprinted and
// keyed, whose visited set a resume rebuilds from the stored plain
// encodings as they are, and raftmongo-v2 under POR and symmetry, whose
// rebuild decodes each stored encoding and canonicalises it.
func resumeDigestConfigs() []struct {
	digest string
	spec   func() *tla.Spec[raftmongo.State]
	opts   tla.Options
} {
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	reduced := small
	reduced.Symmetric = true
	v1 := func() *tla.Spec[raftmongo.State] { return raftmongo.SpecV1(small) }
	v2 := func() *tla.Spec[raftmongo.State] { return raftmongo.SpecV2(reduced) }
	return []struct {
		digest string
		spec   func() *tla.Spec[raftmongo.State]
		opts   tla.Options
	}{
		{"raftmongo-v1", v1, tla.Options{}},
		{"raftmongo-v1", v1, tla.Options{CollisionFree: true}},
		{"raftmongo-v2-por-symmetry", v2, tla.Options{PartialOrder: true}},
	}
}

// TestResumeDigests stops each resumeDigestConfigs configuration with a
// checkpoint after each of its levels (recording the graph, so the
// checkpoint holds its edges), resumes it with the graph recorded, and
// requires the DOT dump and counts of the uninterrupted run (TestDigests's
// entries) at 1 and 2 workers. A resume decodes the checkpointed frontier,
// rebuilds the visited set from the stored encodings and serves the graph
// of a checkpointing run from the arena, so this holds DecodeBinary and
// the rebuild to the same pin as a fresh run holds AppendBinary.
func TestResumeDigests(t *testing.T) {
	want := readDigests(t)
	for _, c := range resumeDigestConfigs() {
		for _, w := range []int{1, 2} {
			exp, ok := want[fmt.Sprintf("%s/w%d", c.digest, w)]
			if !ok {
				t.Fatalf("%s has no %s/w%d entry", goldenDigests, c.digest, w)
			}
			label := fmt.Sprintf("%s collision-free=%t", c.digest, c.opts.CollisionFree)
			for level := 1; level < exp.Depth; level++ {
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				stop := c.opts
				stop.RecordGraph, stop.Workers, stop.Context, stop.CheckpointDir = true, w, ctx, dir
				stop.ProgressEvery = time.Nanosecond
				stop.Progress = func(p tla.Progress) {
					if p.Level >= level {
						cancel()
					}
				}
				res, err := tla.Check(c.spec(), stop)
				cancel()
				if !errors.Is(err, tla.ErrInterrupted) || res.CheckpointPath != dir {
					t.Fatalf("%s w%d, stop after level %d: err = %v, want an interrupted run checkpointed in %s", label, w, level, err, dir)
				}
				if info, err := tla.ReadCheckpointInfo(dir); err != nil || info.Levels != level {
					t.Fatalf("%s w%d, stop after level %d: checkpoint %+v, %v; want it at level %d", label, w, level, info, err, level)
				}
				resume := c.opts
				resume.Workers, resume.ResumeFrom = w, dir
				if got := graphDigest(t, c.spec(), resume); got != exp {
					t.Fatalf("%s w%d, resumed after level %d (%d distinct): got %+v, want %+v", label, w, level, res.Distinct, got, exp)
				}
			}
		}
	}
}

// TestKeyedSpillDigest runs the raftmongo-v1 digest configuration keyed
// (CollisionFree) under a one-byte budget, which seals the visited set
// after every level, so every level's duplicates are found by restoring
// spilled keys from the arena; the DOT dump and counts must be
// TestDigests's.
func TestKeyedSpillDigest(t *testing.T) {
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	want := readDigests(t)
	for _, w := range []int{1, 2} {
		exp := want[fmt.Sprintf("raftmongo-v1/w%d", w)]
		if got := graphDigest(t, raftmongo.SpecV1(small), tla.Options{Workers: w, CollisionFree: true, MemoryBudgetBytes: 1}); got != exp {
			t.Fatalf("w%d: got %+v, want %+v", w, got, exp)
		}
	}
}

// TestStopAtLevelIsExact: the engine asks its context at each level
// boundary, after Progress, so a cancel inside Progress at level k stops the
// run at level k — its checkpoint records k levels — at any worker count.
func TestStopAtLevelIsExact(t *testing.T) {
	small := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	for _, w := range []int{1, 2, 4} {
		for level := 1; level <= 12; level++ {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			_, err := tla.Check(raftmongo.SpecV1(small), tla.Options{
				Workers:       w,
				Context:       ctx,
				CheckpointDir: dir,
				ProgressEvery: time.Nanosecond,
				Progress: func(p tla.Progress) {
					if p.Level >= level {
						cancel()
					}
				},
			})
			cancel()
			if !errors.Is(err, tla.ErrInterrupted) {
				t.Fatalf("w%d, cancel at level %d: err = %v, want ErrInterrupted", w, level, err)
			}
			if info, err := tla.ReadCheckpointInfo(dir); err != nil || info.Levels != level {
				t.Fatalf("w%d, cancel at level %d: checkpoint %+v, %v; want it at level %d", w, level, info, err, level)
			}
		}
	}
}
