// Package repro's benchmark harness regenerates every quantitative claim
// of the paper's evaluation (the experiment index lives in DESIGN.md, the
// measured-vs-paper comparison in EXPERIMENTS.md). One benchmark per
// experiment; custom metrics carry the non-time quantities (state counts,
// event counts, coverage fractions).
package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/arrayot"
	"repro/internal/coverage"
	"repro/internal/fuzzer"
	"repro/internal/locking"
	"repro/internal/mbtc"
	"repro/internal/mbtcg"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/otgo"
	"repro/internal/raftmongo"
	"repro/internal/replset"
	"repro/internal/tla"
	"repro/internal/tlatext"
	"repro/internal/trace"
)

// BenchmarkE7ModelCheck regenerates §4.2.3's state-space comparison: the
// original specification (V1, one global term) against the post-MBTC
// rewrite (V2, gossiped terms) under the paper's configuration of 3 nodes,
// 3 terms, oplogs of 3. Paper: 42,034 states in 2 s vs 371,368 states in
// 14 min (TLC). The reproduced result is the direction and rough magnitude
// of the explosion.
func BenchmarkE7ModelCheck(b *testing.B) {
	cfg := raftmongo.DefaultConfig
	b.Run("V1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tla.Check(raftmongo.SpecV1(cfg), tla.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Distinct), "states")
		}
	})
	b.Run("V2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tla.Check(raftmongo.SpecV2(cfg), tla.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Distinct), "states")
		}
	})
}

// BenchmarkE8PresslerVsDirect regenerates §4.2.4's tooling observation:
// Pressler's Trace-module method is fine for hundreds of events and
// impractically slow for thousands (quadratic sequence access inside TLC),
// while the direct method (the wished-for TLC extension) is linear.
func BenchmarkE8PresslerVsDirect(b *testing.B) {
	spec := raftmongo.SpecV2(raftmongo.Config{Nodes: 3, MaxTerm: 1 << 30, MaxLogLen: 1 << 30})
	makeModule := func(n int) *tlatext.Module {
		states := legalWalk(b, spec, n)
		var buf bytes.Buffer
		if err := tlatext.WriteTraceModule(&buf, states); err != nil {
			b.Fatal(err)
		}
		m, err := tlatext.ParseTraceModule(&buf)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	for _, n := range []int{100, 400, 1600} {
		m := makeModule(n)
		b.Run(benchName("Pressler", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := tlatext.CheckPressler(spec, m)
				if !res.OK {
					b.Fatalf("legal trace rejected at %d", res.FailedStep)
				}
				b.ReportMetric(float64(res.Accesses), "seq-accesses")
			}
		})
		b.Run(benchName("Direct", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := tlatext.CheckDirect(spec, m)
				if !res.OK {
					b.Fatalf("legal trace rejected at %d", res.FailedStep)
				}
				b.ReportMetric(float64(res.Accesses), "seq-accesses")
			}
		})
	}
}

// BenchmarkE10Generate regenerates §5.2's headline: the MBTCG pipeline
// (model check → DOT dump → cases extracted from the checker's graph)
// produces 4,913 test cases under the paper's configuration. The dump is
// written but never parsed back; mbtcg.FromDOT, the import path, is
// pinned to the same cases by the package's tests.
func BenchmarkE10Generate(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		cases, _, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), filepath.Join(dir, "g.dot"), tla.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(cases) != 4913 {
			b.Fatalf("generated %d cases", len(cases))
		}
		b.ReportMetric(float64(len(cases)), "cases")
	}
}

// BenchmarkE10Coverage regenerates the §5.2 coverage table: branch
// coverage of the array merge rules under the handwritten suite, the
// fuzzer, and the generated cases (paper: 18/86=21%, 79/86=92%,
// 86/86=100%; our faithful transcription has 72 branch outcomes).
func BenchmarkE10Coverage(b *testing.B) {
	dir := b.TempDir()
	cases, _, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), filepath.Join(dir, "g.dot"), tla.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Handwritten36", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := coverage.NewRegistry()
			if err := mbtcg.RunWorkloads(mbtcg.HandwrittenCases(), ot.NewTransformer(reg, false)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*reg.Fraction(), "coverage%")
		}
	})
	b.Run("FuzzTransform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := coverage.NewRegistry()
			rep := fuzzer.FuzzTransform(fuzzer.DefaultTransformConfig(), ot.NewTransformer(reg, false))
			if len(rep.Failures) != 0 {
				b.Fatal(rep.Failures[0])
			}
			b.ReportMetric(100*reg.Fraction(), "coverage%")
		}
	})
	b.Run("Generated4913", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg := coverage.NewRegistry()
			if ms := mbtcg.RunAll(cases, ot.NewTransformer(reg, false)); len(ms) != 0 {
				b.Fatal(ms[0])
			}
			b.ReportMetric(100*reg.Fraction(), "coverage%")
		}
	})
}

// BenchmarkE12Parity regenerates the cross-implementation agreement check:
// all generated cases against the independent Go engine.
func BenchmarkE12Parity(b *testing.B) {
	dir := b.TempDir()
	cases, _, err := mbtcg.GenerateResult(arrayot.DefaultConfig(), filepath.Join(dir, "g.dot"), tla.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms := mbtcg.RunAll(cases, otgo.Engine{}); len(ms) != 0 {
			b.Fatal(ms[0])
		}
	}
}

// BenchmarkE1Pipeline regenerates the Figure 1 pipeline cost: one traced
// failover workload, captured, post-processed and checked against V2.
func BenchmarkE1Pipeline(b *testing.B) {
	workload := func(c *replset.Cluster) error {
		if _, err := c.Election(0); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := c.ClientWrite(0); err != nil {
				return err
			}
			if err := c.ReplicateAll(); err != nil {
				return err
			}
			if err := c.GossipRound(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.N; i++ {
		rep, _, err := mbtc.PipelineOpts(replset.Config{Nodes: 3, Seed: 1}, workload, raftmongo.SpecV2(mbtc.CheckConfig(3)), tla.TraceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK {
			b.Fatalf("trace diverged at %d", rep.FailedStep)
		}
		b.ReportMetric(float64(rep.Events), "events")
	}
}

// BenchmarkE5TraceVolume regenerates the §4.1 event volumes: one
// representative rollback_fuzzer run's trace events (paper: 2,683).
func BenchmarkE5TraceVolume(b *testing.B) {
	cfg := fuzzer.DefaultRollbackConfig()
	cfg.SyncBeforeWrites = true
	for i := 0; i < b.N; i++ {
		events, err := mbtc.RunTraced(replset.Config{Nodes: 3, Seed: cfg.Seed}, func(c *replset.Cluster) error {
			_, ferr := fuzzer.FuzzRollback(cfg, c)
			return ferr
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(events)), "events")
	}
}

// BenchmarkTransformLists is the micro-benchmark under everything: one
// batch rebase, as Network.Merge runs it on each side of a merge — two ops
// per side through the merge rules, one allocation.
func BenchmarkTransformLists(b *testing.B) {
	tr := ot.NewTransformer(nil, false)
	as := []ot.Op{ot.Move(0, 2).WithMeta(ot.Meta{Peer: 1}), ot.Set(1, 7).WithMeta(ot.Meta{Peer: 1})}
	bs := []ot.Op{ot.Move(2, 0).WithMeta(ot.Meta{Peer: 2}), ot.Insert(1, 8).WithMeta(ot.Meta{Peer: 2})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.TransformLists(as, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCheck compares the sequential oracle (workers=1)
// against the parallel fingerprinted checker at increasing worker counts
// on the two RaftMongo replica-set specification variants — the workload
// under every model-checking experiment in the repository. The 1-vs-N
// ratio is the multi-worker scaling TLC's engineering made famous; on a
// single-core host the parallel path still profits from fingerprint
// deduplication but cannot scale further.
func BenchmarkParallelCheck(b *testing.B) {
	variants := []struct {
		name string
		spec func() *tla.Spec[raftmongo.State]
	}{
		{"raftmongo-v1-full", func() *tla.Spec[raftmongo.State] { return raftmongo.SpecV1(raftmongo.DefaultConfig) }},
		{"raftmongo-v2-small", func() *tla.Spec[raftmongo.State] {
			return raftmongo.SpecV2(raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2})
		}},
	}
	for _, v := range variants {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", v.name, w), func(b *testing.B) {
				var states int64
				for i := 0; i < b.N; i++ {
					res, err := tla.Check(v.spec(), tla.Options{Workers: w})
					if err != nil {
						b.Fatal(err)
					}
					states += int64(res.Distinct)
					b.ReportMetric(float64(res.Distinct), "states")
				}
				reportStatesPerSec(b, states)
			})
		}
	}
}

// reportStatesPerSec attaches the exploration throughput metric the CI
// bench-delta stage compares across PR head and merge base: distinct
// states discovered per wall-clock second, aggregated over the
// benchmark's iterations.
func reportStatesPerSec(b *testing.B, states int64) {
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)/secs, "states/sec")
	}
}

// BenchmarkObservedCheck carries the instrumentation-overhead claim of
// BENCH_10.json: the same exploration the throughput benchmarks pin, run
// with Options.Metrics off and on. The metrics=on variants pay every
// hot-path hook the observability layer installs — per-worker
// expansion/claim counters, the successor fan-out histogram, the level
// phase histograms — so the states/sec delta between paired sub-benchmarks
// is the registry's whole tax (acceptance: ≤ 3%). cmd/benchjson measures
// the same pair with noise-robust interleaved sampling for the pinned
// number; this benchmark keeps the comparison one `go test -bench` away.
func BenchmarkObservedCheck(b *testing.B) {
	spec := func() *tla.Spec[raftmongo.State] {
		return raftmongo.SpecV2(raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2})
	}
	for _, metrics := range []bool{false, true} {
		b.Run(fmt.Sprintf("metrics=%v", metrics), func(b *testing.B) {
			b.ReportAllocs()
			var states int64
			for i := 0; i < b.N; i++ {
				var opts tla.Options
				if metrics {
					opts.Metrics = obs.NewRegistry()
				}
				res, err := tla.Check(spec(), opts)
				if err != nil {
					b.Fatal(err)
				}
				states += int64(res.Distinct)
				b.ReportMetric(float64(res.Distinct), "states")
			}
			reportStatesPerSec(b, states)
		})
	}
}

// BenchmarkSymmetryReduction measures TLC's SYMMETRY clause on the
// replica-set spec: declaring the node ids interchangeable shrinks the
// explored space by up to Nodes! (3! = 6 here) with identical verdicts —
// the states metric carries the reduction, the time column the payoff,
// and allocs/state the canonicalizer-API acceptance criterion: the
// visitor path (symmetry=true, the spec constructors' default) must stay
// at a flat allocation count per explored state, against a materializing
// orbit enumeration (symmetry=materializing-orbit, visiting s and every
// image the reference NodePermutations builds) whose per-state allocations
// scale with the n!-1 images.
func BenchmarkSymmetryReduction(b *testing.B) {
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	modes := []struct {
		name  string
		build func(mk func(raftmongo.Config) *tla.Spec[raftmongo.State]) *tla.Spec[raftmongo.State]
	}{
		{"false", func(mk func(raftmongo.Config) *tla.Spec[raftmongo.State]) *tla.Spec[raftmongo.State] {
			return mk(cfg)
		}},
		{"true", func(mk func(raftmongo.Config) *tla.Spec[raftmongo.State]) *tla.Spec[raftmongo.State] {
			c := cfg
			c.Symmetric = true
			return mk(c)
		}},
		{"materializing-orbit", func(mk func(raftmongo.Config) *tla.Spec[raftmongo.State]) *tla.Spec[raftmongo.State] {
			spec := mk(cfg)
			spec.SymmetryVisitor = func() tla.OrbitVisitor[raftmongo.State] {
				return func(s raftmongo.State, visit func(raftmongo.State)) {
					visit(s)
					for _, img := range raftmongo.NodePermutations(s) {
						visit(img)
					}
				}
			}
			return spec
		}},
	}
	for _, mode := range modes {
		for name, mk := range map[string]func(raftmongo.Config) *tla.Spec[raftmongo.State]{
			"v1": raftmongo.SpecV1, "v2": raftmongo.SpecV2,
		} {
			b.Run(fmt.Sprintf("raftmongo-%s/symmetry=%s", name, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				var states float64
				for i := 0; i < b.N; i++ {
					res, err := tla.Check(mode.build(mk), tla.Options{})
					if err != nil {
						b.Fatal(err)
					}
					states += float64(res.Distinct)
					b.ReportMetric(float64(res.Distinct), "states")
				}
				runtime.ReadMemStats(&after)
				if states > 0 {
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/states, "allocs/state")
				}
			})
		}
	}
}

// BenchmarkSymmetricFourNodes measures symmetry reduction where it pays
// most: RaftMongo V2 at four nodes (4! = 24 relabellings per orbit), 3
// terms, oplogs of 3, on two workers. The visitor sorts the node records
// and hands over one representative, so a state costs one encode however
// large the orbit.
func BenchmarkSymmetricFourNodes(b *testing.B) {
	cfg := raftmongo.Config{Nodes: 4, MaxTerm: 3, MaxLogLen: 3, Symmetric: true}
	var states int64
	for i := 0; i < b.N; i++ {
		res, err := tla.Check(raftmongo.SpecV2(cfg), tla.Options{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		states += int64(res.Distinct)
		b.ReportMetric(float64(res.Distinct), "states")
		b.ReportMetric(float64(res.Transitions), "transitions")
	}
	reportStatesPerSec(b, states)
}

// BenchmarkPORReduction measures ample-set partial-order reduction on the
// two specs that declare transition independence: the replica-set spec
// (where commit-point learning and per-node elections commute across
// nodes — the paying case) and the locking spec (where only releases are
// deferrable and every release revisits an ancestor state — the sound
// no-win case, expected at ~1x). Each variant runs unpruned and pruned at
// the small config; the states metric carries the explored count, the
// reduction metric the unpruned/pruned ratio CI's bench-delta stage
// watches, and states/sec the throughput cost of the per-state ample
// analysis.
func BenchmarkPORReduction(b *testing.B) {
	rcfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	variants := []struct {
		name string
		run  func(por bool) (*tla.Result[raftmongo.State], error)
	}{
		{"raftmongo-v1", func(por bool) (*tla.Result[raftmongo.State], error) {
			return tla.Check(raftmongo.SpecV1(rcfg), tla.Options{PartialOrder: por})
		}},
		{"raftmongo-v2", func(por bool) (*tla.Result[raftmongo.State], error) {
			return tla.Check(raftmongo.SpecV2(rcfg), tla.Options{PartialOrder: por})
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int64
			var ratio float64
			for i := 0; i < b.N; i++ {
				full, err := v.run(false)
				if err != nil {
					b.Fatal(err)
				}
				por, err := v.run(true)
				if err != nil {
					b.Fatal(err)
				}
				states += int64(full.Distinct) + int64(por.Distinct)
				ratio = float64(full.Distinct) / float64(por.Distinct)
				b.ReportMetric(float64(por.Distinct), "states")
			}
			b.ReportMetric(ratio, "reduction")
			reportStatesPerSec(b, states)
		})
	}
	b.Run("locking", func(b *testing.B) {
		b.ReportAllocs()
		var states int64
		var ratio float64
		for i := 0; i < b.N; i++ {
			full, err := tla.Check(locking.Spec(locking.SpecConfig{Actors: 3}), tla.Options{})
			if err != nil {
				b.Fatal(err)
			}
			por, err := tla.Check(locking.Spec(locking.SpecConfig{Actors: 3}), tla.Options{PartialOrder: true})
			if err != nil {
				b.Fatal(err)
			}
			states += int64(full.Distinct) + int64(por.Distinct)
			ratio = float64(full.Distinct) / float64(por.Distinct)
			b.ReportMetric(float64(por.Distinct), "states")
		}
		b.ReportMetric(ratio, "reduction")
		reportStatesPerSec(b, states)
	})
}

// BenchmarkSpillCheck measures the disk-spilling fingerprint store against
// the fully resident one on the replica-set spec: the same exploration
// with a budget small enough that every BFS level seals a sorted run and
// merge-joins the next level's claims against the lot. The gap is the
// rent for state spaces whose fingerprint set outgrows RAM.
func BenchmarkSpillCheck(b *testing.B) {
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	for _, bench := range []struct {
		name   string
		budget int64
	}{{"resident", 0}, {"forced-spill", 1}} {
		b.Run("raftmongo-v1/"+bench.name, func(b *testing.B) {
			var states int64
			for i := 0; i < b.N; i++ {
				res, err := tla.Check(raftmongo.SpecV1(cfg), tla.Options{MemoryBudgetBytes: bench.budget})
				if err != nil {
					b.Fatal(err)
				}
				states += int64(res.Distinct)
				b.ReportMetric(float64(res.Distinct), "states")
			}
			reportStatesPerSec(b, states)
		})
	}
}

// BenchmarkParallelTrace compares trace-checking worker counts on a
// replica-set trace captured from the rollback fuzzer (the checking half of
// the Figure 1 pipeline over a realistic replset workload).
func BenchmarkParallelTrace(b *testing.B) {
	fcfg := fuzzer.DefaultRollbackConfig()
	fcfg.SyncBeforeWrites = true
	events, err := mbtc.RunTraced(replset.Config{Nodes: 3, Seed: fcfg.Seed}, func(c *replset.Cluster) error {
		_, ferr := fuzzer.FuzzRollback(fcfg, c)
		return ferr
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := raftmongo.SpecV2(mbtc.CheckConfig(3))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("replset-fuzz/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, cerr := mbtc.CheckEventsOpts(3, events, spec, tla.TraceOptions{Workers: w})
				if cerr != nil {
					b.Fatal(cerr)
				}
				if !rep.OK {
					b.Fatalf("trace diverged at %d", rep.FailedStep)
				}
				b.ReportMetric(float64(rep.Events), "events")
			}
		})
	}
}

// unhinted hides an observation's ActionHints from the trace checker, which
// then runs the plain frontier method on it.
type unhinted struct {
	tla.Observation[raftmongo.State]
}

// BenchmarkGuidedTrace is the long trace as a repeatable measurement: the
// rollback-fuzzer default run (8,400 steps, seed 7, followers synced before
// writes) checked against RaftMongo V2 with the events' action labels
// guiding the expansion, and again with the labels stripped. events/sec is
// the number a user feels; successors/event is the work the hint removes.
// The unguided half takes tens of seconds per pass.
func BenchmarkGuidedTrace(b *testing.B) {
	fcfg := fuzzer.DefaultRollbackConfig()
	fcfg.SyncBeforeWrites = true
	events, err := mbtc.RunTraced(replset.Config{Nodes: 3, Seed: fcfg.Seed}, func(c *replset.Cluster) error {
		_, ferr := fuzzer.FuzzRollback(fcfg, c)
		return ferr
	})
	if err != nil {
		b.Fatal(err)
	}
	processed, err := trace.Process(3, events, trace.ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		b.Fatal(err)
	}
	guided := mbtc.ObservationsFromProcessed(3, events, processed)
	unguided := make([]tla.Observation[raftmongo.State], len(guided))
	for i, o := range guided {
		unguided[i] = unhinted{o}
	}

	var successors atomic.Int64
	spec := *raftmongo.SpecV2(mbtc.CheckConfig(3))
	spec.Actions = slices.Clone(spec.Actions)
	for i := range spec.Actions {
		next := spec.Actions[i].Next
		spec.Actions[i].Next = func(s raftmongo.State) []raftmongo.State {
			out := next(s)
			successors.Add(int64(len(out)))
			return out
		}
	}
	for _, bench := range []struct {
		name string
		obs  []tla.Observation[raftmongo.State]
	}{{"guided", guided}, {"unguided", unguided}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			successors.Store(0)
			for i := 0; i < b.N; i++ {
				res, cerr := tla.CheckTraceWith(&spec, bench.obs, tla.TraceOptions{})
				if cerr != nil || !res.OK {
					b.Fatalf("res=%+v err=%v", res, cerr)
				}
			}
			n := float64(b.N) * float64(len(events))
			b.ReportMetric(n/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(successors.Load())/n, "successors/event")
		})
	}
}

// BenchmarkCheckerThroughput measures raw explicit-state exploration:
// states per second on the V1 spec, the figure that bounds every
// model-checking experiment.
func BenchmarkCheckerThroughput(b *testing.B) {
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	b.ReportAllocs()
	var states int64
	for i := 0; i < b.N; i++ {
		res, err := tla.Check(raftmongo.SpecV1(cfg), tla.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states += int64(res.Distinct)
		b.ReportMetric(float64(res.Distinct), "states")
	}
	reportStatesPerSec(b, states)
}

// BenchmarkAblationFrontierVsGraph quantifies the design choice behind the
// main trace-checking path: the frontier method touches only states
// consistent with the observed trace, while a full exploration of the same
// bounded spec (what naive "check by model checking" would do) visits the
// entire space. The gap is why MBTC can use unbounded spec configurations.
func BenchmarkAblationFrontierVsGraph(b *testing.B) {
	cfg := raftmongo.Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2}
	spec := raftmongo.SpecV2(cfg)
	states := legalWalk(b, spec, 200)
	obs := make([]tla.Observation[raftmongo.State], len(states))
	for i, s := range states {
		obs[i] = tla.FullObservation[raftmongo.State]{Want: s}
	}
	b.Run("Frontier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tla.CheckTrace(spec, obs)
			if err != nil || !res.OK {
				b.Fatalf("res=%+v err=%v", res, err)
			}
		}
	})
	b.Run("FullExploration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := tla.Check(spec, tla.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Distinct), "states")
		}
	})
}

func legalWalk(b *testing.B, spec *tla.Spec[raftmongo.State], steps int) []raftmongo.State {
	b.Helper()
	s := spec.Init()[0]
	out := []raftmongo.State{s}
	// A deterministic pseudo-random walk (linear congruential) keeps the
	// harness free of global randomness.
	seed := uint64(42)
	for len(out) < steps {
		var succs []raftmongo.State
		for _, a := range spec.Actions {
			succs = append(succs, a.Next(s)...)
		}
		if len(succs) == 0 {
			break
		}
		seed = seed*6364136223846793005 + 1442695040888963407
		s = succs[int(seed>>33)%len(succs)]
		out = append(out, s)
	}
	return out
}

func benchName(kind string, n int) string {
	return kind + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestMain keeps the root package well-formed for go test ./... even when
// benchmarks are skipped.
func TestMain(m *testing.M) { os.Exit(m.Run()) }
