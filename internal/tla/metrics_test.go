package tla

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// sumWorkerCounters adds up a per-worker counter family from the registry.
// Registered handles are shared by name, so re-resolving them here reads
// the engine's counters without extra plumbing.
func sumWorkerCounters(reg *obs.Registry, family string, workers int) int64 {
	var sum int64
	for w := 0; w < workers; w++ {
		sum += reg.Counter(fmt.Sprintf(`%s{worker="%d"}`, family, w)).Value()
	}
	return sum
}

// TestMetricsMatchResult pins the metrics layer's core consistency claim:
// summed per-worker expansion counters equal Result.Transitions and summed
// claim counters equal Result.Distinct, with and without visited-set
// spilling, with and without partial-order reduction.
// Run under -race this also proves the instrumented hot paths are clean.
func TestMetricsMatchResult(t *testing.T) {
	const workers = 3
	cases := []struct {
		name   string
		budget int64
		por    bool
	}{
		{"levelsync", 0, false},
		{"levelsync_spill", 1 << 12, false},
		{"levelsync_por", 0, true},
		{"levelsync_spill_por", 1 << 12, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			res, err := Check(gridSpec(4, 4, -1), Options{
				Workers:           workers,
				MemoryBudgetBytes: tc.budget,
				PartialOrder:      tc.por,
				Metrics:           reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if exp := sumWorkerCounters(reg, "tla_worker_expansions_total", workers); exp != int64(res.Transitions) {
				t.Fatalf("sum(worker expansions) = %d, Result.Transitions = %d", exp, res.Transitions)
			}
			if claims := sumWorkerCounters(reg, "tla_worker_claims_total", workers); claims != int64(res.Distinct) {
				t.Fatalf("sum(worker claims) = %d, Result.Distinct = %d", claims, res.Distinct)
			}
			if tc.por {
				if got := reg.Counter("tla_por_ample_states_total").Value(); got != int64(res.AmpleStates) {
					t.Fatalf("tla_por_ample_states_total = %d, Result.AmpleStates = %d", got, res.AmpleStates)
				}
				if got := reg.Counter("tla_por_deferred_transitions_total").Value(); got != int64(res.DeferredTransitions) {
					t.Fatalf("tla_por_deferred_transitions_total = %d, Result.DeferredTransitions = %d", got, res.DeferredTransitions)
				}
			}
			if tc.budget > 0 && !tc.por {
				// Skipped under POR: the reduction shrinks the run below
				// the budget, so nothing spills — by design.
				if got := reg.Counter("tla_spill_run_seals_total").Value(); got == 0 {
					t.Fatal("spill budget forced runs to disk but tla_spill_run_seals_total = 0")
				}
			}
		})
	}
}

// TestMetricsSpillBytesMatchResult ties the byte-granular spill counters to
// the run's own SpillBytes report.
func TestMetricsSpillBytesMatchResult(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Check(counterSpec(120), Options{MemoryBudgetBytes: 1 << 12, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct == 0 {
		t.Fatal("empty run")
	}
	seals := reg.Counter("tla_spill_run_seals_total").Value()
	bytes := reg.Counter("tla_spill_bytes_sealed_total").Value()
	if seals == 0 || bytes == 0 {
		t.Fatalf("spilling run recorded seals=%d bytes=%d", seals, bytes)
	}
	if joins := reg.Counter("tla_spill_merge_joins_total").Value(); joins == 0 {
		t.Fatal("spilling run recorded no merge joins")
	}
}

// journalRecord is one decoded line of a run journal.
type journalRecord struct {
	V      int            `json:"v"`
	Seq    int64          `json:"seq"`
	TSMS   int64          `json:"ts_ms"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields"`
}

func readJournal(t *testing.T, buf *bytes.Buffer) []journalRecord {
	t.Helper()
	var recs []journalRecord
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r journalRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestJournalGolden locks the journal's shape for a deterministic
// level-synchronized run: the event sequence, the per-event field sets,
// and the monotone seq/ts_ms invariants — the stability consumers key
// their parsers on (versioned via obs.JournalVersion).
func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	res, err := Check(counterSpec(3), Options{Workers: 1, JournalWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	recs := readJournal(t, &buf)
	// counterSpec(3) explores levels 0..6 (A+B from 0 to 6) plus the empty
	// level that ends the run, so: run_start, 8 level events, run_end.
	wantEvents := []string{"run_start", "level", "level", "level", "level", "level", "level", "level", "level", "run_end"}
	if len(recs) != len(wantEvents) {
		t.Fatalf("got %d records, want %d:\n%s", len(recs), len(wantEvents), buf.String())
	}
	wantFields := map[string][]string{
		"run_start": {"partial_order", "spec", "workers"},
		"level":     {"depth", "distinct", "expand_s", "level", "merge_s", "spill_bytes", "transitions", "width"},
		"run_end":   {"degraded", "depth", "distinct", "transitions", "verdict"},
	}
	var prevSeq, prevTS int64
	for i, r := range recs {
		if r.V != obs.JournalVersion {
			t.Fatalf("record %d: v = %d, want %d", i, r.V, obs.JournalVersion)
		}
		if r.Seq != prevSeq+1 {
			t.Fatalf("record %d: seq = %d, want %d", i, r.Seq, prevSeq+1)
		}
		prevSeq = r.Seq
		if r.TSMS < prevTS {
			t.Fatalf("record %d: ts_ms %d < previous %d", i, r.TSMS, prevTS)
		}
		prevTS = r.TSMS
		if r.Event != wantEvents[i] {
			t.Fatalf("record %d: event = %q, want %q", i, r.Event, wantEvents[i])
		}
		var keys []string
		for k := range r.Fields {
			keys = append(keys, k)
		}
		want := wantFields[r.Event]
		if len(keys) != len(want) {
			t.Fatalf("record %d (%s): fields %v, want keys %v", i, r.Event, r.Fields, want)
		}
		for _, k := range want {
			if _, ok := r.Fields[k]; !ok {
				t.Fatalf("record %d (%s): missing field %q in %v", i, r.Event, k, r.Fields)
			}
		}
	}
	last := recs[len(recs)-1]
	if last.Fields["verdict"] != "ok" {
		t.Fatalf("run_end verdict = %v, want ok", last.Fields["verdict"])
	}
	if int(last.Fields["distinct"].(float64)) != res.Distinct {
		t.Fatalf("run_end distinct = %v, Result.Distinct = %d", last.Fields["distinct"], res.Distinct)
	}
}

// TestJournalViolationVerdict pins the terminal verdict of a violating run.
func TestJournalViolationVerdict(t *testing.T) {
	var buf bytes.Buffer
	res, err := Check(gridSpec(3, 4, 2), Options{JournalWriter: &buf})
	if res == nil || res.Violation == nil {
		t.Fatalf("tripwire spec did not violate (err=%v)", err)
	}
	recs := readJournal(t, &buf)
	last := recs[len(recs)-1]
	if last.Event != "run_end" || last.Fields["verdict"] != "violation" {
		t.Fatalf("last record = %s %v, want run_end/violation", last.Event, last.Fields)
	}
}

// TestProgressCallback pins what a level boundary reports — the journal's
// "level" events: the level index is the event's position, the counters are
// monotone, the width drains to zero, the last event agrees with the
// Result, and spill pressure is nonzero once the budget forces runs to disk.
func TestProgressCallback(t *testing.T) {
	var buf bytes.Buffer
	res, err := Check(counterSpec(24), Options{
		Workers:           4,
		MemoryBudgetBytes: 1,
		JournalWriter:     &buf,
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var levels []map[string]any
	for _, r := range readJournal(t, &buf) {
		if r.Event == "level" {
			levels = append(levels, r.Fields)
		}
	}
	if len(levels) < 2 {
		t.Fatalf("got %d level events, want one per BFS level", len(levels))
	}
	num := func(f map[string]any, key string) int { return int(f[key].(float64)) }
	maxSpill := 0
	for i, f := range levels {
		if num(f, "level") != i {
			t.Fatalf("level event %d reports level %d", i, num(f, "level"))
		}
		if i > 0 {
			prev := levels[i-1]
			for _, key := range []string{"distinct", "transitions", "depth"} {
				if num(f, key) < num(prev, key) {
					t.Fatalf("%s regressed between level events %d and %d: %v -> %v", key, i-1, i, prev, f)
				}
			}
		}
		if sb := num(f, "spill_bytes"); sb > maxSpill {
			maxSpill = sb
		}
	}
	last := levels[len(levels)-1]
	if num(last, "width") != 0 {
		t.Fatalf("final level event still has %d frontier states", num(last, "width"))
	}
	if num(last, "distinct") != res.Distinct || num(last, "transitions") != res.Transitions || num(last, "depth") != res.Depth {
		t.Fatalf("final level event %v disagrees with the result %d/%d/%d",
			last, res.Distinct, res.Transitions, res.Depth)
	}
	if maxSpill == 0 {
		t.Fatal("a budget-1 spilled run never reported spill pressure")
	}
}

// TestProgressEveryLevelSyncSuppressesPerLevel checks the pacing: a level
// boundary delivers only once ProgressEvery has passed since the last
// delivery, and the run's end delivers the last boundary unless it just
// did, so a period longer than the run means exactly one delivery, and no
// period means none. The final delivery carries the Result's own count.
func TestProgressEveryLevelSyncSuppressesPerLevel(t *testing.T) {
	for _, tc := range []struct {
		every time.Duration
		want  int64
	}{
		{time.Hour, 1}, // only the delivery at the run's end
		{0, 0},
	} {
		var calls, last atomic.Int64
		res, err := Check(counterSpec(80), Options{
			ProgressEvery: tc.every,
			Progress: func(p Progress) {
				calls.Add(1)
				last.Store(int64(p.Distinct))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != tc.want {
			t.Fatalf("ProgressEvery %s: got %d deliveries, want %d", tc.every, got, tc.want)
		}
		if got := last.Load(); tc.want > 0 && got != int64(res.Distinct) {
			t.Fatalf("final progress snapshot distinct = %d, Result.Distinct = %d", got, res.Distinct)
		}
	}
}

// TestProgressEndSkipsDeliveredBoundary: with a period every boundary
// meets, each boundary is delivered once, in level order, and the run's
// end adds no second copy of the last one.
func TestProgressEndSkipsDeliveredBoundary(t *testing.T) {
	var levels []int
	res, err := Check(counterSpec(10), Options{
		ProgressEvery: time.Nanosecond,
		Progress:      func(p Progress) { levels = append(levels, p.Level) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Levels 0..Depth have states; one more boundary finds the frontier empty.
	want := make([]int, res.Depth+2)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(levels, want) {
		t.Fatalf("delivered levels %v, want %v", levels, want)
	}
}

// TestTraceProgress pins TraceOptions.Progress delivery and its
// observation-granularity contract (called between observations, never
// concurrently — a plain variable write below would trip -race otherwise).
func TestTraceProgress(t *testing.T) {
	spec := counterSpec(40)
	var trace []Observation[counterState]
	s := counterState{}
	trace = append(trace, FullObservation[counterState]{Want: s})
	for i := 0; i < 40; i++ {
		s.A++
		trace = append(trace, FullObservation[counterState]{Want: s})
	}
	var calls int
	var last TraceProgress
	res, err := CheckTraceWith(spec, trace, TraceOptions{
		ProgressEvery: time.Nanosecond, // every observation qualifies
		Progress: func(p TraceProgress) {
			calls++
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("trace rejected")
	}
	if calls == 0 {
		t.Fatal("no TraceProgress deliveries")
	}
	if last.Total != len(trace) || last.Step <= 0 || last.Step >= len(trace) || last.Frontier == 0 {
		t.Fatalf("last TraceProgress = %+v", last)
	}
}

// TestTraceOptionsValidateProgressEvery mirrors Options.Validate's guard.
func TestTraceOptionsValidateProgressEvery(t *testing.T) {
	err := TraceOptions{ProgressEvery: -time.Second}.Validate()
	if err == nil || !strings.Contains(err.Error(), "ProgressEvery") {
		t.Fatalf("Validate = %v, want ProgressEvery error", err)
	}
}

// TestMetricsNilRegistryUntouched guards the uninstrumented path: no
// registry and no journal must mean a nil engineMetrics all the way down.
func TestMetricsNilRegistryUntouched(t *testing.T) {
	if m := newEngineMetrics(Options{}, 4); m != nil {
		t.Fatal("uninstrumented options built an engineMetrics")
	}
	if m := newEngineMetrics(Options{Metrics: obs.NewRegistry()}, 2); m == nil {
		t.Fatal("registry-carrying options built no engineMetrics")
	}
	var buf bytes.Buffer
	if m := newEngineMetrics(Options{JournalWriter: &buf}, 2); m == nil {
		t.Fatal("journal-carrying options built no engineMetrics")
	} else if m.workerExpansions != nil {
		t.Fatal("journal-only run resolved registry handles")
	}
}
