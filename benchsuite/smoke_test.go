package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// lastLine decodes the contract's result line.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke drives every workload through the command line on its tiny
// configuration, untraced and traced, and holds the last output line to
// the benchmark contract: exactly the four keys, exactly the declared
// metrics, every output matching expected.json.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "-smoke", "-out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", w.name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			var res resultLine
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &raw); err != nil {
				t.Fatalf("%s: last line is not JSON: %v\n%s", w.name, err, last)
			}
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if len(raw) != 4 || res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
				t.Errorf("%s: result keys = %v", w.name, raw)
			}
			if !*res.Correct || *res.Attempted < 1 || *res.Failed != 0 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d", w.name, trace, *res.Correct, *res.Attempted, *res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v", w.name, trace, d.Name, m)
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, *m.Value)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

func TestUnknownWorkloadAndBadFlagsFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	if code := run([]string{"-workload", "check-locking", "-trace", "2"}, &stdout, &stderr); code != 2 {
		t.Errorf("-trace 2: exit %d", code)
	}
}

// A wrong count in expected.json must fail the unit, not pass quietly.
func TestMismatchCountsAsFailed(t *testing.T) {
	w := workloads()[1] // check-locking
	exp, err := loadExpected(true)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 1, seconds: 1, smoke: true, tmp: t.TempDir(), exp: exp[w.name]}
	e.exp.Distinct++
	rep, err := measure(w, e)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Attempted || rep.Failed == 0 || len(rep.Problems) == 0 {
		t.Errorf("attempted %d, failed %d, problems %v", rep.Attempted, rep.Failed, rep.Problems)
	}
}

// BENCHMARK.json is written by hand; it must list the harness's own
// workloads and metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory:", err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("catalogue row %+v breaks the contract's limits", d)
		}
		seen[d.Name] = true
	}
}
