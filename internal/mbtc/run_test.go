package mbtc

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/replset"
	"repro/internal/scenarios"
	"repro/internal/tla"
)

// TestRunVerdictBlock pins the front end's output and return values: the
// summary, guided and PASS lines with nil, the FAIL line with ErrFailed,
// the interrupted line alone with nil, and a bad variant or an oversized
// replica set refused with an error before the workload runs.
func TestRunVerdictBlock(t *testing.T) {
	scenario := func(name string) (replset.Config, func(*replset.Cluster) error) {
		for _, sc := range scenarios.All() {
			if sc.Name == name {
				return replset.Config{Nodes: sc.Nodes, Seed: 1}, sc.Run
			}
		}
		t.Fatalf("no scenario %s", name)
		return replset.Config{}, nil
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name, scenario, variant string
		nodes                   int // overrides the scenario's when set
		ctx                     context.Context
		want                    []string // a pattern per line
		err                     error
		ran                     bool
	}{
		{"Pass", "write_3_and_replicate", "v2", 0, nil, []string{
			`^sc against RaftMongo v2: \d+ trace events, 0 oplog prefix fills, max frontier \d+$`,
			`^guided: \d+ steps, 0 hint fallbacks, rechecked=false$`,
			`^MBTC PASS: the trace is a behaviour of the specification$`,
		}, nil, true},
		{"Fail", "two_leaders_across_partition", "v2", 0, nil, []string{
			`^sc against RaftMongo v2: \d+ trace events, `,
			`^guided: \d+ steps, \d+ hint fallbacks, rechecked=true$`,
			`^MBTC FAIL: trace diverges at step \d+ of \d+ \(.+ by node \d at .+\)$`,
		}, ErrFailed, true},
		{"Interrupted", "write_3_and_replicate", "v2", 0, canceled, []string{
			`^sc against RaftMongo v2: interrupted after matching 1 of \d+ trace events \(no divergence so far\)$`,
		}, nil, true},
		{"UnknownVariant", "write_3_and_replicate", "v3", 0, nil, nil, nil, false},
		{"TooManyNodes", "write_3_and_replicate", "v2", 6, nil, nil, nil, false},
	} {
		cfg, workload := scenario(tc.scenario)
		if tc.nodes > 0 {
			cfg.Nodes = tc.nodes
		}
		ran := false
		var out strings.Builder
		err := Run(&out, "sc", tc.variant, cfg, func(c *replset.Cluster) error {
			ran = true
			return workload(c)
		}, tla.TraceOptions{Workers: 1, Context: tc.ctx})
		if ran != tc.ran {
			t.Errorf("%s: workload ran = %v, want %v", tc.name, ran, tc.ran)
		}
		if !tc.ran {
			if err == nil || out.Len() > 0 {
				t.Errorf("%s: err %v, output %q; want an error and no output", tc.name, err, out.String())
			}
			continue
		}
		if err != tc.err {
			t.Errorf("%s: err %v, want %v", tc.name, err, tc.err)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if len(lines) != len(tc.want) {
			t.Fatalf("%s: output\n%s\nwant %d lines", tc.name, out.String(), len(tc.want))
		}
		for i, re := range tc.want {
			if !regexp.MustCompile(re).MatchString(lines[i]) {
				t.Errorf("%s: line %d %q does not match %q", tc.name, i, lines[i], re)
			}
		}
	}
}

// TestRunTracedTeesToSinks: a node whose TraceSinks entry is set writes
// its log there as well, and the merged events are those of a run
// without sinks.
func TestRunTracedTeesToSinks(t *testing.T) {
	workload := func(c *replset.Cluster) error {
		if _, err := c.Election(0); err != nil {
			return err
		}
		return c.ClientWrite(0)
	}
	plain, err := RunTraced(replset.Config{Nodes: 3, Seed: 1}, workload)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	teed, err := RunTraced(replset.Config{Nodes: 3, Seed: 1, TraceSinks: []io.Writer{&log, nil, nil}}, workload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(teed, plain) || log.Len() == 0 {
		t.Fatalf("teed run: %d events (want %d), %d log bytes", len(teed), len(plain), log.Len())
	}
	if _, err := RunTraced(replset.Config{Nodes: 3, Seed: 1, TraceSinks: []io.Writer{&log}}, workload); err == nil {
		t.Fatal("one sink for three nodes: want an error")
	}
}
