package tlatext

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/raftmongo"
	"repro/internal/tla"
)

// specWalk produces a legal state sequence of the given length by a seeded
// random walk of the specification.
func specWalk(t *testing.T, spec *tla.Spec[raftmongo.State], steps int, seed int64) []raftmongo.State {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := spec.Init()[0]
	out := []raftmongo.State{s}
	for len(out) < steps {
		var succs []raftmongo.State
		for _, a := range spec.Actions {
			succs = append(succs, a.Next(s)...)
		}
		if len(succs) == 0 {
			break
		}
		s = succs[rng.Intn(len(succs))]
		out = append(out, s)
	}
	return out
}

func checkCfg() raftmongo.Config {
	return raftmongo.Config{Nodes: 3, MaxTerm: 1 << 30, MaxLogLen: 1 << 30}
}

// TestTraceModuleRoundTrip is experiment E4: a state sequence serializes
// to a Trace module (Figure 4) and parses back identically.
func TestTraceModuleRoundTrip(t *testing.T) {
	spec := raftmongo.SpecV2(checkCfg())
	states := specWalk(t, spec, 40, 1)
	var buf bytes.Buffer
	if err := WriteTraceModule(&buf, states); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"---- MODULE Trace ----", "EXTENDS Integers, Sequences", "Trace == <<"} {
		if !strings.Contains(text, want) {
			t.Fatalf("module missing %q:\n%s", want, text[:200])
		}
	}
	m, err := ParseTraceModule(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != len(states) {
		t.Fatalf("parsed %d states, want %d", m.Len(), len(states))
	}
	for i, s := range m.States() {
		if s.Key() != states[i].Key() {
			t.Fatalf("state %d: %q != %q", i, s.Key(), states[i].Key())
		}
	}
}

func TestTraceModuleFigure4Shape(t *testing.T) {
	// The Figure 4 example: node 2 takes over as leader in term 2.
	states := []raftmongo.State{
		{Nodes: 3, Roles: [raftmongo.MaxNodes]raftmongo.Role{raftmongo.Leader}, Terms: [raftmongo.MaxNodes]int16{1, 1, 1}},
		{Nodes: 3, Roles: [raftmongo.MaxNodes]raftmongo.Role{raftmongo.Follower, raftmongo.Leader}, Terms: [raftmongo.MaxNodes]int16{1, 2, 1}},
	}
	var buf bytes.Buffer
	if err := WriteTraceModule(&buf, states); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `<<"Leader", "Follower", "Follower">>`) ||
		!strings.Contains(text, `<<NULL, NULL, NULL>>`) {
		t.Fatalf("module does not match Figure 4:\n%s", text)
	}
	m, err := ParseTraceModule(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"---- MODULE Trace ----\nTrace == <<\n  garbage\n>>\n====",
		"---- MODULE Trace ----\nTrace == <<\n  <<<<\"Captain\">>, <<1>>, <<NULL>>, <<<<>>>>>>\n>>\n====",
		// More nodes than raftmongo.MaxNodes, and numbers past raftmongo.MaxValue.
		"---- MODULE Trace ----\nTrace == <<\n  <<<<" + strings.Repeat("\"Follower\", ", 5) + "\"Follower\">>, <<0, 0, 0, 0, 0, 0>>, <<NULL, NULL, NULL, NULL, NULL, NULL>>, <<<<>>, <<>>, <<>>, <<>>, <<>>, <<>>>>>>\n>>\n====",
		"---- MODULE Trace ----\nTrace == <<\n  <<<<\"Leader\">>, <<32768>>, <<NULL>>, <<<<>>>>>>\n>>\n====",
		"---- MODULE Trace ----\nTrace == <<\n  <<<<\"Leader\">>, <<1>>, <<[term |-> 1, index |-> 32768]>>, <<<<1>>>>>>\n>>\n====",
		"---- MODULE Trace ----\nTrace == <<\n  <<<<\"Leader\">>, <<1>>, <<NULL>>, <<<<1, 32768>>>>>>\n>>\n====",
	}
	for _, c := range cases {
		if _, err := ParseTraceModule(strings.NewReader(c)); err == nil {
			t.Errorf("ParseTraceModule(%q) succeeded", c)
		}
	}
}

// TestPresslerAcceptsLegalTrace: a specification walk checks clean by both
// methods, and both report the same verdict.
func TestPresslerAcceptsLegalTrace(t *testing.T) {
	spec := raftmongo.SpecV2(checkCfg())
	states := specWalk(t, spec, 60, 2)
	var buf bytes.Buffer
	if err := WriteTraceModule(&buf, states); err != nil {
		t.Fatal(err)
	}
	m, err := ParseTraceModule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := CheckPressler(spec, m)
	d := CheckDirect(spec, m)
	if !p.OK || !d.OK {
		t.Fatalf("pressler=%+v direct=%+v", p, d)
	}
	if p.Steps != d.Steps || p.Steps != len(states) {
		t.Fatalf("steps: pressler=%d direct=%d want %d", p.Steps, d.Steps, len(states))
	}
}

// TestPresslerRejectsCorruptedTrace: both methods reject an illegal jump
// at the same step.
func TestPresslerRejectsCorruptedTrace(t *testing.T) {
	spec := raftmongo.SpecV2(checkCfg())
	states := specWalk(t, spec, 30, 3)
	mid := len(states) / 2
	states[mid].Terms[0] += 17 // impossible jump
	var buf bytes.Buffer
	if err := WriteTraceModule(&buf, states); err != nil {
		t.Fatal(err)
	}
	m, err := ParseTraceModule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := CheckPressler(spec, m)
	d := CheckDirect(spec, m)
	if p.OK || d.OK {
		t.Fatal("corrupted trace accepted")
	}
	if p.FailedStep != d.FailedStep {
		t.Fatalf("failed steps differ: %d vs %d", p.FailedStep, d.FailedStep)
	}
}

// TestPresslerQuadraticAccesses is the cost-model half of experiment E8:
// the Pressler path's sequence accesses grow quadratically with trace
// length, while the direct path stays linear.
func TestPresslerQuadraticAccesses(t *testing.T) {
	spec := raftmongo.SpecV2(checkCfg())
	measure := func(n int) (pressler, direct int) {
		states := specWalk(t, spec, n, 4)
		var buf bytes.Buffer
		if err := WriteTraceModule(&buf, states); err != nil {
			t.Fatal(err)
		}
		m, err := ParseTraceModule(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return CheckPressler(spec, m).Accesses, CheckDirect(spec, m).Accesses
	}
	p100, d100 := measure(100)
	p400, d400 := measure(400)
	// 4x the trace: direct grows ~4x, pressler ~16x.
	if ratio := float64(p400) / float64(p100); ratio < 10 {
		t.Errorf("pressler access ratio = %.1f, want ~16", ratio)
	}
	if ratio := float64(d400) / float64(d100); ratio > 6 {
		t.Errorf("direct access ratio = %.1f, want ~4", ratio)
	}
	t.Logf("accesses at n=100: pressler=%d direct=%d; at n=400: pressler=%d direct=%d",
		p100, d100, p400, d400)
}
