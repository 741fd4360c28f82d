package cliobs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/tla"
)

// fixedClock hands Observe a deterministic timeline so the states/sec
// derivative is exact.
func fixedClock(times ...time.Time) func() time.Time {
	i := 0
	return func() time.Time {
		t := times[i]
		if i < len(times)-1 {
			i++
		}
		return t
	}
}

func TestObserveLineAndDerivative(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "minitlc", 0)
	t0 := time.Unix(100, 0)
	p.now = fixedClock(t0, t0.Add(2*time.Second))

	p.Observe(tla.Progress{Distinct: 100, Frontier: 10, Depth: 3})
	p.Observe(tla.Progress{Distinct: 300, Frontier: 20, Depth: 5, SpillBytes: 2048})

	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), sb.String())
	}
	// The first observation has no previous snapshot: rate 0.
	want0 := "minitlc: progress: distinct=100 frontier=10 depth=3 states/s=0 spill=0B"
	if lines[0] != want0 {
		t.Fatalf("line 0 = %q, want %q", lines[0], want0)
	}
	// 200 new states over 2 s = 100 states/s.
	want1 := "minitlc: progress: distinct=300 frontier=20 depth=5 states/s=100 spill=2.0KiB"
	if lines[1] != want1 {
		t.Fatalf("line 1 = %q, want %q", lines[1], want1)
	}
}

func TestObserveHeadroomClampsAtZero(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "t", 1<<20)
	p.Observe(tla.Progress{ResidentBytes: 1 << 19})
	p.Observe(tla.Progress{ResidentBytes: 3 << 20}) // over budget: headroom floors at 0
	out := sb.String()
	if !strings.Contains(out, "headroom=512.0KiB") {
		t.Fatalf("missing headroom in:\n%s", out)
	}
	if !strings.Contains(out, "headroom=0B") {
		t.Fatalf("over-budget headroom not clamped to zero:\n%s", out)
	}
}

func TestObserveTraceLine(t *testing.T) {
	var sb strings.Builder
	p := NewPrinter(&sb, "mbtc", 0)
	t0 := time.Unix(7, 0)
	p.now = fixedClock(t0, t0.Add(time.Second))
	p.ObserveTrace(tla.TraceProgress{Step: 5, Total: 40, Frontier: 3})
	p.ObserveTrace(tla.TraceProgress{Step: 25, Total: 40, Frontier: 1})
	want := "mbtc: progress: step=5/40 frontier=3 steps/s=0\n" +
		"mbtc: progress: step=25/40 frontier=1 steps/s=20\n"
	if sb.String() != want {
		t.Fatalf("output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRateRestartIsANewBaseline: a count that falls between two
// snapshots — a checking run started again, or a guided trace check that
// diverged and checks the trace again from its first observation —
// reports 0 per second, not a negative rate, and the next snapshot counts
// from the lower value.
func TestRateRestartIsANewBaseline(t *testing.T) {
	t0 := time.Unix(7, 0)
	clock := func() func() time.Time {
		return fixedClock(t0, t0.Add(time.Second), t0.Add(2*time.Second), t0.Add(3*time.Second))
	}
	var sb strings.Builder
	p := NewPrinter(&sb, "minitlc", 0)
	p.now = clock()
	for _, d := range []int{100, 400, 50, 250} {
		p.Observe(tla.Progress{Distinct: d})
	}
	var tr strings.Builder
	q := NewPrinter(&tr, "mbtc", 0)
	q.now = clock()
	for _, step := range []int{10, 2000, 5, 35} {
		q.ObserveTrace(tla.TraceProgress{Step: step, Total: 2440, Frontier: 1})
	}
	for _, tc := range []struct {
		out  string
		want []string
	}{
		{sb.String(), []string{"states/s=0 ", "states/s=300 ", "states/s=0 ", "states/s=200 "}},
		{tr.String(), []string{"steps/s=0 ", "steps/s=1990 ", "steps/s=0 ", "steps/s=30 "}},
	} {
		lines := strings.Split(strings.TrimSuffix(tc.out, "\n"), "\n")
		if len(lines) != len(tc.want) {
			t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(tc.want), tc.out)
		}
		for i, w := range tc.want {
			if !strings.Contains(lines[i]+" ", w) {
				t.Errorf("line %d = %q, want %q", i, lines[i], w)
			}
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		1 << 10: "1.0KiB",
		1536:    "1.5KiB",
		1 << 20: "1.0MiB",
		1 << 30: "1.0GiB",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Fatalf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}
