package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", ExpBuckets(1, 2, 3))
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.Help("x_total", "help")
	// Every mutating method must be a no-op on nil handles.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry rendered %q", sb.String())
	}
}

func TestCounterAndGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total") != c {
		t.Fatal("same name must yield the same counter handle")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("depth") != g {
		t.Fatal("same name must yield the same gauge handle")
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("w", []float64{10, 1, 100}) // registration sorts bounds
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 1066.5 {
		t.Fatalf("sum = %g, want 1066.5", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// Buckets are cumulative: le=1 holds {0.5,1}, le=10 adds {5,10},
	// le=100 adds {50}, +Inf adds {1000}.
	want := "# TYPE w histogram\n" +
		"w_bucket{le=\"1\"} 2\n" +
		"w_bucket{le=\"10\"} 4\n" +
		"w_bucket{le=\"100\"} 5\n" +
		"w_bucket{le=\"+Inf\"} 6\n" +
		"w_sum 1066.5\n" +
		"w_count 6\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestLabeledHistograms pins histograms of one family told apart by a
// label set: one HELP/TYPE block, the name's labels on every sample after
// an injected one and before le, label sets in order.
func TestLabeledHistograms(t *testing.T) {
	r := NewRegistry()
	r.Help("p_seconds", "phases")
	r.Histogram(`p_seconds{phase="merge"}`, []float64{1}).Observe(2)
	r.Histogram(`p_seconds{phase="expand"}`, []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheusLabeled(&sb, "job", "j"); err != nil {
		t.Fatal(err)
	}
	want := "# HELP p_seconds phases\n" +
		"# TYPE p_seconds histogram\n" +
		"p_seconds_bucket{job=\"j\",phase=\"expand\",le=\"1\"} 1\n" +
		"p_seconds_bucket{job=\"j\",phase=\"expand\",le=\"+Inf\"} 1\n" +
		"p_seconds_sum{job=\"j\",phase=\"expand\"} 0.5\n" +
		"p_seconds_count{job=\"j\",phase=\"expand\"} 1\n" +
		"p_seconds_bucket{job=\"j\",phase=\"merge\",le=\"1\"} 0\n" +
		"p_seconds_bucket{job=\"j\",phase=\"merge\",le=\"+Inf\"} 1\n" +
		"p_seconds_sum{job=\"j\",phase=\"merge\"} 2\n" +
		"p_seconds_count{job=\"j\",phase=\"merge\"} 1\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Help("b_total", "bees")
	r.Counter(`b_total{kind="honey"}`).Add(2)
	r.Counter(`b_total{kind="bumble"}`).Add(3)
	r.Gauge("a").Set(1)
	r.GaugeFunc("c", func() float64 { return 2.5 })
	want := "# TYPE a gauge\n" +
		"a 1\n" +
		"# HELP b_total bees\n" +
		"# TYPE b_total counter\n" +
		"b_total{kind=\"bumble\"} 3\n" +
		"b_total{kind=\"honey\"} 2\n" +
		"# TYPE c gauge\n" +
		"c 2.5\n"
	for i := 0; i < 3; i++ { // map iteration must not leak into the output
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
		}
	}
}

func TestLabelInjectionAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("bare_total").Inc()
	r.Counter(`labeled_total{x="1"}`).Inc()
	var sb strings.Builder
	if err := r.WritePrometheusLabeled(&sb, "job", "a\\b\"c\nd"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`bare_total{job="a\\b\"c\nd"} 1`,
		`labeled_total{job="a\\b\"c\nd",x="1"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

func TestWritePrometheusMultiMergesFamilies(t *testing.T) {
	mk := func(n int64) *Registry {
		r := NewRegistry()
		r.Help("tla_x_total", "shared family")
		r.Counter("tla_x_total").Add(n)
		r.Histogram("tla_w", []float64{1}).Observe(float64(n))
		return r
	}
	proc := NewRegistry()
	proc.Counter("checkd_jobs_total").Add(9)
	var sb strings.Builder
	err := WritePrometheusMulti(&sb, []Labeled{
		{Reg: proc},
		{Key: "job", Value: "j1", Reg: mk(1)},
		{Key: "job", Value: "j2", Reg: mk(2)},
		{Reg: nil}, // skipped
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// One HELP/TYPE block per family even though two registries carry it —
	// duplicated metadata blocks are invalid exposition.
	if n := strings.Count(out, "# TYPE tla_x_total counter\n"); n != 1 {
		t.Fatalf("TYPE block count = %d, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# HELP tla_x_total shared family\n"); n != 1 {
		t.Fatalf("HELP block count = %d, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE tla_w histogram\n"); n != 1 {
		t.Fatalf("histogram TYPE block count = %d, want 1:\n%s", n, out)
	}
	for _, line := range []string{
		"checkd_jobs_total 9",
		`tla_x_total{job="j1"} 1`,
		`tla_x_total{job="j2"} 2`,
		`tla_w_bucket{job="j1",le="1"} 1`,
		`tla_w_bucket{job="j2",le="+Inf"} 1`,
		`tla_w_count{job="j1"} 1`,
		`tla_w_count{job="j2"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:             "1",
		2.5:           "2.5",
		math.Inf(1):   "+Inf",
		math.Inf(-1):  "-Inf",
		math.NaN():    "NaN",
		0.001:         "0.001",
		1000000000000: "1e+12",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestConcurrentScrape exercises handle updates racing a scrape; its value
// is under -race, where any unsynchronized access fails the run.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 10, 4))
	r.GaugeFunc("f", func() float64 { return float64(c.Value()) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				c.Inc()
				g.Add(1)
				h.Observe(3)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("no updates observed")
	}
	if got, want := h.Sum(), float64(h.Count())*3; got != want {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}
