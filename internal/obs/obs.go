// Package obs is the engine's dependency-free observability layer: atomic
// counters, gauges and bounded histograms collected in a Registry that can
// render itself in the Prometheus text exposition format, plus a structured
// JSONL run journal (journal.go).
//
// The package is built for hot paths that may or may not be instrumented:
// every handle constructor is nil-receiver safe (a nil *Registry returns nil
// handles) and every mutating method on a handle is a no-op on a nil
// receiver. Engine code therefore resolves its handles once at run start and
// calls them unconditionally — the uninstrumented cost is one predictable
// nil-check branch, with no map lookups or allocation on the hot path.
//
// Metric names follow the Prometheus convention: a family name, optionally
// followed by a `{key="value",...}` label set baked into the handle name
// (labels are static for the life of the handle — there is no dynamic label
// API, which is what keeps Observe/Add allocation-free). Counter families
// should end in `_total`. Histograms must be registered with a bare family
// name (no labels): the exposition writer synthesizes their `_bucket`,
// `_sum` and `_count` series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), so callers never branch on whether
// instrumentation is enabled.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is a programming error; it is not checked on the
// hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Integer-valued: every engine
// gauge (queue depth, pending work items) is a count of things.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram with fixed upper bounds chosen at
// registration. Observe is lock-free: one atomic add into the matching
// bucket, one into the total count, and a CAS loop folding the value into
// the float64-bits sum.
type Histogram struct {
	bounds []float64      // sorted inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the `le` bucket; past the last bound lands in +Inf.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the standard shape for level widths, fan-outs and
// durations, whose interesting range spans orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. A nil *Registry is valid: every constructor returns a
// nil handle, so an uninstrumented run never touches a map or a lock.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	help       map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		hists:      make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. The same name always yields the same handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time. The
// callback must be safe to call from any goroutine for as long as the
// registry is scraped; it replaces any previous function under name.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it with
// the given upper bounds on first use (later calls ignore buckets). Like a
// counter's, the name may carry a label set (`family{key="value"}`), which
// every bucket, sum and count sample of it repeats.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Help attaches HELP text to a metric family (the name before any `{`).
func (r *Registry) Help(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// familyOf strips the label set from a sample name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelsOf returns the label pairs of a sample name, without the braces;
// "" for a bare name.
func labelsOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return strings.TrimSuffix(name[i+1:], "}")
	}
	return ""
}

// injectLabel merges an extra `key="value"` pair into a sample name's label
// set, creating one if the name is bare. extra is pre-rendered (escaped).
func injectLabel(name, extra string) string {
	if extra == "" {
		return name
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i+1] + extra + "," + name[i+1:]
	}
	return name + "{" + extra + "}"
}

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered: families
// sorted by name, samples sorted within each family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusLabeled(w, "", "")
}

// WritePrometheusLabeled is WritePrometheus with one extra label pair
// injected into every sample — how checkd scopes a per-job registry with
// job="<id>" when merging it into the process scrape.
func (r *Registry) WritePrometheusLabeled(w io.Writer, key, value string) error {
	return WritePrometheusMulti(w, []Labeled{{Key: key, Value: value, Reg: r}})
}

// Labeled pairs a registry with one label injected into every sample it
// contributes to a merged scrape. An empty Key contributes samples as-is.
type Labeled struct {
	Key, Value string
	Reg        *Registry
}

// regSample is one non-histogram exposition line, extra label pre-injected.
type regSample struct {
	name string
	val  string
}

// regHistSnap is one registry's view of a histogram family, with the
// owning part's extra label kept for bucket rendering.
type regHistSnap struct {
	extra  string
	bounds []float64
	counts []int64
	count  int64
	sum    float64
}

// WritePrometheusMulti merges several labeled registries into one valid
// exposition: each family gets exactly one HELP/TYPE block even when
// multiple registries carry it (checkd's per-job engine registries all
// register the tla_* families), with every part's samples distinguished by
// its injected label. Families are sorted, samples sorted within each;
// nil registries are skipped.
func WritePrometheusMulti(w io.Writer, parts []Labeled) error {
	families := make(map[string]string) // family -> type
	samples := make(map[string][]regSample)
	hsnaps := make(map[string][]regHistSnap)
	help := make(map[string]string)

	for _, part := range parts {
		r := part.Reg
		if r == nil {
			continue
		}
		extra := ""
		if part.Key != "" {
			extra = part.Key + `="` + escapeLabelValue(part.Value) + `"`
		}
		r.mu.Lock()
		for name, c := range r.counters {
			f := familyOf(name)
			families[f] = "counter"
			samples[f] = append(samples[f], regSample{injectLabel(name, extra), strconv.FormatInt(c.Value(), 10)})
		}
		for name, g := range r.gauges {
			f := familyOf(name)
			families[f] = "gauge"
			samples[f] = append(samples[f], regSample{injectLabel(name, extra), strconv.FormatInt(g.Value(), 10)})
		}
		for name, fn := range r.gaugeFuncs {
			f := familyOf(name)
			families[f] = "gauge"
			samples[f] = append(samples[f], regSample{injectLabel(name, extra), formatFloat(fn())})
		}
		for name, h := range r.hists {
			f := familyOf(name)
			families[f] = "histogram"
			hs := regHistSnap{extra: joinLabels(extra, labelsOf(name)), bounds: h.bounds, count: h.Count(), sum: h.Sum()}
			hs.counts = make([]int64, len(h.counts))
			for i := range h.counts {
				hs.counts[i] = h.counts[i].Load()
			}
			hsnaps[f] = append(hsnaps[f], hs)
		}
		for k, v := range r.help {
			if _, ok := help[k]; !ok {
				help[k] = v
			}
		}
		r.mu.Unlock()
	}

	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, f := range names {
		if h := help[f]; h != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f, h)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f, families[f])
		if families[f] == "histogram" {
			snaps := hsnaps[f]
			sort.Slice(snaps, func(i, j int) bool { return snaps[i].extra < snaps[j].extra })
			for _, hs := range snaps {
				cum := int64(0)
				for i, bound := range hs.bounds {
					cum += hs.counts[i]
					fmt.Fprintf(&b, "%s %d\n", injectLabel(f+"_bucket", joinLabels(hs.extra, `le="`+formatFloat(bound)+`"`)), cum)
				}
				cum += hs.counts[len(hs.bounds)]
				fmt.Fprintf(&b, "%s %d\n", injectLabel(f+"_bucket", joinLabels(hs.extra, `le="+Inf"`)), cum)
				fmt.Fprintf(&b, "%s %s\n", injectLabel(f+"_sum", hs.extra), formatFloat(hs.sum))
				fmt.Fprintf(&b, "%s %d\n", injectLabel(f+"_count", hs.extra), hs.count)
			}
			continue
		}
		ss := samples[f]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		for _, s := range ss {
			fmt.Fprintf(&b, "%s %s\n", s.name, s.val)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// joinLabels concatenates pre-rendered label pairs, skipping empties.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	return a + "," + b
}

// formatFloat renders a float the way Prometheus expects: shortest exact
// decimal, `+Inf`/`-Inf`/`NaN` spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
