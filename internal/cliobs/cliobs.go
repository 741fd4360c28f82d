// Package cliobs is the command-line tools' shared progress glue: it
// renders the engine's time-based Progress snapshots (and the trace
// checker's TraceProgress) as one-line status reports on stderr. Status
// goes to stderr only, newline-terminated, so the CLIs' primary stdout
// output (verdicts, DOT graphs, JSON) is never corrupted and remains
// pipeable.
package cliobs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tla"
)

// Printer renders progress snapshots for one tool. The zero value is not
// usable; construct with NewPrinter. Observe is safe to use as
// Options.Progress under either delivery contract (it locks internally,
// and the engine never calls Progress concurrently with itself).
type Printer struct {
	w    io.Writer
	tool string
	// budget is Options.MemoryBudgetBytes; when positive the status line
	// includes the remaining headroom before the next spill.
	budget int64

	mu   sync.Mutex
	rate obs.Rate // of Distinct, or of a trace check's Step
	now  func() time.Time
}

// NewPrinter returns a Printer writing `tool: progress: ...` lines to w
// (conventionally os.Stderr).
func NewPrinter(w io.Writer, tool string, budget int64) *Printer {
	return &Printer{w: w, tool: tool, budget: budget, now: time.Now}
}

// Observe renders one engine snapshot. States/sec is the derivative
// against the previous observation (obs.Rate), so the first line reports 0.
func (p *Printer) Observe(prog tla.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rate := p.rate.Observe(prog.Distinct, p.now())

	line := fmt.Sprintf("%s: progress: distinct=%d frontier=%d depth=%d states/s=%.0f spill=%s",
		p.tool, prog.Distinct, prog.Frontier, prog.Depth, rate, Bytes(prog.SpillBytes))
	if p.budget > 0 {
		head := p.budget - prog.ResidentBytes
		if head < 0 {
			head = 0
		}
		line += fmt.Sprintf(" headroom=%s", Bytes(head))
	}
	fmt.Fprintln(p.w, line)
}

// ObserveTrace renders one trace-checker snapshot (TraceOptions.Progress).
// A guided check that diverges checks the trace again from its start, so
// Step can fall: the steps/s of that snapshot reads 0.
func (p *Printer) ObserveTrace(tp tla.TraceProgress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "%s: progress: step=%d/%d frontier=%d steps/s=%.0f\n",
		p.tool, tp.Step, tp.Total, tp.Frontier, p.rate.Observe(tp.Step, p.now()))
}

// Bytes renders a byte count compactly (4.0KiB, 1.2MiB); counts under a
// kibibyte print as plain integers.
func Bytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.1fGiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.1fMiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.1fKiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
