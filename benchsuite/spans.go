package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// epoch anchors every timestamp the harness records; nanos reads the
// monotonic clock against it.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// span is one recorded interval at a layer boundary. Spans of one unit of
// work (a repetition, a checkd job) share Unit; Parent is the id of the
// span that caused this one, 0 for a root.
//
// The closures the engine calls a million times a unit (Action.Next,
// Invariant.Check, Observation.Matches, …) are not recorded call by call:
// their accumulated time becomes one busy span per (unit, layer) — Start
// and End are the unit's, BusyNs is the time inside the closure summed
// over Workers goroutines, Count the number of calls.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Count   int64  `json:"count,omitempty"`
	Workers int    `json:"workers,omitempty"`
	SelfNs  int64  `json:"self_ns"` // filled by selfTimes when the file is written
}

func (s span) busy() bool { return s.Workers > 0 }

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, so code shared between the traced and the untraced run
// calls it unconditionally.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens an interval span and returns its id.
func (r *recorder) begin(parent int, name, unit string) int {
	if r == nil {
		return 0
	}
	now := nanos()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Unit: unit, StartNs: now})
	return len(r.spans)
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	now := nanos()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return float64(s.EndNs-s.StartNs) / 1e9
}

// timed records fn as one interval span and returns its duration.
func (r *recorder) timed(parent int, name, unit string, fn func()) float64 {
	id := r.begin(parent, name, unit)
	fn()
	return r.end(id)
}

// setUnit names the unit of spans whose unit was not known when they
// began (a checkd job's id arrives with the POST response).
func (r *recorder) setUnit(unit string, ids ...int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range ids {
		r.spans[id-1].Unit = unit
	}
}

// busySpan records a closure's accumulated time under parent, spanning the
// parent's interval.
func (r *recorder) busySpan(parent int, name string, busyNs, count int64, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Unit: p.Unit,
		StartNs: p.StartNs, EndNs: p.EndNs, BusyNs: busyNs, Count: count, Workers: workers})
}

// selfTimes computes, for every span, its duration minus the part of that
// interval its children cover. Interval children cover the union of their
// intervals clipped to the parent; a busy child covers BusyNs/Workers, the
// wall-clock share of time that ran on Workers goroutines at once. A busy
// span's own duration is that same share. The result never goes negative.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	wall := func(s span) int64 {
		if s.busy() {
			return s.BusyNs / int64(s.Workers)
		}
		return s.EndNs - s.StartNs
	}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	kids := make(map[int][]iv)
	busyKids := make(map[int]int64)
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if s.busy() {
			busyKids[p.ID] += wall(s)
			continue
		}
		lo, hi := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := busyKids[s.ID]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var end int64
		for i, v := range ivs {
			if i == 0 || v.lo > end {
				covered += v.hi - v.lo
				end = v.hi
			} else if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[s.ID] = max(wall(s)-covered, 0)
	}
	return self
}

// spanFile is the layout of out/trace-<workload>.json.
type spanFile struct {
	Workload        string `json:"workload"`
	Seed            int64  `json:"seed"`
	ClockOverheadNs int64  `json:"clock_overhead_ns"`
	Spans           []span `json:"spans"`
}

// write fills in the self times and writes the spans to
// dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i := range r.spans {
		r.spans[i].SelfNs = self[r.spans[i].ID]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, ClockOverheadNs: clockOverheadNs, Spans: r.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
