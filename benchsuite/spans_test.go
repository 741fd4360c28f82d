package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "unit", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b overlaps a", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Name: "c outlives the parent", StartNs: 90, EndNs: 130},
		{ID: 5, Parent: 1, Name: "busy", StartNs: 0, EndNs: 100, BusyNs: 40, Count: 9, Workers: 2},
		{ID: 6, Parent: 3, Name: "grandchild", StartNs: 25, EndNs: 35},
		{ID: 7, Parent: 5, Name: "inside busy", StartNs: 0, EndNs: 5},
		{ID: 8, Parent: 99, Name: "orphan", StartNs: 0, EndNs: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - (40 + 10) - 20, // union of a∪b is [10,50], c clipped to [90,100], busy covers 40/2
		2: 20,
		3: 30 - 10,
		4: 40,
		5: 20 - 5, // a busy span's own duration is its wall-clock share
		6: 10,
		7: 5,
		8: 7,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", id, spans[id-1].Name, self[id], want)
		}
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	self := selfTimes([]span{
		{ID: 1, StartNs: 0, EndNs: 10},
		{ID: 2, Parent: 1, StartNs: 0, EndNs: 10, BusyNs: 50, Workers: 2},
	})
	if self[1] != 0 {
		t.Errorf("self = %d, want 0", self[1])
	}
}

func TestRecorderWritesSpansWithSelfTimes(t *testing.T) {
	rec := &recorder{}
	unit := rec.begin(0, "unit", "u1")
	child := rec.begin(unit, "child", "")
	rec.end(child)
	rec.setUnit("u1", child)
	if d := rec.end(unit); d <= 0 {
		t.Errorf("unit duration %v", d)
	}
	rec.busySpan(unit, "spec.next", 1, 3, 1)
	path, err := rec.write(t.TempDir(), "w", 7)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || f.Seed != 7 || len(f.Spans) != 3 {
		t.Fatalf("span file = %+v", f)
	}
	u, c, b := f.Spans[0], f.Spans[1], f.Spans[2]
	if c.Parent != u.ID || c.Unit != "u1" || b.Unit != "u1" || b.StartNs != u.StartNs || b.EndNs != u.EndNs {
		t.Errorf("spans = %+v", f.Spans)
	}
	if want := (u.EndNs - u.StartNs) - (c.EndNs - c.StartNs) - 1; u.SelfNs != want {
		t.Errorf("unit self = %d, want %d", u.SelfNs, want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	id := rec.begin(0, "x", "")
	rec.setUnit("u", id)
	rec.busySpan(id, "y", 1, 1, 1)
	if rec.end(id) != 0 || id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
}
