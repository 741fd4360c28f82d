package trace

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/raftmongo"
	"repro/internal/tla"
)

func TestWaitNextMillisecondStrictlyIncreases(t *testing.T) {
	c := NewSimClock(100)
	t1 := WaitNextMillisecond(c)
	t2 := WaitNextMillisecond(c)
	t3 := WaitNextMillisecond(c)
	if !(t1 < t2 && t2 < t3) {
		t.Fatalf("timestamps not strictly increasing: %v %v %v", t1, t2, t3)
	}
}

// TestStrictTimestampOrder is experiment E2: every logged event gets a
// distinct millisecond, even with multiple loggers sharing a clock, so the
// merged stream has a strict order.
func TestStrictTimestampOrder(t *testing.T) {
	clock := NewSimClock(0)
	var bufs [3]bytes.Buffer
	var logs [3]*Logger
	for i := range logs {
		logs[i] = NewLogger(clock, &bufs[i])
	}
	// Interleave logging across nodes.
	for i := 0; i < 30; i++ {
		n := i % 3
		if _, err := logs[n].Log(Event{Node: n, Action: "ClientWrite", Role: "Follower"}); err != nil {
			t.Fatal(err)
		}
	}
	var streams [][]Event
	for i := range bufs {
		evs, err := ReadEvents(&bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 10 {
			t.Fatalf("node %d logged %d events", i, len(evs))
		}
		streams = append(streams, evs)
	}
	merged, err := Merge(streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 30 {
		t.Fatalf("merged %d events", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Timestamp <= merged[i-1].Timestamp {
			t.Fatalf("order violated at %d", i)
		}
	}
}

func TestMergeDetectsDuplicateTimestamps(t *testing.T) {
	streams := [][]Event{
		{{Timestamp: 5, Node: 0}},
		{{Timestamp: 5, Node: 1}},
	}
	_, err := Merge(streams)
	var dup *ErrDuplicateTimestamp
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v", err)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WaitNextMillisecond(&backwardsClock{t: 10})
}

type backwardsClock struct{ t Timestamp }

func (c *backwardsClock) Now() Timestamp { return c.t }
func (c *backwardsClock) Sleep(ms int)   { c.t -= Timestamp(ms) }

// TestCombine reproduces Figure 3: node 2 announces leadership in term 2;
// node 1 (the old leader) is demoted in the combined state.
func TestCombine(t *testing.T) {
	events := []Event{
		{Timestamp: 1, Node: 0, Action: "BecomePrimaryByMagic", Role: "Leader", Term: 1, OplogStart: 1},
		{Timestamp: 2, Node: 1, Action: "BecomePrimaryByMagic", Role: "Leader", Term: 2, OplogStart: 1},
	}
	res, err := Process(3, events, ProcessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 3 {
		t.Fatalf("states = %d", len(res.States))
	}
	s1 := res.States[1]
	if s1.Roles[0] != raftmongo.Leader || s1.Terms[0] != 1 {
		t.Fatalf("after event 1: %v", s1)
	}
	s2 := res.States[2]
	if s2.Roles[0] != raftmongo.Follower || s2.Roles[1] != raftmongo.Leader {
		t.Fatalf("leader exclusivity broken: %v", s2)
	}
	if s2.Terms[0] != 1 || s2.Terms[1] != 2 {
		t.Fatalf("terms: %v", s2.Terms)
	}
	if res.Actions[1] != "BecomePrimaryByMagic" {
		t.Fatalf("actions: %v", res.Actions)
	}
}

func TestCombineStepdownOnlyChangesSelf(t *testing.T) {
	events := []Event{
		{Timestamp: 1, Node: 0, Action: "BecomePrimaryByMagic", Role: "Leader", Term: 1, OplogStart: 1},
		{Timestamp: 2, Node: 0, Action: "Stepdown", Role: "Follower", Term: 1, OplogStart: 1},
	}
	res, err := Process(3, events, ProcessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final := res.States[2]
	for i, r := range final.Roles {
		if r != raftmongo.Follower {
			t.Fatalf("node %d role %v", i, r)
		}
	}
}

func TestOplogPrefixFill(t *testing.T) {
	events := []Event{
		{Timestamp: 1, Node: 0, Action: "BecomePrimaryByMagic", Role: "Leader", Term: 1, OplogStart: 1},
		{Timestamp: 2, Node: 0, Action: "ClientWrite", Role: "Leader", Term: 1, OplogStart: 1, Oplog: []int{1}},
		{Timestamp: 3, Node: 0, Action: "ClientWrite", Role: "Leader", Term: 1, OplogStart: 1, Oplog: []int{1, 1}},
		// Node 1 initial-syncs only the newest entry: oplog starts at 2.
		{Timestamp: 4, Node: 1, Action: "AppendOplog", Role: "Follower", Term: 1, OplogStart: 2, Oplog: []int{1}},
	}
	_, err := Process(3, events, ProcessOptions{})
	if err == nil {
		t.Fatal("expected error without prefix filling")
	}
	res, err := Process(3, events, ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefixFill != 1 {
		t.Fatalf("prefix fills = %d", res.PrefixFill)
	}
	got := res.States[4].Oplogs[1]
	if !slices.Equal(got.Terms(), []int{1, 1}) {
		t.Fatalf("filled oplog = %v", got)
	}
}

// TestProcessRefusesOutOfRange: a State holds at most raftmongo.MaxNodes
// nodes and numbers up to raftmongo.MaxValue, so Process refuses a larger
// replica set and any event carrying a larger (or negative) term, commit
// point, oplog entry or oplog length, with an error naming it.
func TestProcessRefusesOutOfRange(t *testing.T) {
	if _, err := Process(raftmongo.MaxNodes+1, nil, ProcessOptions{}); err == nil || !strings.Contains(err.Error(), "MaxNodes") {
		t.Errorf("Process(%d nodes) err = %v, want a MaxNodes refusal", raftmongo.MaxNodes+1, err)
	}
	if _, err := Process(raftmongo.MaxNodes, nil, ProcessOptions{}); err != nil {
		t.Errorf("Process(%d nodes): %v", raftmongo.MaxNodes, err)
	}
	ok := Event{Node: 0, Action: "ClientWrite", Role: "Leader", Term: raftmongo.MaxValue, CommitPointTerm: raftmongo.MaxValue,
		CommitPointIndex: raftmongo.MaxValue, OplogStart: 1, Oplog: []int{raftmongo.MaxValue}}
	if _, err := Process(3, []Event{ok}, ProcessOptions{}); err != nil {
		t.Fatalf("an event at MaxValue: %v", err)
	}
	for name, bad := range map[string]func(e *Event){
		"term":               func(e *Event) { e.Term = raftmongo.MaxValue + 1 },
		"negative term":      func(e *Event) { e.Term = -1 },
		"commit-point term":  func(e *Event) { e.CommitPointTerm = raftmongo.MaxValue + 1 },
		"commit-point index": func(e *Event) { e.CommitPointIndex = raftmongo.MaxValue + 1 },
		"oplog entry term":   func(e *Event) { e.Oplog = []int{1, raftmongo.MaxValue + 1} },
		"oplog length":       func(e *Event) { e.Oplog = make([]int, raftmongo.MaxValue+1) },
	} {
		e := ok
		bad(&e)
		if _, err := Process(3, []Event{e}, ProcessOptions{}); err == nil || !strings.Contains(err.Error(), "MaxValue") {
			t.Errorf("%s: err = %v, want a MaxValue refusal", name, err)
		}
	}
}

func TestPrefixFillNoDonor(t *testing.T) {
	events := []Event{
		{Timestamp: 1, Node: 1, Action: "AppendOplog", Role: "Follower", Term: 1, OplogStart: 3, Oplog: []int{1}},
	}
	_, err := Process(3, events, ProcessOptions{FillOplogPrefixes: true})
	if err == nil || !strings.Contains(err.Error(), "missing prefix") {
		t.Fatalf("err = %v", err)
	}
}

func TestProcessRejectsBadEvents(t *testing.T) {
	if _, err := Process(3, []Event{{Node: 7, Role: "Follower"}}, ProcessOptions{}); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := Process(3, []Event{{Node: 0, Role: "Arbiter"}}, ProcessOptions{}); err == nil {
		t.Fatal("unknown role accepted")
	}
	if _, err := Process(3, []Event{{Node: 0, Role: "Follower", OplogStart: -1}}, ProcessOptions{}); err == nil {
		t.Fatal("negative oplog start accepted")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	clock := NewSimClock(41)
	var buf bytes.Buffer
	l := NewLogger(clock, &buf)
	in := Event{
		Node: 2, Action: "AdvanceCommitPoint", Role: "Leader", Term: 3,
		CommitPointTerm: 3, CommitPointIndex: 2, OplogStart: 1, Oplog: []int{1, 3},
	}
	ts, err := l.Log(in)
	if err != nil {
		t.Fatal(err)
	}
	if ts != 42 {
		t.Fatalf("ts = %v", ts)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatal("lost event")
	}
	got := evs[0]
	in.Timestamp = ts
	if cp, err := got.CommitPoint(); got.Node != in.Node || got.Action != in.Action || got.Term != in.Term ||
		err != nil || cp != (raftmongo.CommitPoint{Term: 3, Index: 2}) ||
		len(got.Oplog) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if l.Count() != 1 {
		t.Fatalf("count = %d", l.Count())
	}
}

func TestReadEventsBadLine(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"ts\":1}\nnot json\n")); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestObservationsAdaptStates: the processed states serve as
// tla.FullObservation values, usable with the trace checker directly (the
// all-variables-logged path, when no refinement is needed).
func TestObservationsAdaptStates(t *testing.T) {
	events := []Event{
		{Timestamp: 1, Node: 0, Action: "BecomePrimaryByMagic", Role: "Leader", Term: 1, OplogStart: 1},
		{Timestamp: 2, Node: 0, Action: "ClientWrite", Role: "Leader", Term: 1, OplogStart: 1, Oplog: []int{1}},
	}
	res, err := Process(3, events, ProcessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 3 {
		t.Fatalf("states = %d", len(res.States))
	}
	for i, s := range res.States {
		o := tla.FullObservation[raftmongo.State]{Want: s}
		if !o.Matches(res.States[i]) {
			t.Fatalf("observation %d does not match its own state", i)
		}
		if i > 0 && o.Matches(res.States[i-1]) {
			t.Fatalf("observation %d matches the previous state", i)
		}
		if o.String() == "" {
			t.Fatal("empty observation string")
		}
	}
}

func TestTimestampString(t *testing.T) {
	if got := Timestamp(61234).String(); got != "61.234" {
		t.Fatalf("ts string = %q", got)
	}
}
