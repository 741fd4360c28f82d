package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"repro/internal/race"
)

// longTrace returns count events of a three-node replica set whose oplogs
// hold at least base entries: node 0 is elected with base entries, writes
// on every third event while the followers take turns catching up — every
// fourth of them reporting only the second half of its oplog, which the
// post-processor must fill — and halfway through node 1 takes over at
// term 2. Every event owns its oplog slice.
func longTrace(base, count int) []Event {
	leader, term := 0, 1
	log := make([]int, base)
	for k := range log {
		log[k] = 1
	}
	events := []Event{{Node: leader, Action: "BecomePrimaryByMagic", Role: "Leader", Term: term, OplogStart: 1, Oplog: slices.Clone(log)}}
	follower := 1
	for k := 1; k < count; k++ {
		e := Event{Term: term, OplogStart: 1, CommitPointTerm: 1, CommitPointIndex: base / 2}
		switch {
		case k == count/2:
			leader, term = 1, 2
			e.Node, e.Action, e.Role, e.Term = leader, "BecomePrimaryByMagic", "Leader", term
		case k%3 == 0:
			log = append(log, term)
			e.Node, e.Action, e.Role = leader, "ClientWrite", "Leader"
		default:
			follower = (follower + 1) % 3
			if follower == leader {
				follower = (follower + 1) % 3
			}
			e.Node, e.Action, e.Role = follower, "AppendOplog", "Follower"
			if k%4 == 1 {
				e.OplogStart = base/2 + 1
			}
		}
		e.Timestamp = Timestamp(k)
		e.Oplog = slices.Clone(log[e.OplogStart-1:])
		events = append(events, e)
	}
	return events
}

// TestProcessNeverMutates pins the prefix-sharing post-processor.
// Processing must write neither into the events nor into any state it has
// already produced: every States[k] of a whole trace must re-encode exactly
// as the last state of the trace cut after event k does, which no later
// event can have touched. And an event must cost the same allocations and
// the same bytes whatever the length of the oplogs (past the first event,
// which builds the starting oplog): an event allocates
// only the entries no node's oplog already holds, so a processor that
// copied the reporting node's oplog — or every node's — shows up as bytes
// that grow with the trace.
func TestProcessNeverMutates(t *testing.T) {
	opts := ProcessOptions{FillOplogPrefixes: true}
	events := longTrace(30, 120)
	sent, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Process(3, events, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefixFill == 0 {
		t.Fatal("the trace exercises no prefix filling")
	}
	for k, s := range res.States {
		cut, err := Process(3, events[:k], opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.AppendBinary(nil), cut.States[k].AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("state %d was mutated by a later event:\n want %s\n got  %s", k, cut.States[k], s)
		}
	}
	if got, err := json.Marshal(events); err != nil || !bytes.Equal(got, sent) {
		t.Fatalf("processing mutated the events (%v)", err)
	}

	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const count = 300
	perEvent := func(base int) (allocs, bytes, entries float64) {
		events := longTrace(base, count)
		res, err := Process(3, events, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, e := range events {
			entries += float64(res.States[k+1].Oplogs[e.Node].Len())
		}
		// The first event builds the starting oplog, base entries long:
		// its cost is measured apart and taken off.
		cost := func(events []Event) (allocs, bytes float64) {
			run := func() { Process(3, events, opts) }
			allocs = testing.AllocsPerRun(5, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 5 {
				run()
			}
			runtime.ReadMemStats(&after)
			return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 5
		}
		allAllocs, allBytes := cost(events)
		firstAllocs, firstBytes := cost(events[:1])
		return (allAllocs - firstAllocs) / (count - 1), (allBytes - firstBytes) / (count - 1), entries / count
	}
	shortAllocs, shortBytes, _ := perEvent(4)
	longAllocs, longBytes, longLog := perEvent(400)
	t.Logf("per event: %.2f allocations and %.0f B with short oplogs, %.2f allocations and %.0f B with oplogs of %.0f entries", shortAllocs, shortBytes, longAllocs, longBytes, longLog)
	if longAllocs > shortAllocs+0.01 {
		t.Errorf("an event costs %.2f allocations with long oplogs, %.2f with short ones", longAllocs, shortAllocs)
	}
	if longBytes > shortBytes+1 {
		t.Errorf("an event allocates %.0f B with oplogs of %.0f entries, %.0f B with short ones", longBytes, longLog, shortBytes)
	}
}
