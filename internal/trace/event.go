package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/raftmongo"
)

// Event is one trace event: the state of a single node at the moment just
// after it executed one of the specification's named transitions. This is
// the JSON payload logTlaPlusTraceEvent emits (§4.1): the four specification
// variables, plus the action name, node id and timestamp.
type Event struct {
	Timestamp Timestamp `json:"ts"`
	Node      int       `json:"node"`
	Action    string    `json:"action"`
	Role      string    `json:"role"`
	Term      int       `json:"term"`
	// CommitPointTerm/Index encode the commit point; (0,0) is NULL.
	CommitPointTerm  int `json:"cpTerm"`
	CommitPointIndex int `json:"cpIndex"`
	// Oplog holds the terms of the node's visible oplog entries, starting
	// at entry index OplogStart (1-based). A node that initial-synced only
	// recent entries reports OplogStart > 1 — the "copying the oplog"
	// discrepancy of §4.2.2, which post-processing repairs.
	OplogStart int   `json:"oplogStart"`
	Oplog      []int `json:"oplog"`
}

// CommitPoint returns the event's commit point as a spec value, or an
// error when a field lies outside 0..raftmongo.MaxValue.
func (e Event) CommitPoint() (raftmongo.CommitPoint, error) {
	term, err := raftmongo.Narrow("commit-point term", e.CommitPointTerm)
	if err != nil {
		return raftmongo.CommitPoint{}, err
	}
	index, err := raftmongo.Narrow("commit-point index", e.CommitPointIndex)
	if err != nil {
		return raftmongo.CommitPoint{}, err
	}
	return raftmongo.CommitPoint{Term: term, Index: index}, nil
}

// Logger writes a node's trace events as JSON lines, one file (or writer)
// per node, exactly as each mongod process writes its own log file. It
// implements the Figure 2 discipline: every event gets a fresh millisecond.
type Logger struct {
	mu    sync.Mutex
	clock Clock
	w     io.Writer
	count int
}

// NewLogger returns a Logger writing to w using clock for timestamps.
func NewLogger(clock Clock, w io.Writer) *Logger {
	return &Logger{clock: clock, w: w}
}

// Log emits one event, assigning it a fresh-millisecond timestamp. It
// returns the timestamp used.
func (l *Logger) Log(e Event) (Timestamp, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := WaitNextMillisecond(l.clock)
	e.Timestamp = ts
	b, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err != nil {
		return 0, err
	}
	l.count++
	return ts, nil
}

// Count returns the number of events logged.
func (l *Logger) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// ReadEvents decodes a JSON-lines event stream. A line is at most 16 MiB;
// a line that is longer or is not an event fails the whole stream with an
// error naming it ("trace: line N: ...").
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return out, nil
}

// ErrDuplicateTimestamp reports two events sharing a timestamp, which the
// Figure 2 discipline is supposed to make impossible; its occurrence means
// the merge cannot establish a strict order.
type ErrDuplicateTimestamp struct {
	TS Timestamp
}

func (e *ErrDuplicateTimestamp) Error() string {
	return fmt.Sprintf("trace: two events share timestamp %v; strict order unavailable", e.TS)
}

// Merge combines per-node event streams into one stream sorted by
// timestamp — the "combined logs / sort by timestamp" stage of Figure 1.
// Timestamps must be unique across the cluster.
func Merge(streams [][]Event) ([]Event, error) {
	var all []Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp < all[j].Timestamp })
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp == all[i-1].Timestamp {
			return nil, &ErrDuplicateTimestamp{TS: all[i].Timestamp}
		}
	}
	return all, nil
}
