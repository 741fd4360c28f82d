package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// FuzzReadEvents feeds arbitrary bytes to ReadEvents, the MBTC log decoder.
// It never panics; a failure names a line of the input ("trace: line N:");
// it allocates at most a fixed buffer plus a constant multiple of its
// input; and the events it accepts, written out again as Logger writes
// them, decode to the same events.
func FuzzReadEvents(f *testing.F) {
	for _, e := range longTrace(3, 6) {
		line, err := json.Marshal(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	f.Add([]byte("\n\n{}\n"))
	f.Add([]byte(`{"ts":1,"node":0,"oplog":[1,1,2]}` + "\n" + `{"ts":2,"node":1,"oplog":"x"}`))
	f.Add([]byte(`{"ts":1e400}`))
	f.Add([]byte(`{"oplog":[` + "\n"))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		events, err := ReadEvents(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<17+1024*len(data)); grown > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(data), grown, limit)
		}
		if err != nil {
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "trace: line %d:", &n); serr != nil || n < 1 || n > bytes.Count(data, []byte{'\n'})+1 {
				t.Fatalf("error names no line of the input: %v", err)
			}
			if events != nil {
				t.Fatalf("a failed decode returned %d events", len(events))
			}
			return
		}
		var buf bytes.Buffer
		for _, e := range events {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		again, err := ReadEvents(&buf)
		if err != nil {
			t.Fatalf("re-encoded events do not decode: %v", err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("re-encoded events decode differently:\n was %+v\n now %+v", events, again)
		}
	})
}
