package tla

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// heavyState mimics a slice-heavy spec state (identity-indexed slices of
// slices, the shape replica-set states had before they became fixed-width
// values) whose live retention costs far more than its byte encoding — the
// workload arena retention exists for.
type heavyState struct {
	Roles []byte
	Terms []int
	Logs  [][]int
}

func (s heavyState) Key() string {
	return fmt.Sprintf("%v/%v/%v", s.Roles, s.Terms, s.Logs)
}

func (s heavyState) AppendKey(dst []byte) []byte { return append(dst, s.Key()...) }

func (s heavyState) AppendBinary(buf []byte) []byte {
	buf = append(buf, byte(len(s.Roles)))
	for i := range s.Roles {
		buf = append(buf, s.Roles[i])
		buf = binary.AppendUvarint(buf, uint64(s.Terms[i]))
		buf = binary.AppendUvarint(buf, uint64(len(s.Logs[i])))
		for _, t := range s.Logs[i] {
			buf = binary.AppendUvarint(buf, uint64(t))
		}
	}
	return buf
}

func (s heavyState) DecodeBinary(enc []byte) (heavyState, error) {
	if len(enc) == 0 {
		return heavyState{}, fmt.Errorf("heavyState: decode: empty encoding")
	}
	n := int(enc[0])
	enc = enc[1:]
	out := heavyState{Roles: make([]byte, n), Terms: make([]int, n), Logs: make([][]int, n)}
	uvarint := func() (uint64, error) {
		v, k := binary.Uvarint(enc)
		if k <= 0 {
			return 0, fmt.Errorf("heavyState: decode: truncated varint")
		}
		enc = enc[k:]
		return v, nil
	}
	for i := 0; i < n; i++ {
		if len(enc) == 0 {
			return heavyState{}, fmt.Errorf("heavyState: decode: truncated at node %d", i)
		}
		out.Roles[i] = enc[0]
		enc = enc[1:]
		term, err := uvarint()
		if err != nil {
			return heavyState{}, err
		}
		out.Terms[i] = int(term)
		logLen, err := uvarint()
		if err != nil {
			return heavyState{}, err
		}
		log := make([]int, logLen)
		for j := range log {
			t, err := uvarint()
			if err != nil {
				return heavyState{}, err
			}
			log[j] = int(t)
		}
		out.Logs[i] = log
	}
	return out, nil
}

func mkHeavyState(i int) heavyState {
	s := heavyState{Roles: make([]byte, 3), Terms: make([]int, 3), Logs: make([][]int, 3)}
	for n := 0; n < 3; n++ {
		s.Roles[n] = byte((i + n) % 2)
		s.Terms[n] = (i >> n) % 4
		log := make([]int, (i+n)%4)
		for j := range log {
			log[j] = (i + j) % 4
		}
		s.Logs[n] = log
	}
	return s
}

// BenchmarkArenaGraph measures graph recording: states retained and edges
// recorded into the arena's append-only edge segments, with states
// retained as arena encodings under a budget (resident: never reached;
// spill: a tight one) or as live values without one (live — whose graph
// is the same edge segments beside the live pages). Reported per variant: edge recording throughput
// (edges/sec) and the heap bytes one state retains with graph recording on
// (retained-B/state) — the number that must stay flat as the graph grows,
// since edges live in segments, not the heap.
func BenchmarkArenaGraph(b *testing.B) {
	const n = 50000
	spec := &Spec[heavyState]{
		Name:    "heavy",
		Actions: []Action[heavyState]{{Name: "Step"}},
	}
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"resident", bigBudget}, {"spill", 1 << 16}, {"live", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				ret := newRetainer(spec, Options{MemoryBudgetBytes: mode.budget}, nil)
				var encBuf []byte
				for j := 0; j < n; j++ {
					s := mkHeavyState(j)
					encBuf = s.AppendBinary(encBuf[:0])
					ret.add(s, encBuf, j-1, ret.actIDs[0], j)
					ret.dropBelow(j) // arena mode: as after each merged level
					if j > 0 {
						ret.arena.addEdge(j-1, ret.actIDs[0], j)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/n, "retained-B/state")
				runtime.KeepAlive(ret)
				if err := ret.close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*(n-1)/b.Elapsed().Seconds(), "edges/sec")
		})
	}
}

// BenchmarkArenaRetention measures what the retained-state arena is for:
// the heap bytes one discovered state costs to retain until the end of a
// run, live S values (the default) against arena encodings (a run under a
// memory budget). The retained-B/state metric is heap growth across
// retaining 50k states, measured between forced GCs with the retention
// still referenced; arena mode must come in severalfold under live mode
// on this slice-heavy state.
func BenchmarkArenaRetention(b *testing.B) {
	const n = 50000
	spec := &Spec[heavyState]{
		Name:    "heavy",
		Actions: []Action[heavyState]{{Name: "Step"}},
	}
	for _, mode := range []struct {
		name   string
		budget int64
	}{{"live", 0}, {"arena", bigBudget}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				ret := newRetainer(spec, Options{MemoryBudgetBytes: mode.budget}, nil)
				var encBuf []byte
				for j := 0; j < n; j++ {
					s := mkHeavyState(j)
					encBuf = s.AppendBinary(encBuf[:0])
					ret.add(s, encBuf, j-1, ret.actIDs[0], j)
					ret.dropBelow(j) // arena mode: as after each merged level
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				b.ReportMetric((float64(after.HeapAlloc)-float64(before.HeapAlloc))/n, "retained-B/state")
				runtime.KeepAlive(ret)
				if err := ret.close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
