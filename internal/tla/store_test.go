package tla

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFingerprintZero follows fingerprint 0 — a legal FNV-1a output, which
// the fingerprint table cannot store in a slot because 0 marks a slot
// empty — through claim, probe, resident, the EndLevel seal and the
// ResolveLevel restore, beside a fingerprint of the same shard that does
// live in the table.
func TestFingerprintZero(t *testing.T) {
	vs := newVisitedSet(Options{MemoryBudgetBytes: 1}, 2, nil)
	defer vs.Close()

	const other = visitedShards // shard 0, like fingerprint 0
	if _, ok := vs.probe(0, nil); ok {
		t.Fatal("probe of an unclaimed fingerprint 0 hit")
	}
	if id, isNew := vs.claim(0, nil, allocID(5)); id != 5 || !isNew {
		t.Fatalf("first claim of fingerprint 0 = (%d, %t), want (5, true)", id, isNew)
	}
	if id, isNew := vs.claim(0, nil, allocID(9)); id != 5 || isNew {
		t.Fatalf("re-claim of fingerprint 0 = (%d, %t), want (5, false)", id, isNew)
	}
	if id, isNew := vs.claim(other, nil, allocID(6)); id != 6 || !isNew {
		t.Fatalf("claim of fingerprint %d = (%d, %t), want (6, true)", other, id, isNew)
	}
	if id, ok := vs.probe(0, nil); !ok || id != 5 {
		t.Fatalf("probe of fingerprint 0 = (%d, %t), want (5, true)", id, ok)
	}
	if n := vs.resident(); n != 2 {
		t.Fatalf("resident() = %d, want 2", n)
	}

	if err := vs.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if len(vs.runs) != 1 || vs.resident() != 0 {
		t.Fatalf("over-budget EndLevel left %d runs and %d resident ids, want 1 and 0", len(vs.runs), vs.resident())
	}
	fi, err := os.Stat(vs.runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 2*spillRecSize {
		t.Fatalf("sealed run is %d bytes, want both records (%d)", fi.Size(), 2*spillRecSize)
	}
	if _, ok := vs.probe(0, nil); ok {
		t.Fatal("probe after the seal hit fingerprint 0, which is only on disk")
	}

	if err := vs.ResolveLevel([]uint64{other, 0}); err != nil {
		t.Fatal(err)
	}
	if id, ok := vs.probe(0, nil); !ok || id != 5 {
		t.Fatalf("restored fingerprint 0 = (%d, %t), want (5, true)", id, ok)
	}
	if id, ok := vs.probe(other, nil); !ok || id != 6 {
		t.Fatalf("restored fingerprint %d = (%d, %t), want (6, true)", other, id, ok)
	}
	if id, isNew := vs.claim(0, nil, allocID(9)); id != 5 || isNew {
		t.Fatalf("claim of restored fingerprint 0 = (%d, %t), want (5, false)", id, isNew)
	}
	if n := vs.resident(); n != 2 {
		t.Fatalf("resident() after the restore = %d, want 2", n)
	}
}

// TestVisitedSetConcurrentClaims races four goroutines claiming the same
// fingerprints, from different starting points, through several doublings
// of every shard's table: each fingerprint's alloc must run exactly once,
// every goroutine must get the same id for it, the ids must be dense, and
// every probe after the join must hit.
func TestVisitedSetConcurrentClaims(t *testing.T) {
	const (
		goroutines = 4
		n          = 1 << 14 // 256 per shard: four doublings from fpTableMin
	)
	vs := newVisitedSet(Options{Workers: goroutines}, goroutines, nil)
	fps := make([]uint64, n)
	for i := range fps {
		fps[i] = uint64(i) * 0xbf58476d1ce4e5b9 // fps[0] is fingerprint 0
	}
	allocs := make([]atomic.Int32, n)
	var next atomic.Int64
	ids := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		ids[g] = make([]int, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + g*n/goroutines) % n
				id, _ := vs.claim(fps[i], nil, func() int {
					allocs[i].Add(1)
					return int(next.Add(1) - 1)
				})
				ids[g][i] = id
			}
		}(g)
	}
	wg.Wait()

	seen := make([]bool, n)
	for i, fp := range fps {
		if c := allocs[i].Load(); c != 1 {
			t.Fatalf("fingerprint %#x: alloc ran %d times, want once", fp, c)
		}
		id := ids[0][i]
		for g := 1; g < goroutines; g++ {
			if ids[g][i] != id {
				t.Fatalf("fingerprint %#x: goroutine %d got id %d, goroutine 0 got %d", fp, g, ids[g][i], id)
			}
		}
		if id < 0 || id >= n || seen[id] {
			t.Fatalf("fingerprint %#x: id %d is out of range or shared; ids must be dense", fp, id)
		}
		seen[id] = true
		if got, ok := vs.probe(fp, nil); !ok || got != id {
			t.Fatalf("probe of fingerprint %#x after the join = (%d, %t), want (%d, true)", fp, got, ok, id)
		}
	}
	if r := vs.resident(); r != n {
		t.Fatalf("resident() = %d, want %d", r, n)
	}
}

// TestProbeDoesNotAllocate pins the expansion's lookup: a probe, hit or
// miss, allocates nothing in either mode.
func TestProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, 2, nil)
		encs := make([][]byte, 512)
		for i := range encs {
			encs[i] = []byte{byte(i), byte(i >> 8), 'k'}
			if i%2 == 0 {
				vs.claim(fingerprint(encs[i]), encs[i], allocID(i))
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			for _, enc := range encs {
				vs.probe(fingerprint(enc), enc)
			}
		})
		if avg != 0 {
			t.Fatalf("keyed=%t: %d probes allocate %.1f times, want 0", keyed, len(encs), avg)
		}
	}
}
