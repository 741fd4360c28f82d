package tla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// resident counts the ids the shards hold.
func (vs *visitedSet) resident() int {
	n := 0
	for i := range vs.shards {
		n += vs.shards[i].n
	}
	return n
}

// TestFingerprintZero follows fingerprint 0 — a legal FNV-1a output, and
// the value of an empty slot's fingerprint word — through own, probe,
// resident, the EndLevel seal and the ResolveLevel restore, beside another
// fingerprint of the same shard.
func TestFingerprintZero(t *testing.T) {
	vs := newVisitedSet(Options{MemoryBudgetBytes: 1}, nil)
	defer vs.Close()

	const other = visitedShards // shard 0, like fingerprint 0
	if _, ok := vs.probe(0, nil); ok {
		t.Fatal("probe of an unclaimed fingerprint 0 hit")
	}
	if id, isNew := vs.own(0, nil, 5); id != 5 || !isNew {
		t.Fatalf("first own of fingerprint 0 = (%d, %t), want (5, true)", id, isNew)
	}
	if id, isNew := vs.own(0, nil, 9); id != 5 || isNew {
		t.Fatalf("second own of fingerprint 0 = (%d, %t), want (5, false)", id, isNew)
	}
	if id, isNew := vs.own(other, nil, 6); id != 6 || !isNew {
		t.Fatalf("own of fingerprint %d = (%d, %t), want (6, true)", other, id, isNew)
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
	if vs.run == "" || vs.resident() != 0 {
		t.Fatalf("over-budget EndLevel left run %q and %d resident ids, want a run and 0", vs.run, vs.resident())
	}
	fi, err := os.Stat(vs.run)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 2*spillRecSize {
		t.Fatalf("sealed run is %d bytes, want both records (%d)", fi.Size(), 2*spillRecSize)
	}
	if _, ok := vs.probe(0, nil); ok {
		t.Fatal("probe after the seal hit fingerprint 0, which is only on disk")
	}

	if err := vs.ResolveLevel([]uint64{other, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if id, ok := vs.probe(0, nil); !ok || id != 5 {
		t.Fatalf("restored fingerprint 0 = (%d, %t), want (5, true)", id, ok)
	}
	if id, ok := vs.probe(other, nil); !ok || id != 6 {
		t.Fatalf("restored fingerprint %d = (%d, %t), want (6, true)", other, id, ok)
	}
	if id, isNew := vs.own(0, nil, 9); id != 5 || isNew {
		t.Fatalf("own of restored fingerprint 0 = (%d, %t), want (5, false)", id, isNew)
	}
	if n := vs.resident(); n != 2 {
		t.Fatalf("resident() after the restore = %d, want 2", n)
	}
}

// TestKeyedSetSpills seals a keyed set whose states share one fingerprint:
// the run holds one record per state, the keys go with the tables, and
// ResolveLevel restores each spilled state with the key it reads back by
// id, so a claim tells the spilled states apart by their bytes again and a
// new state with the same fingerprint is new.
func TestKeyedSetSpills(t *testing.T) {
	vs := newVisitedSet(Options{MemoryBudgetBytes: 1, CollisionFree: true}, nil)
	defer vs.Close()
	const fp = 42
	keys := map[int]string{3: "a", 4: "b", 8: "c"}
	for _, id := range []int{3, 4, 8} {
		if _, isNew := vs.own(fp, []byte(keys[id]), id); !isNew {
			t.Fatalf("own of %q found a state", keys[id])
		}
	}
	if err := vs.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if vs.run == "" || vs.resident() != 0 || vs.residentBytes() != 0 {
		t.Fatalf("over-budget EndLevel left run %q, %d resident ids and %d resident bytes, want a run, 0 and 0", vs.run, vs.resident(), vs.residentBytes())
	}
	if vs.sealed != 3*spillRecSize {
		t.Fatalf("sealed run is %d bytes, want one record per state (%d)", vs.sealed, 3*spillRecSize)
	}
	var reads []int
	key := func(id int) ([]byte, error) {
		reads = append(reads, id)
		return []byte(keys[id]), nil
	}
	if err := vs.ResolveLevel([]uint64{fp + visitedShards, fp}, key); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reads) != "[3 4 8]" {
		t.Fatalf("ResolveLevel read the keys of %v, want those of states 3, 4 and 8, once each", reads)
	}
	for id, k := range keys {
		if got, isNew := vs.own(fp, []byte(k), 100); got != id || isNew {
			t.Fatalf("own of the restored %q = (%d, %t), want (%d, false)", k, got, isNew, id)
		}
	}
	if got, isNew := vs.own(fp, []byte("d"), 9); got != 9 || !isNew {
		t.Fatalf("own of a new state with a spilled fingerprint = (%d, %t), want (9, true)", got, isNew)
	}
	wantErr := errors.New("unreadable")
	if err := vs.EndLevel(); err != nil {
		t.Fatal(err)
	}
	if err := vs.ResolveLevel([]uint64{fp}, func(int) ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("ResolveLevel with a failing key read = %v, want %v", err, wantErr)
	}
}

// TestVisitedSetConcurrentClaims runs the merge's claim pass the way the
// engine does — four goroutines, each the one owner of every fourth shard —
// over several doublings of every shard's table: each state's first own
// must insert its id, a second own must find it, and every probe after the
// join must hit. Keyed, 32 states share each fingerprint, so colliding
// states chain to separate slots while the other owners insert.
func TestVisitedSetConcurrentClaims(t *testing.T) {
	const (
		goroutines = 4
		n          = 1 << 14 // 256 per shard: four doublings from fpTableMin
	)
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: goroutines, CollisionFree: keyed}, nil)
		fps := make([]uint64, n)
		encs := make([][]byte, n)
		for i := range fps {
			fps[i] = uint64(i) * 0xbf58476d1ce4e5b9 // fps[0] is fingerprint 0
			if keyed {
				fps[i] = uint64(i%(n/32)) * 0xbf58476d1ce4e5b9
				encs[i] = []byte(fmt.Sprint(i))
			}
		}
		var bad atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range fps {
					if int(fps[i]&(visitedShards-1))%goroutines != g {
						continue
					}
					if id, isNew := vs.own(fps[i], encs[i], i); id != i || !isNew {
						bad.Add(1)
					}
					if id, isNew := vs.own(fps[i], encs[i], -1); id != i || isNew {
						bad.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if b := bad.Load(); b != 0 {
			t.Fatalf("keyed=%t: %d owns answered a wrong id or newness", keyed, b)
		}
		for i, fp := range fps {
			if got, ok := vs.probe(fp, encs[i]); !ok || got != i {
				t.Fatalf("keyed=%t: probe of state %d after the join = (%d, %t), want (%d, true)", keyed, i, got, ok, i)
			}
		}
		if r := vs.resident(); r != n {
			t.Fatalf("keyed=%t: resident() = %d, want %d", keyed, r, n)
		}
	}
}

// TestProbeDoesNotAllocate pins the expansion's lookup: a probe, hit or
// miss, allocates nothing in either mode.
func TestProbeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, nil)
		encs := make([][]byte, 512)
		for i := range encs {
			encs[i] = []byte{byte(i), byte(i >> 8), 'k'}
			if i%2 == 0 {
				vs.own(fingerprint(encs[i]), encs[i], i)
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

// TestStoreFingerprintCollisions drives the merge's protocol — own, then
// publish, then probe, then own again — over encodings that share a
// fingerprint, 0 and a non-zero one, in a keyed set: every encoding must
// keep its own slot and id, through several doublings of its shard's
// table, and an unseen encoding with the same fingerprint must miss.
func TestStoreFingerprintCollisions(t *testing.T) {
	const n = 100 // 16 → 256 slots: four doublings
	enc := func(fp uint64, i int) []byte { return []byte(fmt.Sprintf("%x/%d", fp, i)) }
	for _, fp := range []uint64{0, 0x9e3779b97f4a7c15} {
		vs := newVisitedSet(Options{CollisionFree: true}, nil)
		for i := 0; i < n; i++ {
			if id, isNew := vs.own(fp, enc(fp, i), -2-i); id != -2-i || !isNew {
				t.Fatalf("fp %#x: own of encoding %d = (%d, %t), want its placeholder (%d, true)", fp, i, id, isNew, -2-i)
			}
		}
		for i := 0; i < n; i++ {
			if id, isNew := vs.own(fp, enc(fp, i), -1000); id != -2-i || isNew {
				t.Fatalf("fp %#x: second own of encoding %d = (%d, %t), want (%d, false)", fp, i, id, isNew, -2-i)
			}
		}
		for i := 0; i < n; i++ {
			vs.publish(fp, enc(fp, i), 3*i)
		}
		for i := 0; i < n; i++ {
			if id, ok := vs.probe(fp, enc(fp, i)); !ok || id != 3*i {
				t.Fatalf("fp %#x: probe of encoding %d = (%d, %t), want (%d, true)", fp, i, id, ok, 3*i)
			}
		}
		if _, ok := vs.probe(fp, enc(fp, n)); ok {
			t.Fatalf("fp %#x: probe of an unseen encoding hit", fp)
		}
		for i := n; i < 2*n; i++ {
			if id, isNew := vs.own(fp, enc(fp, i), 3*i); id != 3*i || !isNew {
				t.Fatalf("fp %#x: own of encoding %d = (%d, %t), want (%d, true)", fp, i, id, isNew, 3*i)
			}
		}
		for i := 0; i < 2*n; i++ {
			if id, isNew := vs.own(fp, enc(fp, i), -1); id != 3*i || isNew {
				t.Fatalf("fp %#x: re-own of encoding %d = (%d, %t), want (%d, false)", fp, i, id, isNew, 3*i)
			}
		}
		if r := vs.resident(); r != 2*n {
			t.Fatalf("fp %#x: resident() = %d, want %d", fp, r, 2*n)
		}
	}
}

// TestOwnDoesNotAllocate pins the merge's claim pass: owning a fresh state
// allocates nothing beyond amortized table doubling and, keyed, key
// storage blocks.
func TestOwnDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, nil)
		next := 0
		var enc [8]byte
		const perRun = 4096
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < perRun; i++ {
				binary.LittleEndian.PutUint64(enc[:], uint64(next))
				vs.own(fingerprint(enc[:]), enc[:], next)
				next++
			}
		})
		if perOwn := avg / perRun; perOwn >= 0.5 {
			t.Fatalf("keyed=%t: owning a fresh state allocates %.2f times on average, want < 0.5", keyed, perOwn)
		}
	}
}
