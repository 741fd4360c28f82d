package tla

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/race"
)

// resident counts the ids the shards hold.
func (vs *visitedSet) resident() int {
	n := 0
	for i := range vs.shards {
		n += vs.shards[i].n
	}
	return n
}

// useFingerprint substitutes fn for the fingerprint function until the
// test ends.
func useFingerprint(t testing.TB, fn func([]byte) uint64) {
	orig := fingerprint
	fingerprint = fn
	t.Cleanup(func() { fingerprint = orig })
}

// prefixFP is a test fingerprint function that lets a test choose each
// state's fingerprint: an encoding's first 8 bytes, little-endian, as
// fpEnc lays them out.
func prefixFP(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// fpEnc returns an encoding that prefixFP hashes to fp, followed by tail.
func fpEnc(fp uint64, tail []byte) []byte {
	return append(binary.LittleEndian.AppendUint64(nil, fp), tail...)
}

// TestFingerprintZero follows a state whose fingerprint is 0 — a legal
// FNV-1a output, and the value of an empty slot's fingerprint word —
// through stateFP, which must not return 0, and then own, probe, resident,
// the EndLevel seal and the ResolveLevel restore, beside another
// fingerprint of the same shard.
func TestFingerprintZero(t *testing.T) {
	useFingerprint(t, prefixFP)
	vs := newVisitedSet(Options{MemoryBudgetBytes: 1}, nil)
	defer vs.Close()

	zero := fpEnc(0, nil)
	if f := fingerprint(zero); f != 0 {
		t.Fatalf("the test encoding fingerprints to %#x, want 0", f)
	}
	fp := stateFP(zero)
	if fp == 0 {
		t.Fatal("stateFP returned 0, the empty slot's fingerprint word")
	}
	other := stateFP(fpEnc(fp+visitedShards, nil)) // fp's shard
	if _, ok := vs.probe(fp, zero); ok {
		t.Fatal("probe of an unclaimed fingerprint-0 state hit")
	}
	if id, isNew := vs.own(fp, zero, 5); id != 5 || !isNew {
		t.Fatalf("first own of the fingerprint-0 state = (%d, %t), want (5, true)", id, isNew)
	}
	if id, isNew := vs.own(stateFP(zero), zero, 9); id != 5 || isNew {
		t.Fatalf("second own of the fingerprint-0 state = (%d, %t), want (5, false)", id, isNew)
	}
	if id, isNew := vs.own(other, nil, 6); id != 6 || !isNew {
		t.Fatalf("own of fingerprint %d = (%d, %t), want (6, true)", other, id, isNew)
	}
	if id, ok := vs.probe(fp, zero); !ok || id != 5 {
		t.Fatalf("probe of the fingerprint-0 state = (%d, %t), want (5, true)", id, ok)
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
	if _, ok := vs.probe(fp, zero); ok {
		t.Fatal("probe after the seal hit the fingerprint-0 state, which is only on disk")
	}

	if err := vs.ResolveLevel([]uint64{other, fp}, nil); err != nil {
		t.Fatal(err)
	}
	if id, ok := vs.probe(fp, zero); !ok || id != 5 {
		t.Fatalf("restored fingerprint-0 state = (%d, %t), want (5, true)", id, ok)
	}
	if id, ok := vs.probe(other, nil); !ok || id != 6 {
		t.Fatalf("restored fingerprint %d = (%d, %t), want (6, true)", other, id, ok)
	}
	if id, isNew := vs.own(fp, zero, 9); id != 5 || isNew {
		t.Fatalf("own of the restored fingerprint-0 state = (%d, %t), want (5, false)", id, isNew)
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
	key := func(recs []spillRec, restore func(spillRec, []byte)) error {
		for _, rec := range recs {
			reads = append(reads, int(rec.id))
			restore(rec, []byte(keys[int(rec.id)]))
		}
		return nil
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
	if err := vs.ResolveLevel([]uint64{fp}, func([]spillRec, func(spillRec, []byte)) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("ResolveLevel with a failing key read = %v, want %v", err, wantErr)
	}
}

// TestVisitedSetConcurrentClaims runs the merge's claim pass the way the
// engine does — four goroutines, each the one owner of every fourth shard —
// over several doublings of every shard's table: each state's first own
// must insert its id, a second own must find it, and every probe after the
// join must hit. Keyed, 32 states share each fingerprint, so colliding
// states chain to separate slots while the other owners insert. The
// fingerprints come from stateFP, and state 0 fingerprints to 0.
func TestVisitedSetConcurrentClaims(t *testing.T) {
	const (
		goroutines = 4
		n          = 1 << 14 // 256 per shard: four doublings from fpTableMin
	)
	useFingerprint(t, prefixFP)
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: goroutines, CollisionFree: keyed}, nil)
		fps := make([]uint64, n)
		encs := make([][]byte, n)
		for i := range fps {
			encs[i] = fpEnc(uint64(i)*0xbf58476d1ce4e5b9, nil)
			if keyed {
				encs[i] = fpEnc(uint64(i%(n/32))*0xbf58476d1ce4e5b9, []byte(fmt.Sprint(i)))
			}
			fps[i] = stateFP(encs[i])
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

// TestProbeDoesNotAllocate pins the lookups: a probe, hit or miss,
// allocates nothing in either mode, and neither does the expansion's
// batched probe once its buffers have grown to the batch.
func TestProbeDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{Workers: 2, CollisionFree: keyed}, nil)
		encs := make([][]byte, 512)
		var b probeInput
		for i := range encs {
			encs[i] = []byte{byte(i), byte(i >> 8), 'k'}
			if i%2 == 0 {
				vs.own(stateFP(encs[i]), encs[i], i)
			}
			b.add(stateFP(encs[i]), encs[i])
		}
		avg := testing.AllocsPerRun(10, func() {
			for _, enc := range encs {
				vs.probe(stateFP(enc), enc)
			}
		})
		if avg != 0 {
			t.Fatalf("keyed=%t: %d probes allocate %.1f times, want 0", keyed, len(encs), avg)
		}
		const batch = 9 // about one state's successors
		var batches []probeInput
		for lo := 0; lo+batch <= len(b.fps); lo += batch {
			batches = append(batches, b.slice(lo, lo+batch))
		}
		var ids []int
		var homes []uint64
		ids, homes = vs.probeBatch(batches[0].fps, batches[0].encs, batches[0].ends, true, ids, homes)
		for _, withIDs := range []bool{false, true} {
			avg = testing.AllocsPerRun(10, func() {
				for _, in := range batches {
					ids, homes = vs.probeBatch(in.fps, in.encs, in.ends, withIDs, ids, homes)
				}
			})
			if avg != 0 {
				t.Fatalf("keyed=%t withIDs=%t: %d batched probes of %d allocate %.1f times, want 0", keyed, withIDs, len(batches), batch, avg)
			}
		}
	}
}

// probeInput lays successors out as an expander does for probeBatch:
// fingerprints, and encodings back to back with their ends.
type probeInput struct {
	fps  []uint64
	encs []byte
	ends []int32
}

func (b *probeInput) add(fp uint64, enc []byte) {
	b.fps = append(b.fps, fp)
	b.encs = append(b.encs, enc...)
	b.ends = append(b.ends, int32(len(b.encs)))
}

// start is where successor t's encoding starts in encs.
func (b *probeInput) start(t int) int32 {
	if t == 0 {
		return 0
	}
	return b.ends[t-1]
}

// enc returns successor t's encoding.
func (b *probeInput) enc(t int) []byte { return b.encs[b.start(t):b.ends[t]] }

// slice returns successors lo..hi-1 as a batch of their own.
func (b *probeInput) slice(lo, hi int) probeInput {
	from := b.start(lo)
	out := probeInput{fps: b.fps[lo:hi], encs: b.encs[from:b.start(hi)], ends: make([]int32, 0, hi-lo)}
	for _, e := range b.ends[lo:hi] {
		out.ends = append(out.ends, e-from)
	}
	return out
}

// probeClass sorts a lookup by what its linear probe meets: an empty home
// slot, a hit in the home slot, a hit or a miss further on; wrapped marks
// a probe that walks past the table's last slot.
type probeClass struct {
	emptyHome, homeHit, displacedHit, displacedMiss, wrapped int
}

func (c *probeClass) observe(vs *visitedSet, fp uint64, enc []byte) {
	tab := &vs.shard(fp).tab
	mask := uint64(len(tab.fps) - 1)
	h := tab.home(fp)
	for i, steps := h, uint64(0); ; i, steps = (i+1)&mask, steps+1 {
		f := tab.fps[i]
		hit := f == fp && (tab.keys == nil || tab.keys[i] == string(enc))
		if f == 0 || hit {
			switch {
			case steps == 0 && !hit:
				c.emptyHome++
			case steps == 0:
				c.homeHit++
			case hit:
				c.displacedHit++
			default:
				c.displacedMiss++
			}
			if h+steps > mask {
				c.wrapped++
			}
			return
		}
	}
}

// checkProbeBatch probes in in batches of random sizes (sometimes all of
// it at once), reusing the buffers, with and without the ids of hits, and
// fails on any answer that differs from lookup's: the id with ids, and
// without them -1 on a miss and 0 on a hit.
func checkProbeBatch(t testing.TB, vs *visitedSet, in probeInput, rng *rand.Rand, ids []int, homes []uint64) ([]int, []uint64) {
	t.Helper()
	for lo := 0; lo < len(in.fps); {
		hi := min(len(in.fps), lo+rng.Intn(13))
		if rng.Intn(8) == 0 {
			hi = len(in.fps)
		}
		b := in.slice(lo, hi)
		for _, withIDs := range []bool{false, true} {
			ids, homes = vs.probeBatch(b.fps, b.encs, b.ends, withIDs, ids, homes)
			if len(ids) != hi-lo {
				t.Fatalf("a batch of %d answered %d ids", hi-lo, len(ids))
			}
			for k := lo; k < hi; k++ {
				want, ok := vs.probe(in.fps[k], in.enc(k))
				switch {
				case !ok:
					want = -1
				case !withIDs:
					want = 0
				}
				if got := ids[k-lo]; got != want {
					t.Fatalf("batched probe (withIDs=%t) of fingerprint %#x, encoding %x = %d, lookup says %d", withIDs, in.fps[k], in.enc(k), got, want)
				}
			}
		}
		lo = hi
	}
	return ids, homes
}

// homedAt returns a fingerprint of shard 0 whose home slot in tab is i.
func homedAt(rng *rand.Rand, tab *fpTable, i uint64) uint64 {
	for {
		if fp := rng.Uint64() &^ (visitedShards - 1); tab.home(fp) == i {
			return fp
		}
	}
}

// TestProbeBatchMatchesLookup holds the expansion's batched probe to the
// scalar lookup over seeded random sets, fingerprinted and keyed: shard
// 0's table grows from fpTableMin through five doublings and is probed
// just after each doubling and at 3/4 load, with states that fingerprint
// to 0, fingerprints homed at the table's last slot (so probe sequences
// wrap past its end), encodings that share a fingerprint, and absent
// states beside present ones, so the batches mix hits in the home slot,
// hits displaced down the probe sequence, empty-home misses and displaced
// misses. Other shards fill alongside, so a batch spans shards. Every
// fingerprint is stateFP's.
func TestProbeBatchMatchesLookup(t *testing.T) {
	const maxSlots = fpTableMin << 5
	type succ struct {
		fp  uint64
		enc []byte
	}
	useFingerprint(t, prefixFP)
	for _, keyed := range []bool{false, true} {
		var seen probeClass
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			vs := newVisitedSet(Options{CollisionFree: keyed}, nil)
			sh := vs.shard(0)
			var present []succ
			// state returns a state that fingerprints to fp, with a random tail.
			state := func(fp uint64) succ {
				enc := fpEnc(fp, binary.LittleEndian.AppendUint64(nil, rng.Uint64()))
				return succ{stateFP(enc), enc}
			}
			own := func(s succ) {
				if _, isNew := vs.own(s.fp, s.enc, len(present)); isNew {
					present = append(present, s)
				}
			}
			own(state(0))
			var ids []int
			var homes []uint64
			for sh.n < 3*maxSlots/4 {
				size := len(sh.tab.fps)
				fp := rng.Uint64() &^ (visitedShards - 1)
				switch rng.Intn(8) {
				case 0:
					fp = homedAt(rng, &sh.tab, uint64(size-1))
				case 1:
					fp = present[rng.Intn(len(present))].fp // keyed: another state with a present fingerprint
				}
				own(state(fp))
				own(state(rng.Uint64() | 1)) // another shard
				if n := sh.n; n != 3*size/8+1 && n != 3*size/4 {
					continue
				}
				if len(sh.tab.fps) != size {
					t.Fatalf("keyed=%t: a table of %d slots at %d states", keyed, len(sh.tab.fps), sh.n)
				}
				probes := slices.Clone(present)
				for i := 0; i < 16; i++ {
					probes = append(probes,
						state(rng.Uint64()&^(visitedShards-1)),
						state(homedAt(rng, &sh.tab, uint64(size-1))),
						state(present[rng.Intn(len(present))].fp), // keyed: absent
						state(0)) // keyed: absent
				}
				rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
				var in probeInput
				for _, p := range probes {
					in.add(p.fp, p.enc)
					if p.fp&(visitedShards-1) == 0 {
						seen.observe(vs, p.fp, p.enc)
					}
				}
				ids, homes = checkProbeBatch(t, vs, in, rng, ids, homes)
			}
		}
		if seen.emptyHome == 0 || seen.homeHit == 0 || seen.displacedHit == 0 || seen.displacedMiss == 0 || seen.wrapped == 0 {
			t.Fatalf("keyed=%t: the batches missed a case: %+v", keyed, seen)
		}
	}
}

// FuzzProbeBatch holds the batched probe to the scalar lookup on sets the
// input builds: each 3-byte record inserts (odd first byte) or only probes
// a state whose fingerprint, from the second byte, is one of 128 in each
// of two shards (0 among them, which stateFP makes 1, so the two collide),
// and whose encoding's tail is the third byte, so fingerprints collide,
// tables double and probe sequences run long. After the inserts, every
// record is probed, keyed and not, in batches of sizes drawn from the
// input's length.
func FuzzProbeBatch(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 0, 0, 0, 0, 1, 1, 0, 2, 0, 2, 0}, true)
	f.Add([]byte{9, 1, 7, 1, 3, 7, 1, 5, 7, 0, 1, 8, 0, 9, 7}, false)
	f.Fuzz(func(t *testing.T, data []byte, keyed bool) {
		useFingerprint(t, prefixFP)
		vs := newVisitedSet(Options{CollisionFree: keyed}, nil)
		var in probeInput
		for i := 0; i+3 <= len(data); i += 3 {
			enc := fpEnc(uint64(data[i+1]>>1)*visitedShards+uint64(data[i+1]&1), data[i+2:i+3])
			fp := stateFP(enc)
			if data[i]&1 == 1 {
				vs.own(fp, enc, i/3)
			}
			in.add(fp, enc)
		}
		checkProbeBatch(t, vs, in, rand.New(rand.NewSource(int64(len(data)))), nil, nil)
	})
}

// TestStoreFingerprintCollisions drives the merge's protocol — own, then
// publish, then probe, then own again — over encodings that share a
// fingerprint, 0 and a non-zero one, through stateFP, in a keyed set:
// every encoding must keep its own slot and id, through several doublings
// of its shard's table, and an unseen encoding with the same fingerprint
// must miss.
func TestStoreFingerprintCollisions(t *testing.T) {
	const n = 100 // 16 → 256 slots: four doublings
	enc := func(fp uint64, i int) []byte { return []byte(fmt.Sprintf("%x/%d", fp, i)) }
	for _, weak := range []uint64{0, 0x9e3779b97f4a7c15} {
		useFingerprint(t, func([]byte) uint64 { return weak })
		fp := stateFP(enc(weak, 0))
		if fp == 0 {
			t.Fatal("stateFP returned 0, the empty slot's fingerprint word")
		}
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

// TestTableDoublingAllocsPerCall pins what a table generation costs: a
// doubling allocates the fingerprint and id arrays, and keyed the key
// array, and nothing else, because the table is a value in its shard; a
// seal's reset of all 64 shards costs 64 generations. The records survive
// every doubling.
func TestTableDoublingAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, keyed := range []bool{false, true} {
		want := 2.0
		if keyed {
			want = 3
		}
		vs := newVisitedSet(Options{CollisionFree: keyed}, nil)
		sh := vs.shard(0)
		const n = 3 * fpTableMin / 4
		for i := 0; i < n; i++ {
			vs.own(uint64(i+1)*visitedShards, []byte{byte(i)}, i)
		}
		if got := testing.AllocsPerRun(8, sh.grow); got != want {
			t.Fatalf("keyed=%t: a doubling allocates %.1f times, want %.0f", keyed, got, want)
		}
		for i := 0; i < n; i++ {
			if id, ok := vs.probe(uint64(i+1)*visitedShards, []byte{byte(i)}); !ok || id != i {
				t.Fatalf("keyed=%t: state %d after the doublings = (%d, %t)", keyed, i, id, ok)
			}
		}
		if got := testing.AllocsPerRun(2, vs.clearResident); got != visitedShards*want {
			t.Fatalf("keyed=%t: resetting the shards allocates %.1f times, want %.0f", keyed, got, visitedShards*want)
		}
	}
}

// TestOwnDoesNotAllocate pins the merge's claim pass: owning a fresh state
// allocates nothing beyond amortized table doubling and, keyed, key
// storage blocks.
func TestOwnDoesNotAllocate(t *testing.T) {
	if race.Enabled {
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
				vs.own(stateFP(enc[:]), enc[:], next)
				next++
			}
		})
		if perOwn := avg / perRun; perOwn >= 0.5 {
			t.Fatalf("keyed=%t: owning a fresh state allocates %.2f times on average, want < 0.5", keyed, perOwn)
		}
	}
}
