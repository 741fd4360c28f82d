package tla

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkVisitedProbe measures the expansion's lookup layer: a visited
// set of about a million states (12 MB of fingerprint and id words, past a
// last-level cache) probed in state-sized batches of 9 successors, nine in
// ten of them present, as on a small-state spec. The scalar rows probe one
// successor after another; the batched rows use probeBatch, which gathers
// every home fingerprint word of the batch before resolving any, as the
// expansion calls it: "batched" answers hit or miss, which is all a run
// without a graph reads, and "batched-ids" also reads each hit's id word,
// as a graph run does. ns/probe is the cost of one successor's lookup.
func BenchmarkVisitedProbe(b *testing.B) {
	const (
		states = 1 << 20
		batch  = 9
		probes = 1 << 16 * batch
	)
	for _, keyed := range []bool{false, true} {
		vs := newVisitedSet(Options{CollisionFree: keyed}, nil)
		enc := make([]byte, 8)
		for i := 0; i < states; i++ {
			binary.LittleEndian.PutUint64(enc, uint64(i))
			vs.own(stateFP(enc), enc, i)
		}
		rng := rand.New(rand.NewSource(1))
		var in probeInput
		for i := 0; i < probes; i++ {
			id := rng.Intn(states)
			if i%10 == 9 {
				id += states // absent
			}
			binary.LittleEndian.PutUint64(enc, uint64(id))
			in.add(stateFP(enc), enc)
		}
		batches := make([]probeInput, 0, probes/batch)
		for lo := 0; lo < probes; lo += batch {
			batches = append(batches, in.slice(lo, lo+batch))
		}
		mode := "fingerprint"
		if keyed {
			mode = "keyed"
		}
		b.Run(fmt.Sprintf("%s/scalar", mode), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				in := &batches[i%len(batches)]
				for t := range in.fps {
					if _, ok := vs.probe(in.fps[t], in.enc(t)); ok {
						hits++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/probe")
			if hits == 0 {
				b.Fatal("no probe hit")
			}
		})
		for _, withIDs := range []bool{false, true} {
			name := mode + "/batched"
			if withIDs {
				name += "-ids"
			}
			b.Run(name, func(b *testing.B) {
				var ids []int
				var homes []uint64
				hits := 0
				for i := 0; i < b.N; i++ {
					in := &batches[i%len(batches)]
					ids, homes = vs.probeBatch(in.fps, in.encs, in.ends, withIDs, ids, homes)
					for _, id := range ids {
						if id >= 0 {
							hits++
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/probe")
				if hits == 0 {
					b.Fatal("no probe hit")
				}
			})
		}
	}
}
