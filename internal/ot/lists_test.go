package ot_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/ot"
	"repro/internal/otgo"
)

// recursiveTransformLists is the textbook inductive lifting of
// TransformPair to sequences, kept as the oracle of TransformLists: the
// head of as crosses the whole of bs, then the rest of as crosses the
// rewritten bs. Its pair calls — and so its coverage conditions — come in
// the order TransformLists must keep.
func recursiveTransformLists(tr *ot.Transformer, as, bs []ot.Op) (asOut, bsOut []ot.Op, err error) {
	if len(as) == 0 {
		return nil, bs, nil
	}
	if len(bs) == 0 {
		return as, nil, nil
	}
	aHeadT, bsT, err := recursiveTransformOpAcross(tr, as[0], bs)
	if err != nil {
		return nil, nil, err
	}
	aRestT, bsOut, err := recursiveTransformLists(tr, as[1:], bsT)
	if err != nil {
		return nil, nil, err
	}
	return append(aHeadT, aRestT...), bsOut, nil
}

// recursiveTransformOpAcross merges one op against a sequence.
func recursiveTransformOpAcross(tr *ot.Transformer, a ot.Op, bs []ot.Op) (aOut, bsOut []ot.Op, err error) {
	if len(bs) == 0 {
		return []ot.Op{a}, nil, nil
	}
	aT, bHeadT, err := tr.TransformPair(a, bs[0])
	if err != nil {
		return nil, nil, err
	}
	aOut, bRestT, err := recursiveTransformLists(tr, aT, bs[1:])
	if err != nil {
		return nil, nil, err
	}
	return aOut, append(bHeadT, bRestT...), nil
}

// listsOracle runs TransformLists, its recursive oracle and — on swap-free
// lists — the independent otgo engine on the same lists, each reference
// run with its own coverage registry.
type listsOracle struct {
	got, want       *ot.Transformer
	gotCov, wantCov *coverage.Registry
}

func newListsOracle(legacy bool) *listsOracle {
	o := &listsOracle{gotCov: coverage.NewRegistry(), wantCov: coverage.NewRegistry()}
	o.got = ot.NewTransformer(o.gotCov, legacy)
	o.want = ot.NewTransformer(o.wantCov, legacy)
	return o
}

// check requires TransformLists to return the oracle's outputs and error,
// and otgo the same outputs where it supports the lists. The condition
// outcomes each records add up in its registry, for sameCoverage.
func (o *listsOracle) check(t *testing.T, as, bs []ot.Op) {
	t.Helper()
	asGot, bsGot, errGot := o.got.TransformLists(as, bs)
	asWant, bsWant, errWant := recursiveTransformLists(o.want, as, bs)
	if !errors.Is(errGot, errWant) {
		t.Fatalf("TransformLists(%v, %v) error = %v, recursive lifting: %v", as, bs, errGot, errWant)
	}
	if !opsEqual(asGot, asWant) || !opsEqual(bsGot, bsWant) {
		t.Fatalf("TransformLists(%v, %v) = (%v, %v), recursive lifting: (%v, %v)", as, bs, asGot, bsGot, asWant, bsWant)
	}
	if errWant != nil || hasSwap(as) || hasSwap(bs) {
		return
	}
	asGo, bsGo, err := otgo.Engine{}.TransformBatches(as, bs)
	if err != nil {
		t.Fatalf("otgo TransformBatches(%v, %v): %v", as, bs, err)
	}
	if !opsEqual(asGo, asWant) || !opsEqual(bsGo, bsWant) {
		t.Fatalf("otgo TransformBatches(%v, %v) = (%v, %v), reference: (%v, %v)", as, bs, asGo, bsGo, asWant, bsWant)
	}
}

// sameCoverage requires both transformers to have recorded the same
// condition outcomes, each as often, since the last call, and resets them.
func (o *listsOracle) sameCoverage(t *testing.T, what string) {
	t.Helper()
	if got, want := o.gotCov.Dump(), o.wantCov.Dump(); got != want {
		t.Fatalf("%s: TransformLists recorded conditions\n%s\nrecursive lifting:\n%s", what, got, want)
	}
	o.gotCov.Reset()
	o.wantCov.Reset()
}

func opsEqual(a, b []ot.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hasSwap(ops []ot.Op) bool {
	for _, o := range ops {
		if o.Kind == ot.KindSwap {
			return true
		}
	}
	return false
}

// lenAfter returns the length of an array of length n once o is applied.
func lenAfter(n int, o ot.Op) int {
	switch o.Kind {
	case ot.KindInsert:
		return n + 1
	case ot.KindErase:
		return n - 1
	case ot.KindClear:
		return 0
	}
	return n
}

// allOps returns every well-formed operation, ArraySwap included, on an
// array of length n, attributed to peer at timestamp ts.
func allOps(n, peer, ts int) []ot.Op {
	var ops []ot.Op
	for i := 0; i <= n; i++ {
		ops = append(ops, ot.Insert(i, 100*peer))
	}
	for i := 0; i < n; i++ {
		ops = append(ops, ot.Set(i, 100*peer+1), ot.Erase(i))
		for j := 0; j < n; j++ {
			if j != i {
				ops = append(ops, ot.Move(i, j))
			}
			if j > i {
				ops = append(ops, ot.Swap(i, j))
			}
		}
	}
	ops = append(ops, ot.Clear())
	for i := range ops {
		ops[i] = ops[i].WithMeta(ot.Meta{Timestamp: ts, Peer: peer})
	}
	return ops
}

// allLists returns every list of at most two well-formed operations on an
// array of length n. The first op is stamped ts, the second 0, so a side
// stamped 1 wins its first last-write-wins conflict and loses its second.
func allLists(n, peer, ts int) [][]ot.Op {
	lists := [][]ot.Op{nil}
	for _, first := range allOps(n, peer, ts) {
		lists = append(lists, []ot.Op{first})
		for _, second := range allOps(lenAfter(n, first), peer, 0) {
			lists = append(lists, []ot.Op{first, second})
		}
	}
	return lists
}

// TestTransformListsMatchesRecursion holds TransformLists to the recursive
// lifting on every pair of lists of at most two ops on arrays of length 0
// to 2, swaps included, with and without legacy mode: same outputs, same
// error, and the same condition counts over each as against every bs —
// also when an error cuts the lifting short, which is where a sweep in
// another order would show.
func TestTransformListsMatchesRecursion(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		o := newListsOracle(legacy)
		for n := 0; n <= 2; n++ {
			bss := allLists(n, 2, 0)
			for _, as := range allLists(n, 1, 1) {
				for _, bs := range bss {
					o.check(t, as, bs)
				}
				o.sameCoverage(t, fmt.Sprintf("legacy=%v as=%v", legacy, as))
			}
		}
	}
}

// listReader doles out bytes from a fuzz input, zeros once it is
// exhausted, so every input decodes to some pair of lists.
type listReader struct {
	data []byte
	pos  int
}

func (r *listReader) intn(n int) int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b) % n
}

// op decodes one well-formed operation, ArraySwap included, on an array of
// length n: a timestamp, a value, a kind, then its indices. A kind the
// array is too short for decodes as an insert.
func (r *listReader) op(n, peer int) ot.Op {
	meta := ot.Meta{Timestamp: r.intn(3), Peer: peer}
	v := 100*peer + r.intn(10)
	var o ot.Op
	switch kind := ot.Kind(r.intn(6)); {
	case kind == ot.KindSet && n > 0:
		o = ot.Set(r.intn(n), v)
	case (kind == ot.KindMove || kind == ot.KindSwap) && n > 1:
		i, j := r.intn(n), r.intn(n-1)
		if j >= i {
			j++
		}
		o = ot.Op{Kind: kind, Ndx: i, To: j}
	case kind == ot.KindErase && n > 0:
		o = ot.Erase(r.intn(n))
	case kind == ot.KindClear:
		o = ot.Clear()
	default:
		o = ot.Insert(r.intn(n+1), v)
	}
	return o.WithMeta(meta)
}

// list decodes up to four operations, each well-formed on the array the
// ones before it leave.
func (r *listReader) list(n, peer int) []ot.Op {
	ops := make([]ot.Op, r.intn(5))
	for i := range ops {
		ops[i] = r.op(n, peer)
		n = lenAfter(n, ops[i])
	}
	return ops
}

// decodeLists decodes a fuzz input: legacy mode (odd first byte), an array
// length from 0 to 4, then each side's list.
func decodeLists(data []byte) (legacy bool, as, bs []ot.Op) {
	r := &listReader{data: data}
	legacy = r.intn(2) == 1
	n := r.intn(5)
	return legacy, r.list(n, 1), r.list(n, 2)
}

// nonterminationSeed decodes, in legacy mode, to ArrayMove{0, 1} against
// ArraySwap{0, 1}: the move inverts the swap, and the legacy rule returns
// ErrMergeNontermination (§5.1.3).
var nonterminationSeed = []byte{1, 2, 1, 0, 0, byte(ot.KindMove), 0, 0, 1, 0, 0, byte(ot.KindSwap), 0, 0}

func TestNonterminationSeed(t *testing.T) {
	legacy, as, bs := decodeLists(nonterminationSeed)
	if _, _, err := ot.NewTransformer(nil, legacy).TransformLists(as, bs); !errors.Is(err, ot.ErrMergeNontermination) {
		t.Fatalf("seed decodes to legacy=%v %v against %v: err = %v, want ErrMergeNontermination", legacy, as, bs, err)
	}
}

// FuzzTransformLists holds TransformLists to its recursive oracle, and
// otgo's TransformBatches to both, on lists of up to four ops per side on
// arrays of length 0 to 4, in non-legacy mode (where a swap is refused)
// and in legacy mode with swaps.
func FuzzTransformLists(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 2, 0, 1, 1, 1, 0, 2, 4, 2, 1, 2, 1, 2, 0, 0, 2, 1, 1, 1, 4, 0, 3, 0, 5})
	f.Add([]byte{0, 4, 4, 1, 0, 2, 0, 3, 2, 1, 4, 1, 0, 0, 0, 4, 2, 2, 1, 2, 3, 0, 4, 1, 1, 4, 2, 2, 1, 0, 3})
	f.Add([]byte{1, 3, 3, 0, 2, 3, 1, 2, 1, 0, 2, 1, 0, 2, 2, 0, 1, 4, 3, 2, 0, 1, 1, 3, 2, 0})
	f.Add(nonterminationSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		legacy, as, bs := decodeLists(data)
		o := newListsOracle(legacy)
		o.check(t, as, bs)
		o.sameCoverage(t, fmt.Sprintf("legacy=%v as=%v bs=%v", legacy, as, bs))
	})
}
