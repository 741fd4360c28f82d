package ot

import "testing"

// fuzzReader doles out bytes from the fuzz input, returning zeros once the
// input is exhausted, so every input decodes to some operation pair.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.next()) % n }

// opFrom decodes one well-formed (in-bounds) non-swap operation for an
// array of length n, attributed to peer with a small timestamp so the
// last-write-wins tie-break is exercised in both directions.
func opFrom(r *fuzzReader, n, peer int) Op {
	meta := Meta{Peer: peer, Timestamp: r.intn(3)}
	val := 100*peer + r.intn(10)
	if n == 0 {
		if r.intn(2) == 0 {
			return Insert(0, val).WithMeta(meta)
		}
		return Clear().WithMeta(meta)
	}
	switch r.intn(5) {
	case 0:
		return Set(r.intn(n), val).WithMeta(meta)
	case 1:
		return Insert(r.intn(n+1), val).WithMeta(meta)
	case 2:
		if n < 2 {
			return Set(0, val).WithMeta(meta)
		}
		from := r.intn(n)
		to := r.intn(n - 1)
		if to >= from {
			to++
		}
		return Move(from, to).WithMeta(meta)
	case 3:
		return Erase(r.intn(n)).WithMeta(meta)
	default:
		return Clear().WithMeta(meta)
	}
}

// FuzzOTTransform re-checks the convergence properties the exhaustive
// suites pin (transform_test.go) on randomized operations: TP1 — the
// diamond — for a single concurrent pair, and the merge-window diamond
// over two-operation sequences via TransformLists. TP2 proper is
// deliberately out of scope: it does not hold for these rules and does
// not need to in a star topology (see tp2_test.go).
func FuzzOTTransform(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 4, 2, 1, 0, 3})
	f.Add([]byte{1, 0, 2, 2, 2, 0, 0, 1, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		tr := NewTransformer(nil, false)
		n := 1 + r.intn(4)
		arr := baseArray(n)
		a := opFrom(r, n, 1)
		b := opFrom(r, n, 2)

		aT, bT, err := tr.TransformPair(a, b)
		if err != nil {
			t.Fatalf("TransformPair(%s, %s): %v", a, b, err)
		}
		left, err := ApplyAll(arr, append([]Op{a}, bT...))
		if err != nil {
			t.Fatalf("a=%s b=%s: left apply: %v (bT=%v)", a, b, err, bT)
		}
		right, err := ApplyAll(arr, append([]Op{b}, aT...))
		if err != nil {
			t.Fatalf("a=%s b=%s: right apply: %v (aT=%v)", a, b, err, aT)
		}
		if !eq(left, right) {
			t.Fatalf("TP1 diamond broken: a=%s b=%s: a,b'=%v -> %v; b,a'=%v -> %v",
				a, b, bT, left, aT, right)
		}

		// Two-op sequences: each peer's second operation is built against
		// its own intermediate array, then the whole windows are rebased
		// with TransformLists and must converge.
		midA, err := Apply(arr, a)
		if err != nil {
			t.Fatalf("apply %s: %v", a, err)
		}
		midB, err := Apply(arr, b)
		if err != nil {
			t.Fatalf("apply %s: %v", b, err)
		}
		as := []Op{a, opFrom(r, len(midA), 1)}
		bs := []Op{b, opFrom(r, len(midB), 2)}
		asT, bsT, err := tr.TransformLists(as, bs)
		if err != nil {
			t.Fatalf("TransformLists(%v, %v): %v", as, bs, err)
		}
		left, err = ApplyAll(arr, append(append([]Op{}, as...), bsT...))
		if err != nil {
			t.Fatalf("as=%v bs=%v: left: %v (bsT=%v)", as, bs, err, bsT)
		}
		right, err = ApplyAll(arr, append(append([]Op{}, bs...), asT...))
		if err != nil {
			t.Fatalf("as=%v bs=%v: right: %v (asT=%v)", as, bs, err, asT)
		}
		if !eq(left, right) {
			t.Fatalf("list diamond broken: as=%v bs=%v: left=%v right=%v (asT=%v bsT=%v)",
				as, bs, left, right, asT, bsT)
		}
	})
}

// FuzzApplyBatch pins applyBatch, which a merge uses to apply a rebased
// batch to one fresh array, to its definition: folding Apply over the
// batch. On any array and any batch — out-of-range indices and unknown
// kinds included — it returns the fold's array, or fails at the same op
// with the same error; it never writes into the input array, not even
// into spare capacity past its length; and every Apply along the fold
// returns a fresh, exactly sized array.
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 1, 2, 9, 0, 1, 1, 5, 2, 2, 0, 3, 4, 3, 1})
	f.Add([]byte{2, 3, 5, 0, 7, 0, 0, 1, 0, 6, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		n := r.intn(6)
		backing := make([]int, n+4)
		for i := range backing {
			backing[i] = 1000 + i
		}
		arr := backing[:n]
		ops := make([]Op, r.intn(7))
		for i := range ops {
			// Kind 6 is unknown; indices run from -1 to one past a
			// seven-element array.
			ops[i] = Op{Kind: Kind(r.intn(7)), Ndx: r.intn(9) - 1, To: r.intn(9) - 1, Value: r.intn(10)}
		}
		want, wantFailed := arr, 0
		var wantErr error
		for i, op := range ops {
			next, err := Apply(want, op)
			if err != nil {
				wantFailed, wantErr = i, err
				break
			}
			if cap(next) != len(next) {
				t.Fatalf("Apply(%v, %s) = %v with capacity %d", want, op, next, cap(next))
			}
			want = next
		}
		got, failed, err := applyBatch(arr, ops)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("applyBatch(%v, %v) error = %v, folding Apply: %v", arr, ops, err, wantErr)
		case err != nil && (failed != wantFailed || err.Error() != wantErr.Error()):
			t.Fatalf("applyBatch(%v, %v) fails at op %d with %q, folding Apply at op %d with %q", arr, ops, failed, err, wantFailed, wantErr)
		case err == nil && !eq(got, want):
			t.Fatalf("applyBatch(%v, %v) = %v, folding Apply: %v", arr, ops, got, want)
		}
		for i, x := range backing {
			if x != 1000+i {
				t.Fatalf("applyBatch(%v, %v) wrote %d into the input's memory at %d", arr, ops, x, i)
			}
		}
	})
}
