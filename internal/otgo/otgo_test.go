package otgo

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ot"
	"repro/internal/race"
)

// enumOps mirrors the reference test enumeration: every well-formed
// swap-free op on an array of length n.
func enumOps(n, peer int) []ot.Op {
	meta := ot.Meta{Peer: peer}
	val := 100 * peer
	var ops []ot.Op
	for i := 0; i < n; i++ {
		ops = append(ops, ot.Set(i, val+1).WithMeta(meta))
	}
	for i := 0; i <= n; i++ {
		ops = append(ops, ot.Insert(i, val+2).WithMeta(meta))
	}
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if f != to {
				ops = append(ops, ot.Move(f, to).WithMeta(meta))
			}
		}
	}
	for i := 0; i < n; i++ {
		ops = append(ops, ot.Erase(i).WithMeta(meta))
	}
	ops = append(ops, ot.Clear().WithMeta(meta))
	return ops
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

// TestParityWithReference is experiment E12: the independent implementation
// must agree with the reference on every operation pair — the property the
// paper's 4,913 generated test cases established between C++ and Go.
func TestParityWithReference(t *testing.T) {
	ref := ot.NewTransformer(nil, false)
	var eng Engine
	for n := 1; n <= 4; n++ {
		opsA := enumOps(n, 1)
		opsB := enumOps(n, 2)
		for _, a := range opsA {
			for _, b := range opsB {
				refA, refB, err := ref.TransformPair(a, b)
				if err != nil {
					t.Fatal(err)
				}
				goA, goB, err := eng.Transform(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if !opsEqual(refA, goA) || !opsEqual(refB, goB) {
					t.Errorf("n=%d a=%s b=%s: ref=(%v,%v) go=(%v,%v)", n, a, b, refA, refB, goA, goB)
				}
			}
		}
	}
}

// TestTP1Independent re-verifies convergence against this implementation
// alone, so a shared bug with the reference cannot hide behind parity.
func TestTP1Independent(t *testing.T) {
	var eng Engine
	for n := 1; n <= 4; n++ {
		arr := make([]int, n)
		for i := range arr {
			arr[i] = i + 1
		}
		for _, a := range enumOps(n, 1) {
			for _, b := range enumOps(n, 2) {
				aT, bT, err := eng.Transform(a, b)
				if err != nil {
					t.Fatal(err)
				}
				left, err := ot.ApplyAll(arr, append([]ot.Op{a}, bT...))
				if err != nil {
					t.Fatalf("a=%s b=%s: %v", a, b, err)
				}
				right, err := ot.ApplyAll(arr, append([]ot.Op{b}, aT...))
				if err != nil {
					t.Fatalf("a=%s b=%s: %v", a, b, err)
				}
				if len(left) != len(right) {
					t.Fatalf("a=%s b=%s: %v vs %v", a, b, left, right)
				}
				for i := range left {
					if left[i] != right[i] {
						t.Fatalf("a=%s b=%s: %v vs %v", a, b, left, right)
					}
				}
			}
		}
	}
}

func TestBatchesMatchReferenceLists(t *testing.T) {
	ref := ot.NewTransformer(nil, false)
	var eng Engine
	arr := []int{1, 2, 3}
	opsA := enumOps(3, 1)
	opsB := enumOps(3, 2)
	// Two-op batches on each side, sampled.
	for ia := 0; ia < len(opsA); ia += 2 {
		a1 := opsA[ia]
		mid, err := ot.Apply(arr, a1)
		if err != nil {
			t.Fatal(err)
		}
		as := []ot.Op{a1, enumOps(len(mid), 1)[ia%len(enumOps(len(mid), 1))]}
		for ib := 0; ib < len(opsB); ib += 2 {
			b1 := opsB[ib]
			midB, err := ot.Apply(arr, b1)
			if err != nil {
				t.Fatal(err)
			}
			bs := []ot.Op{b1, enumOps(len(midB), 2)[ib%len(enumOps(len(midB), 2))]}
			refA, refB, err := ref.TransformLists(as, bs)
			if err != nil {
				t.Fatal(err)
			}
			goA, goB, err := eng.TransformBatches(as, bs)
			if err != nil {
				t.Fatal(err)
			}
			if !opsEqual(refA, goA) || !opsEqual(refB, goB) {
				t.Fatalf("as=%v bs=%v: ref=(%v,%v) go=(%v,%v)", as, bs, refA, refB, goA, goB)
			}
		}
	}
}

// TestTransformBatchesAllocsPerCall pins the sweep's allocation contract:
// nothing with both sides empty, otherwise one block for both results —
// with one side empty too, since the results never alias the inputs.
func TestTransformBatchesAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var eng Engine
	as := []ot.Op{ot.Set(0, 1).WithMeta(ot.Meta{Peer: 1}), ot.Move(0, 2).WithMeta(ot.Meta{Peer: 1})}
	bs := []ot.Op{ot.Erase(0).WithMeta(ot.Meta{Peer: 2}), ot.Insert(1, 2).WithMeta(ot.Meta{Peer: 2}), ot.Clear().WithMeta(ot.Meta{Peer: 2})}
	for _, c := range []struct {
		as, bs []ot.Op
		want   float64
	}{
		{nil, nil, 0},
		{as, nil, 1},
		{nil, bs, 1},
		{as, bs, 1},
		{bs, as, 1},
		{as[:1], bs[:1], 1},
	} {
		if got := testing.AllocsPerRun(100, func() { eng.TransformBatches(c.as, c.bs) }); got != c.want {
			t.Errorf("TransformBatches(%v, %v) allocates %.0f times, want %.0f", c.as, c.bs, got, c.want)
		}
	}
}

// TestTransformBatchesNeverAliasesInputs: a caller may rewrite the results
// in place, as examples/divergence-hunt's mutants do, without touching the
// batches it passed in — with either side empty too — and appending to
// one result never reaches the other.
func TestTransformBatchesNeverAliasesInputs(t *testing.T) {
	var eng Engine
	ops := enumOps(2, 1)
	batches := [][]ot.Op{nil, ops[:1], ops[2:4], {ops[5], ops[1], ops[len(ops)-1]}}
	for _, as := range batches {
		for _, bs := range batches {
			asCopy, bsCopy := append([]ot.Op(nil), as...), append([]ot.Op(nil), bs...)
			asOut, bsOut, err := eng.TransformBatches(as, bs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range asOut {
				asOut[i].Ndx += 100
			}
			for i := range bsOut {
				bsOut[i].To += 100
			}
			if !opsEqual(as, asCopy) || !opsEqual(bs, bsCopy) {
				t.Fatalf("rewriting the results of TransformBatches(%v, %v) changed the inputs to (%v, %v)", asCopy, bsCopy, as, bs)
			}
			bsBefore := append([]ot.Op(nil), bsOut...)
			_ = append(asOut, make([]ot.Op, len(as)+len(bs))...)
			if !opsEqual(bsOut, bsBefore) {
				t.Fatalf("appending to asOut of TransformBatches(%v, %v) wrote into bsOut", asCopy, bsCopy)
			}
		}
	}
}

func TestSwapUnsupported(t *testing.T) {
	var eng Engine
	if _, _, err := eng.Transform(ot.Swap(0, 1), ot.Set(0, 1)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if _, _, err := eng.Transform(ot.Set(0, 1), ot.Swap(0, 1)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if _, _, err := eng.TransformBatches([]ot.Op{ot.Swap(0, 1)}, []ot.Op{ot.Set(0, 1)}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("batches err = %v, want ErrUnsupported", err)
	}
	// A kind outside the rule table is unsupported too, on either side and
	// in either canonical position, not an index out of range.
	for _, k := range []ot.Kind{ot.KindClear + 1, 255} {
		for _, other := range []ot.Op{ot.Set(0, 1), ot.Clear()} {
			unknown := ot.Op{Kind: k}
			if _, _, err := eng.Transform(unknown, other); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("Transform(%s, %s) err = %v, want ErrUnsupported", unknown, other, err)
			}
			if _, _, err := eng.Transform(other, unknown); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("Transform(%s, %s) err = %v, want ErrUnsupported", other, unknown, err)
			}
		}
	}
}

func TestIndexVocabulary(t *testing.T) {
	if posAfterInsert(2, 0) != 3 || posAfterInsert(2, 3) != 2 || posAfterInsert(2, 2) != 3 {
		t.Error("posAfterInsert broken")
	}
	if p, gone := posAfterErase(2, 2); !gone || p != 2 {
		t.Error("posAfterErase same-index broken")
	}
	if p, _ := posAfterErase(3, 1); p != 2 {
		t.Error("posAfterErase shift broken")
	}
	if posAfterMove(0, 0, 2) != 2 || posAfterMove(1, 0, 2) != 0 || posAfterMove(2, 0, 2) != 1 {
		t.Error("posAfterMove broken")
	}
	if gapAfterMove(2, 0, 1) != 1 || gapAfterMove(0, 1, 0) != 0 {
		t.Error("gapAfterMove broken")
	}
}

// Property: random batch pairs agree with the reference implementation.
func TestQuickBatchParity(t *testing.T) {
	ref := ot.NewTransformer(nil, false)
	var eng Engine
	f := func(pa, pb []uint16) bool {
		arr := []int{1, 2, 3}
		build := func(picks []uint16, peer int) []ot.Op {
			cur := arr
			var out []ot.Op
			for _, p := range picks {
				if len(out) >= 3 {
					break
				}
				ops := enumOps(len(cur), peer)
				op := ops[int(p)%len(ops)]
				next, err := ot.Apply(cur, op)
				if err != nil {
					continue
				}
				cur = next
				out = append(out, op)
			}
			return out
		}
		as := build(pa, 1)
		bs := build(pb, 2)
		refA, refB, err := ref.TransformLists(as, bs)
		if err != nil {
			return false
		}
		goA, goB, err := eng.TransformBatches(as, bs)
		if err != nil {
			return false
		}
		return opsEqual(refA, goA) && opsEqual(refB, goB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
