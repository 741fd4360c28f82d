package ot

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coverage"
)

// enumOps enumerates every well-formed operation (excluding swap unless
// withSwap) on an array of length n. Values and metadata distinguish the
// two peers so last-write-wins ties are decidable.
func enumOps(n, peer int, withSwap bool) []Op {
	meta := Meta{Peer: peer}
	val := 100 * peer
	var ops []Op
	for i := 0; i < n; i++ {
		ops = append(ops, Set(i, val+1).WithMeta(meta))
	}
	for i := 0; i <= n; i++ {
		ops = append(ops, Insert(i, val+2).WithMeta(meta))
	}
	for f := 0; f < n; f++ {
		for to := 0; to < n; to++ {
			if f != to {
				ops = append(ops, Move(f, to).WithMeta(meta))
			}
		}
	}
	for i := 0; i < n; i++ {
		ops = append(ops, Erase(i).WithMeta(meta))
	}
	ops = append(ops, Clear().WithMeta(meta))
	if withSwap {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ops = append(ops, Swap(a, b).WithMeta(meta))
			}
		}
	}
	return ops
}

func baseArray(n int) []int {
	arr := make([]int, n)
	for i := range arr {
		arr[i] = i + 1
	}
	return arr
}

func eq(a, b []int) bool {
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

// TestTP1Exhaustive is the convergence oracle: for every pair of concurrent
// operations on arrays up to length 4, applying a then b' must equal
// applying b then a'. This is the property TLC verified for the paper's
// array_ot.tla via HaveUnmergedChangesOrAreConsistent; transcription errors
// in the merge rules show up here as diamond failures.
func TestTP1Exhaustive(t *testing.T) {
	tr := NewTransformer(nil, false)
	for n := 1; n <= 4; n++ {
		arr := baseArray(n)
		opsA := enumOps(n, 1, false)
		opsB := enumOps(n, 2, false)
		for _, a := range opsA {
			for _, b := range opsB {
				aT, bT, err := tr.TransformPair(a, b)
				if err != nil {
					t.Fatalf("n=%d a=%s b=%s: %v", n, a, b, err)
				}
				left, err := ApplyAll(arr, append([]Op{a}, bT...))
				if err != nil {
					t.Fatalf("n=%d a=%s b=%s: left apply: %v (bT=%v)", n, a, b, err, bT)
				}
				right, err := ApplyAll(arr, append([]Op{b}, aT...))
				if err != nil {
					t.Fatalf("n=%d a=%s b=%s: right apply: %v (aT=%v)", n, a, b, err, aT)
				}
				if !eq(left, right) {
					t.Errorf("n=%d diamond broken: a=%s b=%s: a,b'=%v -> %v; b,a'=%v -> %v",
						n, a, b, bT, left, aT, right)
				}
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestTP1ListsExhaustive lifts the diamond to short sequences: each peer
// performs two operations, and TransformLists must converge. This mirrors
// the merge-window rebasing of Realm Sync (§2.2).
func TestTP1ListsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("quadratic pair enumeration")
	}
	tr := NewTransformer(nil, false)
	n := 3
	arr := baseArray(n)
	opsA := enumOps(n, 1, false)
	opsB := enumOps(n, 2, false)
	// Build each peer's two-op sequences: second op must be valid on the
	// intermediate array.
	seqs := func(ops []Op, peer int) [][]Op {
		var out [][]Op
		for _, o1 := range ops {
			mid, err := Apply(arr, o1)
			if err != nil {
				continue
			}
			for _, o2 := range enumOps(len(mid), peer, false) {
				out = append(out, []Op{o1, o2})
			}
		}
		return out
	}
	seqsA := seqs(opsA, 1)
	seqsB := seqs(opsB, 2)
	// Exhaustive over all pairs is ~ (17*17)^2 ≈ 83k — fine, but sample
	// every third sequence on each side to keep the test under a second.
	for ia := 0; ia < len(seqsA); ia += 3 {
		as := seqsA[ia]
		for ib := 0; ib < len(seqsB); ib += 3 {
			bs := seqsB[ib]
			asT, bsT, err := tr.TransformLists(as, bs)
			if err != nil {
				t.Fatalf("as=%v bs=%v: %v", as, bs, err)
			}
			left, err := ApplyAll(arr, append(append([]Op{}, as...), bsT...))
			if err != nil {
				t.Fatalf("as=%v bs=%v: left: %v (bsT=%v)", as, bs, err, bsT)
			}
			right, err := ApplyAll(arr, append(append([]Op{}, bs...), asT...))
			if err != nil {
				t.Fatalf("as=%v bs=%v: right: %v (asT=%v)", as, bs, err, asT)
			}
			if !eq(left, right) {
				t.Fatalf("list diamond broken: as=%v bs=%v: left=%v right=%v (asT=%v bsT=%v)",
					as, bs, left, right, asT, bsT)
			}
		}
	}
}

func TestSwapDeprecatedOutsideLegacy(t *testing.T) {
	tr := NewTransformer(nil, false)
	_, _, err := tr.TransformPair(Swap(0, 1), Set(0, 9))
	if !errors.Is(err, ErrSwapDeprecated) {
		t.Fatalf("err = %v, want ErrSwapDeprecated", err)
	}
}

// TestSwapMoveNontermination reproduces §5.1.3: merging an ArrayMove that
// inverts an ArraySwap never terminates in the legacy implementation
// (TLC hit a StackOverflowError; we detect the loop).
func TestSwapMoveNontermination(t *testing.T) {
	tr := NewTransformer(nil, true)
	_, _, err := tr.TransformPair(Move(0, 1), Swap(0, 1))
	if !errors.Is(err, ErrMergeNontermination) {
		t.Fatalf("err = %v, want ErrMergeNontermination", err)
	}
	// The flipped orientation loops too.
	_, _, err = tr.TransformPair(Move(1, 0), Swap(0, 1))
	if !errors.Is(err, ErrMergeNontermination) {
		t.Fatalf("flipped: err = %v, want ErrMergeNontermination", err)
	}
	// Non-inverting combinations terminate.
	if _, _, err := tr.TransformPair(Move(0, 2), Swap(0, 1)); err != nil {
		t.Fatalf("non-inverting move/swap: %v", err)
	}
}

func TestApplyErrors(t *testing.T) {
	cases := []struct {
		arr []int
		op  Op
	}{
		{[]int{1}, Set(1, 9)},
		{[]int{1}, Set(-1, 9)},
		{[]int{1}, Insert(2, 9)},
		{[]int{1}, Erase(1)},
		{[]int{1, 2}, Move(2, 0)},
		{[]int{1, 2}, Move(0, 2)},
		{[]int{1, 2}, Swap(0, 2)},
	}
	for _, c := range cases {
		if _, err := Apply(c.arr, c.op); !errors.Is(err, ErrIndexRange) {
			t.Errorf("Apply(%v, %s) err = %v, want ErrIndexRange", c.arr, c.op, err)
		}
	}
}

func TestApplySemantics(t *testing.T) {
	arr := []int{1, 2, 3}
	cases := []struct {
		op   Op
		want []int
	}{
		{Set(1, 9), []int{1, 9, 3}},
		{Insert(0, 9), []int{9, 1, 2, 3}},
		{Insert(3, 9), []int{1, 2, 3, 9}},
		{Move(0, 2), []int{2, 3, 1}},
		{Move(2, 0), []int{3, 1, 2}},
		{Swap(0, 2), []int{3, 2, 1}},
		{Erase(1), []int{1, 3}},
		{Clear(), []int{}},
	}
	for _, c := range cases {
		got, err := Apply(arr, c.op)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if !eq(got, c.want) {
			t.Errorf("Apply(%v, %s) = %v, want %v", arr, c.op, got, c.want)
		}
		if !eq(arr, []int{1, 2, 3}) {
			t.Fatalf("%s mutated its input", c.op)
		}
	}
}

// TestApplyMoveIsEraseThenInsert pins ArrayMove's single-allocation
// rewrite to its definition — remove the element at Ndx, then insert it at
// To — for every move on arrays of up to six elements, and checks that the
// result is a fresh, exactly sized array.
func TestApplyMoveIsEraseThenInsert(t *testing.T) {
	for n := 1; n <= 6; n++ {
		arr := baseArray(n)
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				erased, err := Apply(arr, Erase(from))
				if err != nil {
					t.Fatal(err)
				}
				want, err := Apply(erased, Insert(to, arr[from]))
				if err != nil {
					t.Fatal(err)
				}
				got, err := Apply(arr, Move(from, to))
				if err != nil {
					t.Fatal(err)
				}
				if !eq(got, want) || cap(got) != n {
					t.Errorf("Apply(%v, %s) = %v (cap %d), want %v", arr, Move(from, to), got, cap(got), want)
				}
				if !eq(arr, baseArray(n)) {
					t.Fatalf("%s mutated its input", Move(from, to))
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Apply([]int{1, 2, 3, 4}, Move(0, 3)) }); allocs > 1 {
		t.Errorf("Apply(ArrayMove) allocates %.0f times, want 1", allocs)
	}
}

// TestBranchDenominator pins the coverage denominator. The paper's C++
// merge rules compile to 86 LCOV branch outcomes; our faithful Go
// transcription has 72 (36 conditions × 2 outcomes). The coverage table of
// experiment E10 is measured against this denominator; the reproduced
// result is the shape of the table, not the absolute 86.
func TestBranchDenominator(t *testing.T) {
	reg := coverage.NewRegistry()
	NewTransformer(reg, false)
	if got := reg.Total(); got != 2*len(BranchConditions()) {
		t.Fatalf("registered branch outcomes = %d, want %d", got, 2*len(BranchConditions()))
	}
	if got := len(BranchConditions()); got != 36 {
		t.Fatalf("conditions = %d, want 36 (update EXPERIMENTS.md if the rules change)", got)
	}
}

// TestExhaustiveTransformsCoverAllBranches: running the full pairwise
// enumeration must cover every registered branch — this is the generated
// tests' 86/86 row of the paper's coverage table, at the unit level.
func TestExhaustiveTransformsCoverAllBranches(t *testing.T) {
	reg := coverage.NewRegistry()
	tr := NewTransformer(reg, false)
	for n := 1; n <= 4; n++ {
		opsA := enumOps(n, 1, false)
		opsB := enumOps(n, 2, false)
		for _, a := range opsA {
			for _, b := range opsB {
				if _, _, err := tr.TransformPair(a, b); err != nil {
					t.Fatal(err)
				}
				// Both argument orders, so both last-write-wins
				// outcomes occur.
				if _, _, err := tr.TransformPair(b, a); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if reg.Covered() != reg.Total() {
		t.Errorf("coverage %s; missed: %v", reg.Report(), reg.Missed())
	}
}

func TestMetaWinsTotalOrder(t *testing.T) {
	a := Meta{Timestamp: 1, Peer: 1}
	b := Meta{Timestamp: 1, Peer: 2}
	c := Meta{Timestamp: 2, Peer: 0}
	if a.Wins(b) || !b.Wins(a) {
		t.Error("peer tie-break broken")
	}
	if !c.Wins(a) || !c.Wins(b) {
		t.Error("timestamp precedence broken")
	}
	if a.Wins(a) {
		t.Error("Wins not irreflexive")
	}
}

func TestOpStringForms(t *testing.T) {
	cases := map[string]Op{
		"ArraySet{1, 9}":    Set(1, 9),
		"ArrayInsert{0, 7}": Insert(0, 7),
		"ArrayMove{2, 0}":   Move(2, 0),
		"ArraySwap{0, 1}":   Swap(0, 1),
		"ArrayErase{3}":     Erase(3),
		"ArrayClear{}":      Clear(),
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting")
	}
	var _ fmt.Stringer = KindSet // Kind implements Stringer
}

// TestTransformListsAllocsPerCall pins the lifting's allocation contract:
// with either side empty it returns the other side as it is and allocates
// nothing; otherwise one block holds both results, whatever the rules
// discard.
func TestTransformListsAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tr := NewTransformer(nil, false)
	as := []Op{Set(0, 1).WithMeta(Meta{Peer: 1}), Move(0, 2).WithMeta(Meta{Peer: 1})}
	bs := []Op{Erase(0).WithMeta(Meta{Peer: 2}), Insert(1, 2).WithMeta(Meta{Peer: 2}), Clear().WithMeta(Meta{Peer: 2})}
	for _, c := range []struct {
		as, bs []Op
		want   float64
	}{
		{nil, nil, 0},
		{as, nil, 0},
		{nil, bs, 0},
		{as, bs, 1},
		{bs, as, 1},
		{as[:1], bs[:1], 1},
	} {
		if got := testing.AllocsPerRun(100, func() { tr.TransformLists(c.as, c.bs) }); got != c.want {
			t.Errorf("TransformLists(%v, %v) allocates %.0f times, want %.0f", c.as, c.bs, got, c.want)
		}
	}
}
