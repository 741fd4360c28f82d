// Package otgo is the second, independent implementation of the Realm Sync
// array merge rules — the stand-in for the Golang server re-implementation
// of §5. The paper's architectural story: the server was rewritten in Go
// while the clients stayed C++, so the merge rules exist twice and must
// agree exactly; MBTCG's generated test cases are what establish that
// parity.
//
// This implementation is written from the specification rather than
// transcribed from the reference implementation: it is table-driven, uses
// its own index-mapping vocabulary, and deliberately shares no code with
// package ot. ArraySwap is not supported at all — the discovery of the
// swap/move non-termination bug was "the deciding factor to not support a
// dedicated ArraySwap operation in the new Golang server implementation".
package otgo

import (
	"errors"
	"fmt"

	"repro/internal/ot"
)

// ErrUnsupported is returned for operations the Go server never
// implemented (ArraySwap) or unknown kinds.
var ErrUnsupported = errors.New("otgo: unsupported operation kind")

// Engine transforms concurrent operations. It is stateless; the zero value
// is ready to use.
type Engine struct{}

// mergeFunc merges ops x, y with x.Kind <= y.Kind, returning each side
// rewritten (x', y') such that both application orders converge, each with
// a presence bit that is false where the side was discarded.
type mergeFunc func(x, y ot.Op) (xo ot.Op, xok bool, yo ot.Op, yok bool)

// rules is the dispatch table over the 15 swap-free kind pairs, indexed by
// the canonical pair [x.Kind][y.Kind] with x.Kind <= y.Kind. Every other
// entry — a pair with ArraySwap, or a flipped one — is nil.
var rules = [ot.KindClear + 1][ot.KindClear + 1]mergeFunc{
	ot.KindSet: {
		ot.KindSet:    ruleSetSet,
		ot.KindInsert: ruleSetInsert,
		ot.KindMove:   ruleSetMove,
		ot.KindErase:  ruleSetErase,
		ot.KindClear:  ruleDiscardFirst,
	},
	ot.KindInsert: {
		ot.KindInsert: ruleInsertInsert,
		ot.KindMove:   ruleInsertMove,
		ot.KindErase:  ruleInsertErase,
		ot.KindClear:  ruleDiscardFirst,
	},
	ot.KindMove: {
		ot.KindMove:  ruleMoveMove,
		ot.KindErase: ruleMoveErase,
		ot.KindClear: ruleDiscardFirst,
	},
	ot.KindErase: {
		ot.KindErase: ruleEraseErase,
		ot.KindClear: ruleDiscardFirst,
	},
	ot.KindClear: {
		ot.KindClear: ruleDiscardBoth,
	},
}

// rule returns the table entry for the canonical pair (x, y), nil for a
// pair without a rule, a kind outside the table included.
func rule(x, y ot.Kind) mergeFunc {
	if int(x) >= len(rules) || int(y) >= len(rules) {
		return nil
	}
	return rules[x][y]
}

// Transform merges two concurrent operations, returning a' (to apply after
// b) and b' (to apply after a).
func (Engine) Transform(a, b ot.Op) (aOut, bOut []ot.Op, err error) {
	x, xok, y, yok, err := transform(a, b)
	if err != nil {
		return nil, nil, err
	}
	if xok {
		aOut = []ot.Op{x}
	}
	if yok {
		bOut = []ot.Op{y}
	}
	return aOut, bOut, nil
}

// transform is Transform without slices: a' and b' each with a presence
// bit.
func transform(a, b ot.Op) (x ot.Op, xok bool, y ot.Op, yok bool, err error) {
	if a.Kind == ot.KindSwap || b.Kind == ot.KindSwap {
		return x, false, y, false, fmt.Errorf("%w: ArraySwap", ErrUnsupported)
	}
	if a.Kind <= b.Kind {
		f := rule(a.Kind, b.Kind)
		if f == nil {
			return x, false, y, false, fmt.Errorf("%w: %s/%s", ErrUnsupported, a.Kind, b.Kind)
		}
		x, xok, y, yok = f(a, b)
		return x, xok, y, yok, nil
	}
	f := rule(b.Kind, a.Kind)
	if f == nil {
		return x, false, y, false, fmt.Errorf("%w: %s/%s", ErrUnsupported, b.Kind, a.Kind)
	}
	y, yok, x, xok = f(b, a)
	return x, xok, y, yok, nil
}

// TransformBatches merges two concurrent operation sequences, the server's
// rebase primitive: each local operation sweeps across the remote batch,
// rewriting it in place, until a rule discards it. Every rule produces at
// most one operation per side, so both results fit in one fresh block of
// len(as)+len(bs) operations, the call's only allocation (none when both
// sides are empty). The results never alias as or bs, so a caller may
// rewrite them in place.
func (Engine) TransformBatches(as, bs []ot.Op) (asOut, bsOut []ot.Op, err error) {
	if len(as) == 0 && len(bs) == 0 {
		return nil, nil, nil
	}
	block := make([]ot.Op, len(as)+len(bs))
	asOut, bsOut = block[:0:len(as)], block[len(as):]
	copy(bsOut, bs)
	for _, a := range as {
		alive, n := true, 0
		for _, b := range bsOut {
			if alive {
				var bok bool
				if a, alive, b, bok, err = transform(a, b); err != nil {
					return nil, nil, err
				}
				if !bok {
					continue
				}
			}
			bsOut[n] = b
			n++
		}
		bsOut = bsOut[:n]
		if alive {
			asOut = append(asOut, a)
		}
	}
	return asOut, bsOut, nil
}

// TransformLists adapts TransformBatches to the ot.BatchTransformer
// interface, so an ot.Network can be driven by this engine.
func (e Engine) TransformLists(as, bs []ot.Op) ([]ot.Op, []ot.Op, error) {
	return e.TransformBatches(as, bs)
}

// ---- the merge rules, table entries -----------------------------------

func ruleDiscardFirst(x, y ot.Op) (ot.Op, bool, ot.Op, bool) { return x, false, y, true }

func ruleDiscardBoth(x, y ot.Op) (ot.Op, bool, ot.Op, bool) { return x, false, y, false }

func ruleSetSet(a, b ot.Op) (ot.Op, bool, ot.Op, bool) {
	if a.Ndx != b.Ndx {
		return a, true, b, true
	}
	wins := a.Meta.Wins(b.Meta)
	return a, wins, b, !wins
}

func ruleSetInsert(s, i ot.Op) (ot.Op, bool, ot.Op, bool) {
	s.Ndx = posAfterInsert(s.Ndx, i.Ndx)
	return s, true, i, true
}

func ruleSetMove(s, m ot.Op) (ot.Op, bool, ot.Op, bool) {
	s.Ndx = posAfterMove(s.Ndx, m.Ndx, m.To)
	return s, true, m, true
}

func ruleSetErase(s, e ot.Op) (ot.Op, bool, ot.Op, bool) {
	p, gone := posAfterErase(s.Ndx, e.Ndx)
	s.Ndx = p
	return s, !gone, e, true
}

func ruleInsertInsert(a, b ot.Op) (ot.Op, bool, ot.Op, bool) {
	switch {
	case a.Ndx < b.Ndx, a.Ndx == b.Ndx && a.Meta.Wins(b.Meta):
		b.Ndx++
	default:
		a.Ndx++
	}
	return a, true, b, true
}

func ruleInsertMove(i, m ot.Op) (ot.Op, bool, ot.Op, bool) {
	g := gapAfterMove(i.Ndx, m.Ndx, m.To)
	if m.Ndx >= i.Ndx {
		m.Ndx++
	}
	if m.To >= g {
		m.To++
	}
	i.Ndx = g
	return i, true, m, true
}

func ruleInsertErase(i, e ot.Op) (ot.Op, bool, ot.Op, bool) {
	if e.Ndx < i.Ndx {
		i.Ndx--
	} else {
		e.Ndx++
	}
	return i, true, e, true
}

func ruleMoveMove(a, b ot.Op) (ot.Op, bool, ot.Op, bool) {
	if a.Ndx == b.Ndx {
		// Same element: last write wins, re-targeted from the loser's
		// destination.
		if a.Meta.Wins(b.Meta) {
			a.Ndx = b.To
			return a, isMove(a), b, false
		}
		b.Ndx = a.To
		return a, false, b, isMove(b)
	}
	ra, ia := decompose(a)
	rb, ib := decompose(b)
	// Removals across each other.
	ra2, _ := posAfterErase(ra, rb)
	rb2, _ := posAfterErase(rb, ra)
	// Each removal meets the other's reinsertion.
	if ra2 < ib {
		ib--
	} else {
		ra2++
	}
	if rb2 < ia {
		ia--
	} else {
		rb2++
	}
	// Reinsertions order like concurrent inserts.
	switch {
	case ia < ib, ia == ib && a.Meta.Wins(b.Meta):
		ib++
	default:
		ia++
	}
	a.Ndx, a.To = ra2, ia
	b.Ndx, b.To = rb2, ib
	return a, isMove(a), b, isMove(b)
}

func ruleMoveErase(m, e ot.Op) (ot.Op, bool, ot.Op, bool) {
	if e.Ndx == m.Ndx {
		e.Ndx = m.To
		return m, false, e, true
	}
	rm, im := decompose(m)
	rm2, _ := posAfterErase(rm, e.Ndx)
	ee, _ := posAfterErase(e.Ndx, rm)
	if ee < im {
		im--
	} else {
		ee++
	}
	m.Ndx, m.To = rm2, im
	e.Ndx = ee
	return m, isMove(m), e, true
}

func ruleEraseErase(a, b ot.Op) (ot.Op, bool, ot.Op, bool) {
	if a.Ndx == b.Ndx {
		return a, false, b, false
	}
	pa, _ := posAfterErase(a.Ndx, b.Ndx)
	pb, _ := posAfterErase(b.Ndx, a.Ndx)
	a.Ndx, b.Ndx = pa, pb
	return a, true, b, true
}

// ---- index vocabulary ---------------------------------------------------

// posAfterInsert maps an element position across an insertion.
func posAfterInsert(p, at int) int {
	if at <= p {
		return p + 1
	}
	return p
}

// posAfterErase maps an element position across an erase; gone reports the
// element itself was erased.
func posAfterErase(p, at int) (newP int, gone bool) {
	switch {
	case p == at:
		return p, true
	case p > at:
		return p - 1, false
	}
	return p, false
}

// posAfterMove maps an element position across a move.
func posAfterMove(p, from, to int) int {
	if p == from {
		return to
	}
	if p > from {
		p--
	}
	if p >= to {
		p++
	}
	return p
}

// gapAfterMove maps an insertion point across a move: the gap's new index
// is the count of elements that end up before it.
func gapAfterMove(p, from, to int) int {
	k := p
	if from < p {
		k--
	}
	if to < k {
		k++
	}
	return k
}

// decompose splits a move into its removal index and reinsertion point.
func decompose(m ot.Op) (removal, reinsertion int) { return m.Ndx, m.To }

// isMove reports whether a transformed move still moves its element: one
// whose endpoints collapsed is discarded.
func isMove(m ot.Op) bool { return m.Ndx != m.To }
