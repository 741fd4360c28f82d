package ot

import (
	"errors"
	"fmt"

	"repro/internal/coverage"
)

// ErrMergeNontermination is the stand-in for the StackOverflowError of
// §5.1.3: the legacy ArraySwap/ArrayMove merge rule can fail to terminate.
// The reference implementation detects the runaway loop and reports it
// rather than overflowing the stack.
var ErrMergeNontermination = errors.New("ot: merge rule does not terminate (legacy ArraySwap/ArrayMove bug)")

// ErrSwapDeprecated is returned by non-legacy transformers asked to merge an
// ArraySwap: after the model checker exposed the non-termination bug, the
// ArraySwap operation was deprecated and excluded from testing (§5.1.3).
var ErrSwapDeprecated = errors.New("ot: ArraySwap is deprecated and unsupported outside legacy mode")

// Transformer implements the 21 array merge rules. A Transformer with a
// coverage registry records every condition outcome in the swap-free merge
// rules (the denominator of the paper's 86-branch coverage table). Legacy
// enables the historical ArraySwap behaviour, including the
// non-terminating ArraySwap/ArrayMove case.
type Transformer struct {
	cov    *coverage.Registry
	legacy bool
}

// NewTransformer returns a Transformer. cov may be nil (no coverage
// accounting); if non-nil, all swap-free merge-rule conditions are
// registered against it immediately, fixing the coverage denominator.
func NewTransformer(cov *coverage.Registry, legacy bool) *Transformer {
	if cov != nil {
		for _, name := range BranchConditions() {
			cov.RegisterCond(name)
		}
	}
	return &Transformer{cov: cov, legacy: legacy}
}

// cond records the outcome of a named condition if coverage is enabled.
func (t *Transformer) cond(name string, outcome bool) bool {
	if t.cov != nil {
		return t.cov.Cond(name, outcome)
	}
	return outcome
}

// TransformPair merges two concurrent operations a and b performed on the
// same base array: it returns aOut — a rewritten to apply after b — and
// bOut — b rewritten to apply after a, such that both application orders
// produce identical arrays (convergence, the transformation property TP1).
// Either output may be empty (the operation was discarded by conflict
// resolution) — never longer than one operation in this rule set.
func (t *Transformer) TransformPair(a, b Op) (aOut, bOut []Op, err error) {
	x, xok, y, yok, err := t.pair(a, b)
	if err != nil {
		return nil, nil, err
	}
	return optional(x, xok), optional(y, yok), nil
}

// optional returns o as a one-op list when ok, else nil.
func optional(o Op, ok bool) []Op {
	if !ok {
		return nil
	}
	return []Op{o}
}

// pair is TransformPair without slices: each output is an op and a
// presence bit, false where the rule discarded that side.
func (t *Transformer) pair(a, b Op) (x Op, xok bool, y Op, yok bool, err error) {
	if (a.Kind == KindSwap || b.Kind == KindSwap) && !t.legacy {
		return x, false, y, false, ErrSwapDeprecated
	}
	if a.Kind <= b.Kind {
		return t.merge(a, b)
	}
	y, yok, x, xok, err = t.merge(b, a)
	return x, xok, y, yok, err
}

// merge dispatches with a.Kind <= b.Kind (the canonical order, as in the
// C++ DEFINE_MERGE macros: 21 rules, the symmetric 15 inferred by the
// flip in pair).
func (t *Transformer) merge(a, b Op) (x Op, xok bool, y Op, yok bool, err error) {
	switch {
	case a.Kind == KindSet && b.Kind == KindSet:
		x, xok, y, yok = t.mergeSetSet(a, b)
	case a.Kind == KindSet && b.Kind == KindInsert:
		x, xok, y, yok = t.mergeSetInsert(a, b)
	case a.Kind == KindSet && b.Kind == KindMove:
		x, xok, y, yok = t.mergeSetMove(a, b)
	case a.Kind == KindSet && b.Kind == KindSwap:
		x, xok, y, yok = t.mergeSetSwap(a, b)
	case a.Kind == KindSet && b.Kind == KindErase:
		x, xok, y, yok = t.mergeSetErase(a, b)
	case a.Kind == KindSet && b.Kind == KindClear:
		y, yok = b, true // SetClear: update of a removed element: discard the set
	case a.Kind == KindInsert && b.Kind == KindInsert:
		x, xok, y, yok = t.mergeInsertInsert(a, b)
	case a.Kind == KindInsert && b.Kind == KindMove:
		x, xok, y, yok = t.mergeInsertMove(a, b)
	case a.Kind == KindInsert && b.Kind == KindSwap:
		x, xok, y, yok = t.mergeInsertSwap(a, b)
	case a.Kind == KindInsert && b.Kind == KindErase:
		x, xok, y, yok = t.mergeInsertErase(a, b)
	case a.Kind == KindInsert && b.Kind == KindClear:
		y, yok = b, true // InsertClear: the clear dominates
	case a.Kind == KindMove && b.Kind == KindMove:
		x, xok, y, yok = t.mergeMoveMove(a, b)
	case a.Kind == KindMove && b.Kind == KindSwap:
		return t.mergeMoveSwapLegacy(a, b)
	case a.Kind == KindMove && b.Kind == KindErase:
		x, xok, y, yok = t.mergeMoveErase(a, b)
	case a.Kind == KindMove && b.Kind == KindClear:
		y, yok = b, true // MoveClear: nothing left to move
	case a.Kind == KindSwap && b.Kind == KindSwap:
		x, xok, y, yok = t.mergeSwapSwap(a, b)
	case a.Kind == KindSwap && b.Kind == KindErase:
		x, xok, y, yok = t.mergeSwapErase(a, b)
	case a.Kind == KindSwap && b.Kind == KindClear:
		y, yok = b, true // SwapClear
	case a.Kind == KindErase && b.Kind == KindErase:
		x, xok, y, yok = t.mergeEraseErase(a, b)
	case a.Kind == KindErase && b.Kind == KindClear:
		y, yok = b, true // EraseClear: already gone
	case a.Kind == KindClear && b.Kind == KindClear:
		// ClearClear: both arrays already empty
	default:
		err = fmt.Errorf("ot: no merge rule for %s/%s", a.Kind, b.Kind)
	}
	return x, xok, y, yok, err
}

// TransformLists merges two concurrent operation sequences: as' applies
// after bs, bs' applies after as, and both orders converge. This is the
// standard inductive lifting of TransformPair to sequences — the head of
// as crosses the whole of bs, rewriting it, then the rest of as crosses
// the rewritten bs — and it is how a peer rebases an incoming batch
// across its unmerged local history.
//
// It allocates one fresh block per call, of len(as)+len(bs) ops, which
// holds both results: a rule emits at most one op per side, so the sweep
// rewrites its copy of bs in place. When either side is empty it
// allocates nothing and returns the other side unchanged — the input
// itself, which the caller must not write into.
func (t *Transformer) TransformLists(as, bs []Op) (asOut, bsOut []Op, err error) {
	if len(as) == 0 {
		return nil, bs, nil
	}
	if len(bs) == 0 {
		return as, nil, nil
	}
	block := make([]Op, len(as)+len(bs))
	// asOut's capacity ends where bsOut starts, so an append to it cannot
	// reach bsOut.
	asOut, bsOut = block[:0:len(as)], block[len(as):]
	copy(bsOut, bs)
	for _, a := range as {
		alive, kept := true, 0
		for _, b := range bsOut {
			if alive {
				// a crosses b; once a is discarded, the rest of bs passes
				// unchanged.
				var bok bool
				if a, alive, b, bok, err = t.pair(a, b); err != nil {
					return nil, nil, err
				}
				if !bok {
					continue
				}
			}
			bsOut[kept] = b
			kept++
		}
		bsOut = bsOut[:kept]
		if alive {
			asOut = append(asOut, a)
		}
	}
	return asOut, bsOut, nil
}

// ---- the merge rules -------------------------------------------------

// Each rule returns both sides as an op and a presence bit: (a', keep a',
// b', keep b'). A side whose bit is false was discarded by conflict
// resolution, and its op is meaningless.

// mergeSetSet: two updates of elements. Same element: conflict, resolved by
// last-write-wins over (timestamp, peer); the loser is discarded.
func (t *Transformer) mergeSetSet(a, b Op) (Op, bool, Op, bool) {
	if t.cond("SetSet.sameNdx", a.Ndx == b.Ndx) {
		if t.cond("SetSet.aWins", a.Meta.Wins(b.Meta)) {
			return a, true, b, false
		}
		return a, false, b, true
	}
	return a, true, b, true
}

// mergeSetInsert: an insert at or before the set target shifts it right.
func (t *Transformer) mergeSetInsert(s, i Op) (Op, bool, Op, bool) {
	if t.cond("SetInsert.shifts", i.Ndx <= s.Ndx) {
		s.Ndx++
	}
	return s, true, i, true
}

// mergeSetMove: the set follows its element through the move.
func (t *Transformer) mergeSetMove(s, m Op) (Op, bool, Op, bool) {
	if t.cond("SetMove.setOnMoved", s.Ndx == m.Ndx) {
		s.Ndx = m.To
		return s, true, m, true
	}
	q := s.Ndx
	if t.cond("SetMove.afterFrom", q > m.Ndx) {
		q--
	}
	if t.cond("SetMove.atOrAfterTo", q >= m.To) {
		q++
	}
	s.Ndx = q
	return s, true, m, true
}

// mergeSetSwap: the set follows its element through the swap. (Swap rules
// are legacy-only and excluded from the coverage denominator, as in the
// paper's LCOV exclusions.)
func (t *Transformer) mergeSetSwap(s, w Op) (Op, bool, Op, bool) {
	switch s.Ndx {
	case w.Ndx:
		s.Ndx = w.To
	case w.To:
		s.Ndx = w.Ndx
	}
	return s, true, w, true
}

// mergeSetErase: Figure 7/8 of the paper, verbatim. Update of a removed
// element: discard the ArraySet.
func (t *Transformer) mergeSetErase(s, e Op) (Op, bool, Op, bool) {
	if t.cond("SetErase.sameNdx", s.Ndx == e.Ndx) {
		// CONFLICT: update of a removed element.
		// RESOLUTION: discard the ArraySet operation.
		return s, false, e, true
	}
	if t.cond("SetErase.afterErase", s.Ndx > e.Ndx) {
		s.Ndx--
	}
	return s, true, e, true
}

// mergeInsertInsert: inserts at distinct points shift each other; inserts
// at the same point are ordered by last-write-wins (the winner's element
// ends up first).
func (t *Transformer) mergeInsertInsert(a, b Op) (Op, bool, Op, bool) {
	if t.cond("InsIns.aBefore", a.Ndx < b.Ndx) {
		b.Ndx++
		return a, true, b, true
	}
	if t.cond("InsIns.bBefore", a.Ndx > b.Ndx) {
		a.Ndx++
		return a, true, b, true
	}
	if t.cond("InsIns.aWins", a.Meta.Wins(b.Meta)) {
		b.Ndx++
		return a, true, b, true
	}
	a.Ndx++
	return a, true, b, true
}

// mergeInsertMove: the insertion point denotes the gap after the elements
// originally at 0..Ndx-1; its new index is the number of elements that end
// up before that gap once the move is applied. The move's source shifts
// past the insert as an element position, and its destination shifts past
// the mapped gap.
func (t *Transformer) mergeInsertMove(i, m Op) (Op, bool, Op, bool) {
	// k: non-moved elements originally before the gap.
	k := i.Ndx
	if t.cond("InsMove.fromBeforeGap", m.Ndx < i.Ndx) {
		k--
	}
	g := k
	if t.cond("InsMove.movedLandsBefore", m.To < k) {
		g++
	}
	mf, mt := m.Ndx, m.To
	if t.cond("InsMove.fromShift", mf >= i.Ndx) {
		mf++
	}
	if t.cond("InsMove.toShift", mt >= g) {
		mt++
	}
	i.Ndx = g
	m.Ndx, m.To = mf, mt
	return i, true, m, true
}

// mergeInsertSwap: a swap does not shift positions, so the insertion point
// is unchanged; the swap's indices shift past the insert.
func (t *Transformer) mergeInsertSwap(i, w Op) (Op, bool, Op, bool) {
	if w.Ndx >= i.Ndx {
		w.Ndx++
	}
	if w.To >= i.Ndx {
		w.To++
	}
	return i, true, w, true
}

// mergeInsertErase: an erase before the insertion point shifts it left; an
// erase at or after it is shifted right by the insert.
func (t *Transformer) mergeInsertErase(i, e Op) (Op, bool, Op, bool) {
	if t.cond("InsErase.beforeIns", e.Ndx < i.Ndx) {
		i.Ndx--
		return i, true, e, true
	}
	e.Ndx++
	return i, true, e, true
}

// mergeMoveMove: the hardest rule. Moves of the same element conflict and
// are resolved by last-write-wins (the loser is discarded, and the winner
// re-targets the element where the loser put it). Moves of different
// elements are merged componentwise as remove+reinsert pairs: each move's
// source index maps across the other's removal, and each destination maps
// across the other's removal and reinsertion — with a last-write-wins
// ordering when both elements land on the same spot.
func (t *Transformer) mergeMoveMove(a, b Op) (Op, bool, Op, bool) {
	if t.cond("MoveMove.sameFrom", a.Ndx == b.Ndx) {
		if t.cond("MoveMove.aWins", a.Meta.Wins(b.Meta)) {
			a.Ndx = b.To
			return a, keepMove(t, "MoveMove.winnerNoopA", a), b, false
		}
		b.Ndx = a.To
		return a, false, b, keepMove(t, "MoveMove.winnerNoopB", b)
	}
	// Sources map across the other element's removal.
	ea, eb := a.Ndx, b.Ndx
	if t.cond("MoveMove.bRemovalBeforeA", b.Ndx < a.Ndx) {
		ea--
	}
	if t.cond("MoveMove.aRemovalBeforeB", a.Ndx < b.Ndx) {
		eb--
	}
	// a's removal point meets b's reinsertion (and vice versa): an erase at
	// or past an insertion point is shifted by it; an erase before it
	// shifts the insertion point.
	ia, ib := a.To, b.To
	if t.cond("MoveMove.aRemovalBeforeBTo", ea < ib) {
		ib--
	} else {
		ea++
	}
	if t.cond("MoveMove.bRemovalBeforeATo", eb < ia) {
		ia--
	} else {
		eb++
	}
	// The two reinsertions order themselves like concurrent inserts.
	if t.cond("MoveMove.aToBefore", ia < ib) {
		ib++
	} else if t.cond("MoveMove.bToBefore", ia > ib) {
		ia++
	} else if t.cond("MoveMove.aToWins", a.Meta.Wins(b.Meta)) {
		ib++
	} else {
		ia++
	}
	a.Ndx, a.To = ea, ia
	b.Ndx, b.To = eb, ib
	return a, keepMove(t, "MoveMove.noopA", a), b, keepMove(t, "MoveMove.noopB", b)
}

// mergeMoveErase: erasing the moved element follows it to its destination
// and cancels the move; otherwise the move is merged as a remove+reinsert
// pair against the erase.
func (t *Transformer) mergeMoveErase(m, e Op) (Op, bool, Op, bool) {
	if t.cond("MoveErase.erasedMoved", e.Ndx == m.Ndx) {
		// CONFLICT: the erased element was concurrently moved.
		// RESOLUTION: erase it at its destination; the move is moot.
		e.Ndx = m.To
		return m, false, e, true
	}
	// Removal points shift across each other.
	em, ee := m.Ndx, e.Ndx
	if t.cond("MoveErase.eraseBeforeFrom", e.Ndx < m.Ndx) {
		em--
	}
	if t.cond("MoveErase.fromBeforeErase", m.Ndx < e.Ndx) {
		ee--
	}
	// The surviving erase meets the move's reinsertion point.
	im := m.To
	if t.cond("MoveErase.eraseBeforeTo", ee < im) {
		im--
	} else {
		ee++
	}
	m.Ndx, m.To = em, im
	e.Ndx = ee
	return m, keepMove(t, "MoveErase.noopMove", m), e, true
}

// mergeEraseErase: erasing the same element twice needs no further action
// on either side.
func (t *Transformer) mergeEraseErase(a, b Op) (Op, bool, Op, bool) {
	if t.cond("EraseErase.sameNdx", a.Ndx == b.Ndx) {
		return a, false, b, false
	}
	if t.cond("EraseErase.aAfter", a.Ndx > b.Ndx) {
		a.Ndx--
		return a, true, b, true
	}
	b.Ndx--
	return a, true, b, true
}

// ---- swap rules (legacy only, outside the coverage denominator) -------

// mergeSwapSwap: identical swaps cancel; otherwise last-write-wins with the
// winner's positions mapped through the loser. This rule is best-effort —
// the impossibility of doing this well is part of why ArraySwap was
// deprecated.
func (t *Transformer) mergeSwapSwap(a, b Op) (Op, bool, Op, bool) {
	if (a.Ndx == b.Ndx && a.To == b.To) || (a.Ndx == b.To && a.To == b.Ndx) {
		return a, false, b, false
	}
	if a.Meta.Wins(b.Meta) {
		a.Ndx = mapPosSwap(a.Ndx, b)
		a.To = mapPosSwap(a.To, b)
		return a, true, b, false
	}
	b.Ndx = mapPosSwap(b.Ndx, a)
	b.To = mapPosSwap(b.To, a)
	return a, false, b, true
}

// mergeSwapErase: erasing one operand of the swap turns the survivor's
// repositioning into a move; erasing neither maps the indices.
func (t *Transformer) mergeSwapErase(w, e Op) (Op, bool, Op, bool) {
	if e.Ndx == w.Ndx || e.Ndx == w.To {
		other := w.To
		if e.Ndx == w.To {
			other = w.Ndx
		}
		// After the erase, move the surviving operand into the erased
		// element's former slot.
		from := other
		to := e.Ndx
		if other > e.Ndx {
			from--
		} else {
			to--
		}
		e.Ndx = mapPosSwap(e.Ndx, w)
		return Move(from, to).WithMeta(w.Meta), from != to, e, true
	}
	ePos := mapPosSwap(e.Ndx, w)
	wn, wt := w.Ndx, w.To
	if wn > e.Ndx {
		wn--
	}
	if wt > e.Ndx {
		wt--
	}
	w.Ndx, w.To = wn, wt
	e.Ndx = ePos
	return w, true, e, true
}

// mergeMoveSwapLegacy reproduces §5.1.3: the historical merge rule for
// ArrayMove/ArraySwap normalized the pair by iterating an index-rewriting
// loop until it reached a fixpoint — and for moves that invert a swap
// (the move's endpoints are exactly the swap's operands, reversed), each
// iteration undoes the previous one and the loop never terminates. TLC
// found this as a StackOverflowError; the reference implementation bounds
// the loop and reports ErrMergeNontermination.
func (t *Transformer) mergeMoveSwapLegacy(m, w Op) (Op, bool, Op, bool, error) {
	const maxIterations = 1000
	for iter := 0; ; iter++ {
		if iter >= maxIterations {
			return m, false, w, false, ErrMergeNontermination
		}
		switch {
		case m.Ndx == w.Ndx && m.To == w.To:
			// The move mirrors one leg of the swap: "canonicalize" by
			// flipping the swap. The flipped swap again has the move
			// mirroring a leg, so this rewrites forever. This is the
			// faithfully-transcribed bug.
			w.Ndx, w.To = w.To, w.Ndx
			continue
		case m.Ndx == w.To && m.To == w.Ndx:
			// Same bug, other orientation.
			w.Ndx, w.To = w.To, w.Ndx
			continue
		case m.Ndx == w.Ndx:
			m.Ndx = w.To
			return m, true, w, true, nil
		case m.Ndx == w.To:
			m.Ndx = w.Ndx
			return m, true, w, true, nil
		default:
			return m, true, w, true, nil
		}
	}
}

// ---- index-mapping helpers --------------------------------------------

func mapPosSwap(p int, w Op) int {
	switch p {
	case w.Ndx:
		return w.To
	case w.To:
		return w.Ndx
	}
	return p
}

// keepMove reports whether a transformed move survives: a move whose
// endpoints collapsed during transformation is discarded.
func keepMove(t *Transformer, name string, m Op) bool {
	return !t.cond(name, m.Ndx == m.To)
}

// BranchConditions returns the names of every condition in the swap-free
// merge rules, in a stable order. Each condition contributes two branch
// outcomes to the coverage denominator.
func BranchConditions() []string {
	return []string{
		"SetSet.sameNdx", "SetSet.aWins",
		"SetInsert.shifts",
		"SetMove.setOnMoved", "SetMove.afterFrom", "SetMove.atOrAfterTo",
		"SetErase.sameNdx", "SetErase.afterErase",
		"InsIns.aBefore", "InsIns.bBefore", "InsIns.aWins",
		"InsMove.fromBeforeGap", "InsMove.movedLandsBefore", "InsMove.fromShift", "InsMove.toShift",
		"InsErase.beforeIns",
		"MoveMove.sameFrom", "MoveMove.aWins",
		"MoveMove.winnerNoopA", "MoveMove.winnerNoopB",
		"MoveMove.bRemovalBeforeA", "MoveMove.aRemovalBeforeB",
		"MoveMove.aRemovalBeforeBTo", "MoveMove.bRemovalBeforeATo",
		"MoveMove.aToBefore", "MoveMove.bToBefore", "MoveMove.aToWins",
		"MoveMove.noopA", "MoveMove.noopB",
		"MoveErase.erasedMoved",
		"MoveErase.eraseBeforeFrom", "MoveErase.fromBeforeErase",
		"MoveErase.eraseBeforeTo", "MoveErase.noopMove",
		"EraseErase.sameNdx", "EraseErase.aAfter",
	}
}
