// Package ot is the reference implementation of MongoDB Realm Sync's
// array operational-transformation algorithm — the system under test of the
// paper's MBTCG case study (Section 5). It corresponds to the original C++
// implementation: the merge rules are written in the same nested
// conditional style (so branch coverage is comparable), and the historical
// ArraySwap/ArrayMove non-termination bug that TLC discovered is preserved
// behind the Legacy flag.
//
// Realm Sync has 19 operation types; the six array-based operations below
// carry the 21 non-trivial merge rules (6·7/2). The remaining operation
// catalogue, whose merges are mostly trivial (the incoming operation is
// applied unchanged by both peers), is in catalogue.go.
package ot

import (
	"errors"
	"fmt"
)

// Kind identifies an array operation type.
type Kind uint8

// The six array-based operation kinds of Realm Sync (§5).
const (
	KindSet Kind = iota
	KindInsert
	KindMove
	KindSwap
	KindErase
	KindClear
)

var kindNames = [...]string{"ArraySet", "ArrayInsert", "ArrayMove", "ArraySwap", "ArrayErase", "ArrayClear"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Meta carries the conflict-resolution metadata of an operation: Realm Sync
// uses a last-write-wins rule over (timestamp, peer id) when operations
// have no causal order. Peer ids are unique, so Wins is a total order.
type Meta struct {
	Timestamp int
	Peer      int
}

// Wins reports whether m beats other under last-write-wins.
func (m Meta) Wins(other Meta) bool {
	if m.Timestamp != other.Timestamp {
		return m.Timestamp > other.Timestamp
	}
	return m.Peer > other.Peer
}

// Op is one array operation. Which index fields are meaningful depends on
// Kind:
//
//	ArraySet:    Ndx (position), Value
//	ArrayInsert: Ndx (insertion point 0..len), Value
//	ArrayMove:   Ndx (source), To (final position of the element)
//	ArraySwap:   Ndx, To (the two positions)
//	ArrayErase:  Ndx
//	ArrayClear:  no fields
type Op struct {
	Kind  Kind
	Ndx   int
	To    int
	Value int
	Meta  Meta
}

// Constructors for each kind, mirroring the Realm instruction builders.

// Set replaces the value of the existing element at ndx.
func Set(ndx, value int) Op { return Op{Kind: KindSet, Ndx: ndx, Value: value} }

// Insert inserts a new element at position ndx (growing the array by one).
func Insert(ndx, value int) Op { return Op{Kind: KindInsert, Ndx: ndx, Value: value} }

// Move moves the element at from so it ends at position to.
func Move(from, to int) Op { return Op{Kind: KindMove, Ndx: from, To: to} }

// Swap exchanges the elements at positions a and b. Deprecated in the real
// system after the non-termination bug (§5.1.3); retained for the legacy
// experiment.
func Swap(a, b int) Op { return Op{Kind: KindSwap, Ndx: a, To: b} }

// Erase removes the element at ndx.
func Erase(ndx int) Op { return Op{Kind: KindErase, Ndx: ndx} }

// Clear removes all elements.
func Clear() Op { return Op{Kind: KindClear} }

// WithMeta returns a copy of op carrying the given LWW metadata.
func (o Op) WithMeta(m Meta) Op { o.Meta = m; return o }

func (o Op) String() string {
	switch o.Kind {
	case KindSet:
		return fmt.Sprintf("ArraySet{%d, %d}", o.Ndx, o.Value)
	case KindInsert:
		return fmt.Sprintf("ArrayInsert{%d, %d}", o.Ndx, o.Value)
	case KindMove:
		return fmt.Sprintf("ArrayMove{%d, %d}", o.Ndx, o.To)
	case KindSwap:
		return fmt.Sprintf("ArraySwap{%d, %d}", o.Ndx, o.To)
	case KindErase:
		return fmt.Sprintf("ArrayErase{%d}", o.Ndx)
	case KindClear:
		return "ArrayClear{}"
	}
	return "ArrayUnknown{}"
}

// Errors returned by Apply on malformed operations. A conforming transform
// never produces one of these on a valid peer state, so any occurrence in a
// generated test run is itself a conformance failure.
var (
	ErrIndexRange = errors.New("ot: index out of range")
)

// Apply applies op to arr and returns the new array: a fresh, exactly
// sized (len == cap) copy of arr with op applied to it in place by
// applyOwned. arr is not modified.
func Apply(arr []int, op Op) ([]int, error) {
	size, keep := len(arr), arr // the copy's capacity and contents
	switch op.Kind {
	case KindClear:
		size, keep = 0, nil
	case KindInsert:
		size++
	}
	out, err := applyOwned(append(make([]int, 0, size), keep...), op)
	if err != nil {
		return nil, err
	}
	return out[:len(out):len(out)], nil
}

// applyOwned applies op to arr in place — arr must be the caller's own,
// shared with nothing else — and returns the result, which reuses arr's
// memory: an insert extends it, reallocating only when arr is full. This
// is the one definition of each operation's semantics; Apply and
// applyBatch size the copy it works on. On an out-of-range op it returns
// an error and leaves arr unchanged.
func applyOwned(arr []int, op Op) ([]int, error) {
	n := len(arr)
	switch op.Kind {
	case KindSet:
		if op.Ndx < 0 || op.Ndx >= n {
			return nil, fmt.Errorf("%w: %s on array of %d", ErrIndexRange, op, n)
		}
		arr[op.Ndx] = op.Value
		return arr, nil
	case KindInsert:
		if op.Ndx < 0 || op.Ndx > n {
			return nil, fmt.Errorf("%w: %s on array of %d", ErrIndexRange, op, n)
		}
		arr = append(arr, 0)
		copy(arr[op.Ndx+1:], arr[op.Ndx:n])
		arr[op.Ndx] = op.Value
		return arr, nil
	case KindMove:
		if op.Ndx < 0 || op.Ndx >= n || op.To < 0 || op.To >= n {
			return nil, fmt.Errorf("%w: %s on array of %d", ErrIndexRange, op, n)
		}
		// Remove the element at Ndx and reinsert it at To: the elements
		// between the two positions shift by one toward Ndx.
		v := arr[op.Ndx]
		if op.Ndx < op.To {
			copy(arr[op.Ndx:op.To], arr[op.Ndx+1:op.To+1])
		} else {
			copy(arr[op.To+1:op.Ndx+1], arr[op.To:op.Ndx])
		}
		arr[op.To] = v
		return arr, nil
	case KindSwap:
		if op.Ndx < 0 || op.Ndx >= n || op.To < 0 || op.To >= n {
			return nil, fmt.Errorf("%w: %s on array of %d", ErrIndexRange, op, n)
		}
		arr[op.Ndx], arr[op.To] = arr[op.To], arr[op.Ndx]
		return arr, nil
	case KindErase:
		if op.Ndx < 0 || op.Ndx >= n {
			return nil, fmt.Errorf("%w: %s on array of %d", ErrIndexRange, op, n)
		}
		copy(arr[op.Ndx:], arr[op.Ndx+1:])
		return arr[:n-1], nil
	case KindClear:
		return arr[:0], nil
	}
	return nil, fmt.Errorf("ot: unknown operation kind %d", op.Kind)
}

// ApplyAll applies ops to arr in order: the fold of Apply, built in one
// fresh array (see applyBatch). arr is not modified; with no ops it is
// returned itself.
func ApplyAll(arr []int, ops []Op) ([]int, error) {
	out, _, err := applyBatch(arr, ops)
	return out, err
}

// applyBatch applies ops in order to one fresh copy of arr, with room for
// every insert among them, and returns it; arr is not modified, and with
// no ops it is returned itself. A failing op stops the batch: applyBatch
// returns its index and the error Apply returns for it on the array the
// ops before it produced.
func applyBatch(arr []int, ops []Op) (out []int, failed int, err error) {
	if len(ops) == 0 {
		return arr, 0, nil
	}
	size := len(arr)
	for _, op := range ops {
		if op.Kind == KindInsert {
			size++
		}
	}
	out = append(make([]int, 0, size), arr...)
	for i, op := range ops {
		if out, err = applyOwned(out, op); err != nil {
			return nil, i, err
		}
	}
	return out, 0, nil
}
