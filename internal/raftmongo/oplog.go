package raftmongo

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// MaxValue bounds every number a State holds: terms, commit-point terms
// and indices, oplog entry terms and oplog lengths. They are stored as
// int16, so a state stays a small value; a term or an oplog that would
// grow past MaxValue is refused — by the actions (a panic the checker
// reports as a spec panic), by DecodeBinary, MakeState and the trace
// post-processor (errors).
const MaxValue = math.MaxInt16

// Narrow returns v as the int16 a State stores, or an error naming what
// when v lies outside 0..MaxValue.
func Narrow(what string, v int) (int16, error) {
	if v < 0 || v > MaxValue {
		return 0, fmt.Errorf("raftmongo: %s %d outside 0..%d (MaxValue)", what, v, MaxValue)
	}
	return int16(v), nil
}

// Oplog is a node's oplog: the terms of its entries, oldest first, entry
// index being the 1-based position. It is an immutable, prefix-shared
// list — a pointer to its newest entry, each entry linked to the one
// before it — and the zero value is the empty oplog. Taking a prefix walks
// back along the links and allocates nothing; appending allocates the new
// entry and shares every older one. The oplogs of a state, of its
// successors and of a whole trace therefore form one tree of entries,
// which no code changes once it is built.
type Oplog struct{ last *entry }

// entry is one oplog entry: its term, its 1-based index (so the length of
// the oplog it ends) and the entry before it.
type entry struct {
	prev *entry
	term int16
	n    int16
}

// Extend returns l followed by terms. The new entries share one
// allocation; l's entries are shared, not copied.
func (l Oplog) Extend(terms []int) (Oplog, error) {
	if len(terms) == 0 {
		return l, nil
	}
	if _, err := Narrow("oplog length", l.Len()+len(terms)); err != nil {
		return Oplog{}, err
	}
	block := make([]entry, len(terms))
	for k, t := range terms {
		term, err := Narrow("oplog entry term", t)
		if err != nil {
			return Oplog{}, err
		}
		block[k] = entry{prev: l.last, term: term, n: int16(l.Len() + 1)}
		l.last = &block[k]
	}
	return l, nil
}

// appendEntry returns l with one entry of the given term added: the one
// allocation ClientWrite makes. It panics when the oplog already holds
// MaxValue entries.
func (l Oplog) appendEntry(term int16) Oplog {
	n := l.Len() + 1
	if n > MaxValue {
		panic(fmt.Sprintf("raftmongo: an oplog of %d entries cannot grow (MaxValue)", MaxValue))
	}
	return Oplog{&entry{prev: l.last, term: term, n: int16(n)}}
}

// Len returns the number of entries.
func (l Oplog) Len() int {
	if l.last == nil {
		return 0
	}
	return int(l.last.n)
}

// LastTerm returns the term of the newest entry, 0 if l is empty.
func (l Oplog) LastTerm() int {
	if l.last == nil {
		return 0
	}
	return int(l.last.term)
}

// at returns entry idx (1-based, 1 ≤ idx ≤ Len), walking back from the
// newest.
func (l Oplog) at(idx int) *entry {
	e := l.last
	for int(e.n) > idx {
		e = e.prev
	}
	return e
}

// Term returns the term of entry idx (1-based). It panics unless
// 1 ≤ idx ≤ Len.
func (l Oplog) Term(idx int) int {
	if idx < 1 || idx > l.Len() {
		panic(fmt.Sprintf("raftmongo: oplog entry %d of %d", idx, l.Len()))
	}
	return int(l.at(idx).term)
}

// Prefix returns the oplog of l's first k entries, sharing them. It panics
// unless 0 ≤ k ≤ Len.
func (l Oplog) Prefix(k int) Oplog {
	if k < 0 || k > l.Len() {
		panic(fmt.Sprintf("raftmongo: prefix %d of an oplog of %d", k, l.Len()))
	}
	if k == 0 {
		return Oplog{}
	}
	return Oplog{l.at(k)}
}

// Equal reports whether l and m hold the same terms. Shared entries end
// the walk: below a common entry the two are the same list.
func (l Oplog) Equal(m Oplog) bool {
	if l.Len() != m.Len() {
		return false
	}
	for x, y := l.last, m.last; x != y; x, y = x.prev, y.prev {
		if x.term != y.term {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether l is a prefix of m.
func (l Oplog) IsPrefixOf(m Oplog) bool {
	return l.Len() <= m.Len() && l.Equal(m.Prefix(l.Len()))
}

// CommonPrefix returns how many leading terms equal l's entries from
// index from+1 on: the length of the common prefix of l's entries past the
// first from and terms. Walking back from the newest entry, the last
// mismatch met is the first one.
func (l Oplog) CommonPrefix(from int, terms []int) int {
	k := min(l.Len()-from, len(terms))
	for e := l.last; e != nil && int(e.n) > from; e = e.prev {
		if i := int(e.n) - from - 1; i < k && int(e.term) != terms[i] {
			k = i
		}
	}
	return max(k, 0)
}

// appendTerms appends l's terms, oldest first, to dst.
func (l Oplog) appendTerms(dst []int) []int {
	start, n := len(dst), l.Len()
	dst = slices.Grow(dst, n)[:start+n]
	for e := l.last; e != nil; e = e.prev {
		dst[start+int(e.n)-1] = int(e.term)
	}
	return dst
}

// Terms returns a fresh slice of l's terms, oldest first.
func (l Oplog) Terms() []int { return l.appendTerms(make([]int, 0, l.Len())) }

// String formats l as fmt formats its terms as a slice: "[1 1 2]".
func (l Oplog) String() string { return fmt.Sprint(l.Terms()) }

// appendBinary appends the uvarint length, then each entry's uvarint term,
// oldest first: it sizes the entries in one walk back and writes them in a
// second, from the end of the buffer.
func (l Oplog) appendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(l.Len()))
	size := 0
	for e := l.last; e != nil; e = e.prev {
		size += uvarintLen(e.term)
	}
	end := len(buf) + size
	buf = slices.Grow(buf, size)[:end]
	for e := l.last; e != nil; e = e.prev {
		end -= uvarintLen(e.term)
		binary.PutUvarint(buf[end:], uint64(e.term))
	}
	return buf
}

// uvarintLen is the length of binary.AppendUvarint's encoding of a
// non-negative int16.
func uvarintLen(v int16) int {
	switch {
	case v < 1<<7:
		return 1
	case v < 1<<14:
		return 2
	}
	return 3
}

// compareEntries orders two oplogs of equal length as bytes.Compare orders
// their entries' uvarint encodings: by the first entry, oldest first, at
// which they differ. Walking back from the newest, the last difference met
// is that first one; a shared entry ends the walk.
func compareEntries(a, b Oplog) int {
	c := 0
	for x, y := a.last, b.last; x != y; x, y = x.prev, y.prev {
		if x.term != y.term {
			c = compareUvarint(uint64(x.term), uint64(y.term))
		}
	}
	return c
}
