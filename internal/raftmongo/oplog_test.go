package raftmongo

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/tla"
)

// TestOplogMatchesSlices runs every Oplog operation against the plain
// []int it stands for, on random logs that share entries the way the
// actions make them share (prefixes of one another, extended apart).
func TestOplogMatchesSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	randTerms := func(n int) []int {
		out := make([]int, n)
		for k := range out {
			out[k] = rng.Intn(3)
		}
		return out
	}
	for range 2000 {
		a := randTerms(rng.Intn(12))
		la := oplogOf(a...)
		// b shares a prefix of la's entries, then goes its own way.
		k := rng.Intn(len(a) + 1)
		tail := randTerms(rng.Intn(6))
		lb, err := la.Prefix(k).Extend(tail)
		if err != nil {
			t.Fatal(err)
		}
		b := append(slices.Clone(a[:k]), tail...)
		for _, c := range []struct {
			l Oplog
			s []int
		}{{la, a}, {lb, b}} {
			if c.l.Len() != len(c.s) || !slices.Equal(c.l.Terms(), c.s) || !equalTerms(c.l, c.s) {
				t.Fatalf("oplog %v holds %v", c.l, c.s)
			}
			if got, want := c.l.String(), fmt.Sprint(c.s); got != want {
				t.Fatalf("String = %q, want %q", got, want)
			}
			last := 0
			if len(c.s) > 0 {
				last = c.s[len(c.s)-1]
			}
			if c.l.LastTerm() != last {
				t.Fatalf("LastTerm(%v) = %d", c.s, c.l.LastTerm())
			}
			for idx := 1; idx <= len(c.s); idx++ {
				if c.l.Term(idx) != c.s[idx-1] {
					t.Fatalf("Term(%d) of %v = %d", idx, c.s, c.l.Term(idx))
				}
			}
			for p := 0; p <= len(c.s); p++ {
				if !equalTerms(c.l.Prefix(p), c.s[:p]) {
					t.Fatalf("Prefix(%d) of %v = %v", p, c.s, c.l.Prefix(p))
				}
			}
		}
		if got, want := la.Equal(lb), slices.Equal(a, b); got != want {
			t.Fatalf("Equal(%v, %v) = %v", a, b, got)
		}
		if got, want := la.Equal(oplogOf(b...)), slices.Equal(a, b); got != want {
			t.Fatalf("Equal(%v, %v) on unshared entries = %v", a, b, got)
		}
		isPrefix := len(a) <= len(b) && slices.Equal(a, b[:len(a)])
		if la.IsPrefixOf(lb) != isPrefix {
			t.Fatalf("IsPrefixOf(%v, %v) = %v", a, b, !isPrefix)
		}
		from := rng.Intn(len(a) + 2)
		want := 0
		for from+want < len(a) && want < len(b) && a[from+want] == b[want] {
			want++
		}
		if got := la.CommonPrefix(from, b); got != want {
			t.Fatalf("CommonPrefix(%v from %d, %v) = %d, want %d", a, from, b, got, want)
		}
		sign := func(c int) int { return max(-1, min(1, c)) }
		if len(a) == len(b) {
			if got, want := sign(compareEntries(la, lb)), sign(strings.Compare(string(la.appendBinary(nil)), string(lb.appendBinary(nil)))); got != want {
				t.Fatalf("compareEntries(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestOplogBounds: an oplog holds terms and a length in 0..MaxValue.
// Extend refuses anything else with an error, appendEntry (ClientWrite's
// append) panics, and a term or length at MaxValue itself is accepted.
func TestOplogBounds(t *testing.T) {
	if _, err := (Oplog{}).Extend([]int{1, MaxValue}); err != nil {
		t.Fatalf("a term at MaxValue: %v", err)
	}
	for _, terms := range [][]int{{MaxValue + 1}, {-1}, {1, 2, MaxValue + 1}} {
		if _, err := (Oplog{}).Extend(terms); err == nil || !strings.Contains(err.Error(), "MaxValue") {
			t.Errorf("Extend(%v) err = %v, want a MaxValue refusal", terms, err)
		}
	}
	full, err := Oplog{}.Extend(make([]int, MaxValue))
	if err != nil {
		t.Fatalf("an oplog of MaxValue entries: %v", err)
	}
	if _, err := full.Extend([]int{1}); err == nil {
		t.Error("Extend past MaxValue entries succeeded")
	}
	for name, f := range map[string]func(){
		"appendEntry": func() { full.appendEntry(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past MaxValue did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestOverflowIsASpecPanic: an election past term MaxValue, or a write to
// an oplog of MaxValue entries, cannot be held in a State; the action
// panics and the checker reports a spec panic rather than wrapping the
// number round.
func TestOverflowIsASpecPanic(t *testing.T) {
	atTerm := NewState(3)
	atTerm.Terms = [MaxNodes]int16{MaxValue, MaxValue, MaxValue}
	full, err := Oplog{}.Extend(make([]int, MaxValue))
	if err != nil {
		t.Fatal(err)
	}
	atLen := NewState(3)
	atLen.Roles[0] = Leader
	atLen.Oplogs[0] = full
	for name, init := range map[string]State{"term": atTerm, "oplog length": atLen} {
		for _, mk := range []func(Config) *tla.Spec[State]{SpecV1, SpecV2} {
			spec := mk(Config{Nodes: 3, MaxTerm: 1 << 30, MaxLogLen: 1 << 30})
			spec.Init = func() []State { return []State{init} }
			_, err := tla.Check(spec, tla.Options{Workers: 1})
			if !errors.Is(err, tla.ErrSpecPanic) || !strings.Contains(err.Error(), "MaxValue") {
				t.Errorf("%s %s at MaxValue: err = %v, want a spec panic naming MaxValue", spec.Name, name, err)
			}
		}
	}
}

// TestTooManyNodesIsRefused: SpecV1 and SpecV2 panic on more than
// MaxNodes nodes, naming the bound; NewState and MakeState refuse them.
func TestTooManyNodesIsRefused(t *testing.T) {
	for _, mk := range []func(Config) *tla.Spec[State]{SpecV1, SpecV2} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxNodes") {
					t.Errorf("a spec of %d nodes: recovered %v, want a panic naming MaxNodes", MaxNodes+1, r)
				}
			}()
			mk(Config{Nodes: MaxNodes + 1, MaxTerm: 1, MaxLogLen: 1})
		}()
	}
	mkState(t, MaxNodes)
	n := MaxNodes + 1
	if _, err := MakeState(make([]Role, n), make([]int, n), make([]CommitPoint, n), make([][]int, n)); err == nil || !strings.Contains(err.Error(), "MaxNodes") {
		t.Errorf("MakeState of %d nodes: err = %v, want a MaxNodes refusal", n, err)
	}
}

// mkState builds an n-node state through MakeState and checks it holds
// the slices it was built from.
func mkState(t *testing.T, n int) State {
	t.Helper()
	roles, terms, cps, logs := make([]Role, n), make([]int, n), make([]CommitPoint, n), make([][]int, n)
	for i := range n {
		roles[i], terms[i], cps[i], logs[i] = Role(i%2), i, CommitPoint{Term: int16(i), Index: 1}, []int{i, i}
	}
	s, err := MakeState(roles, terms, cps, logs)
	if err != nil {
		t.Fatalf("MakeState of %d nodes: %v", n, err)
	}
	for i := range n {
		if s.Roles[i] != roles[i] || int(s.Terms[i]) != terms[i] || s.CommitPoints[i] != cps[i] || !equalTerms(s.Oplogs[i], logs[i]) {
			t.Fatalf("MakeState node %d = %s", i, s)
		}
	}
	return s
}
