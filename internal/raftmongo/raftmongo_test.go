package raftmongo

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tla"
)

func smallCfg() Config { return Config{Nodes: 3, MaxTerm: 2, MaxLogLen: 2} }

func TestSpecV1ModelChecks(t *testing.T) {
	res, err := tla.Check(SpecV1(smallCfg()), tla.Options{})
	if err != nil {
		t.Fatalf("V1 invariant violation: %v", err)
	}
	if res.Distinct < 100 {
		t.Errorf("suspiciously small state space: %d", res.Distinct)
	}
	t.Logf("V1 small config: %d states, %d transitions, depth %d", res.Distinct, res.Transitions, res.Depth)
}

func TestSpecV2ModelChecks(t *testing.T) {
	res, err := tla.Check(SpecV2(smallCfg()), tla.Options{})
	if err != nil {
		t.Fatalf("V2 invariant violation: %v", err)
	}
	t.Logf("V2 small config: %d states, %d transitions, depth %d", res.Distinct, res.Transitions, res.Depth)
}

// TestStateSpaceV2LargerThanV1 reproduces the direction of experiment E7:
// modelling gossiped terms explodes the state space relative to a single
// global term (paper: 42,034 → 371,368 under the full config).
func TestStateSpaceV2LargerThanV1(t *testing.T) {
	cfg := smallCfg()
	r1, err := tla.Check(SpecV1(cfg), tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tla.Check(SpecV2(cfg), tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Distinct <= r1.Distinct {
		t.Errorf("V2 (%d states) not larger than V1 (%d states)", r2.Distinct, r1.Distinct)
	}
	t.Logf("V1=%d states, V2=%d states, ratio=%.1fx", r1.Distinct, r2.Distinct, float64(r2.Distinct)/float64(r1.Distinct))
}

// TestStateSpaceFullConfig checks the paper's full configuration (3 nodes,
// 3 terms, logs of 3) and records the counts for EXPERIMENTS.md. V2 is
// explored with a cap to keep the test fast; the real count is produced by
// BenchmarkE7 and cmd/minitlc.
func TestStateSpaceFullConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("full config exploration in -short mode")
	}
	r1, err := tla.Check(SpecV1(DefaultConfig), tla.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("V1 full config: %d states (paper: 42,034)", r1.Distinct)
	if r1.Distinct < 10000 {
		t.Errorf("V1 full config suspiciously small: %d states", r1.Distinct)
	}
}

// TestCommitPointEventuallyPropagated reproduces the paper's temporal
// property: TLC "validates ... a temporal property that the commit point is
// eventually propagated". On the finite graph this is: from every reachable
// state, a state where all nodes agree on the commit point is reachable.
func TestCommitPointEventuallyPropagated(t *testing.T) {
	cfg := smallCfg()
	for name, spec := range map[string]*tla.Spec[State]{"V1": SpecV1(cfg), "V2": SpecV2(cfg)} {
		res, err := tla.Check(spec, tla.Options{RecordGraph: true})
		if err != nil {
			t.Fatal(err)
		}
		// Liveness is evaluated within the state constraint: boundary
		// states (term or log length past the bound) are recorded but
		// never expanded, so they trivially reach nothing.
		if w := tla.CheckEventuallyWithin(res.Graph, CommitPointsEqual, cfg.constraint); w != -1 {
			t.Errorf("%s: state %q cannot reach commit-point agreement", name, res.Graph.KeyAt(w))
		}
	}
}

// TestCommittedWritesSurviveRollback directs a specific behaviour: a write
// is committed on a majority, the leader fails over, and the spec's
// rollback action can never remove the committed entry (the invariant holds
// throughout exploration, checked globally in TestSpecV2ModelChecks; here
// we verify the scenario is actually represented in the state space).
func TestCommittedWritesSurviveRollback(t *testing.T) {
	res, err := tla.Check(SpecV2(smallCfg()), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find a state where some node has a non-NULL commit point and some
	// other node rolled back (shorter log than the commit point index
	// while having diverged): the combination must still satisfy the
	// invariant, i.e. the committed entry is on a majority.
	foundCommit := false
	for id := 0; id < res.Graph.Len(); id++ {
		s := res.Graph.StateAt(id)
		for i := range s.NumNodes() {
			if !s.CommitPoints[i].IsNull() {
				foundCommit = true
			}
		}
	}
	if !foundCommit {
		t.Fatal("state space contains no committed writes; config too small")
	}
	// Rollback must appear as an explored action.
	if !slices.Contains(res.Graph.ActionNames(), "RollbackOplog") {
		t.Error("no RollbackOplog transitions explored")
	}
}

func TestQuorums(t *testing.T) {
	qs := quorums(3)[0]
	// Majorities of {0,1,2} containing 0: {0,1}, {0,2}, {0,1,2}.
	if len(qs) != 3 {
		t.Fatalf("quorums(3,0) = %v", qs)
	}
	for _, q := range qs {
		if len(q) < Majority(3) {
			t.Errorf("quorum %v below majority", q)
		}
		has0 := false
		for _, m := range q {
			if m == 0 {
				has0 = true
			}
		}
		if !has0 {
			t.Errorf("quorum %v missing candidate", q)
		}
	}
	if got := len(quorums(5)[2]); got != 11 {
		// Majorities of 5 containing a fixed member: C(4,2)+C(4,3)+C(4,4) = 6+4+1.
		t.Errorf("quorums(5,2) count = %d, want 11", got)
	}
}

func TestCommitPointOrdering(t *testing.T) {
	null := CommitPoint{}
	a := CommitPoint{Term: 1, Index: 1}
	b := CommitPoint{Term: 1, Index: 2}
	c := CommitPoint{Term: 2, Index: 1}
	if !null.Before(a) || !a.Before(b) || !b.Before(c) {
		t.Error("ordering broken")
	}
	if a.Before(a) || c.Before(a) {
		t.Error("ordering not strict")
	}
	if !null.IsNull() || a.IsNull() {
		t.Error("IsNull broken")
	}
	if null.String() != "NULL" || b.String() != "1.2" {
		t.Errorf("formatting: %s %s", null, b)
	}
}

func TestKeyDistinguishesStates(t *testing.T) {
	cfg := smallCfg()
	s1 := cfg.initState()
	if s1.Key() != cfg.initState().Key() {
		t.Error("equal states key differently")
	}
	s2 := cfg.initState()
	s2.Terms[1] = 2
	if s1.Key() == s2.Key() {
		t.Error("key ignores terms")
	}
	s3 := cfg.initState()
	s3.Oplogs[0] = oplogOf(1)
	if s1.Key() == s3.Key() {
		t.Error("key ignores oplogs")
	}
	s4 := cfg.initState()
	s4.Roles[2] = Leader
	if s1.Key() == s4.Key() {
		t.Error("key ignores roles")
	}
	s5 := cfg.initState()
	s5.CommitPoints[0] = CommitPoint{1, 1}
	if s1.Key() == s5.Key() {
		t.Error("key ignores commit points")
	}
}

func TestBecomePrimaryRequiresUpToDateLog(t *testing.T) {
	s := smallCfg().initState()
	// Node 0 has a committed-looking log; nodes 1, 2 are empty.
	s.Oplogs[0] = oplogOf(1)
	s.Oplogs[1] = oplogOf(1)
	s.Terms = [MaxNodes]int16{1, 1, 0}
	// Node 2 (empty log) must not be electable with voters {0,1}: both are ahead.
	for _, succ := range becomePrimaryByMagic(s, quorums(3), false) {
		for i, r := range succ.Roles {
			if r == Leader && i == 2 {
				t.Errorf("node 2 elected with stale log: %v", succ)
			}
		}
	}
	// Node 0 must be electable (voter set {0,2}: node 2 not ahead).
	elected0 := false
	for _, succ := range becomePrimaryByMagic(s, quorums(3), false) {
		if succ.Roles[0] == Leader {
			elected0 = true
		}
	}
	if !elected0 {
		t.Error("up-to-date node 0 not electable")
	}
}

func TestAdvanceCommitPointRequiresCurrentTerm(t *testing.T) {
	s := smallCfg().initState()
	s.Roles[0] = Leader
	s.Terms = [MaxNodes]int16{2, 2, 2}
	s.Oplogs[0] = oplogOf(1) // entry from an older term, replicated everywhere
	s.Oplogs[1] = oplogOf(1)
	s.Oplogs[2] = oplogOf(1)
	if succs := advanceCommitPoint(s); len(succs) != 0 {
		t.Errorf("leader committed an old-term entry directly: %v", succs)
	}
	// Once the leader writes in its own term and it replicates, both commit.
	s.Oplogs[0] = oplogOf(1, 2)
	s.Oplogs[1] = oplogOf(1, 2)
	succs := advanceCommitPoint(s)
	if len(succs) != 1 {
		t.Fatalf("expected one successor, got %d", len(succs))
	}
	want := CommitPoint{Term: 2, Index: 2}
	if succs[0].CommitPoints[0] != want {
		t.Errorf("commit point = %v, want %v", succs[0].CommitPoints[0], want)
	}
}

func TestLearnCommitPointTermCheckBlocksFutureTerms(t *testing.T) {
	s := smallCfg().initState()
	s.Terms = [MaxNodes]int16{1, 2, 2}
	s.Oplogs[0] = oplogOf(2)
	s.Oplogs[1] = oplogOf(2)
	s.Oplogs[2] = oplogOf(2)
	s.CommitPoints[1] = CommitPoint{Term: 2, Index: 1}
	for _, succ := range learnCommitPointWithTermCheck(s) {
		if succ.CommitPoints[0] == (CommitPoint{Term: 2, Index: 1}) {
			t.Error("node 0 (term 1) trusted a term-2 commit point")
		}
	}
}

func TestLearnFromSyncSourceCapsAtLastApplied(t *testing.T) {
	s := smallCfg().initState()
	s.Terms = [MaxNodes]int16{1, 1, 1}
	s.Oplogs[0] = oplogOf(1)    // one entry applied
	s.Oplogs[1] = oplogOf(1, 1) // sync source is ahead
	s.Oplogs[2] = oplogOf(1, 1)
	s.CommitPoints[1] = CommitPoint{Term: 1, Index: 2}
	var got []CommitPoint
	for _, succ := range learnCommitPointFromSyncSource(s) {
		if succ.CommitPoints[0] != s.CommitPoints[0] {
			got = append(got, succ.CommitPoints[0])
		}
	}
	if len(got) == 0 {
		t.Fatal("node 0 learned nothing")
	}
	for _, cp := range got {
		if cp.Index > 1 {
			t.Errorf("commit point %v beyond last applied entry", cp)
		}
	}
}

// Property: every action preserves the oplog prefix-compatibility ("log
// matching") property on reachable states — if two oplogs share an entry at
// an index, they share the whole prefix. Verified over the explored graph.
func TestLogMatchingPropertyHolds(t *testing.T) {
	res, err := tla.Check(SpecV2(smallCfg()), tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < res.Graph.Len(); id++ {
		s := res.Graph.StateAt(id)
		n := s.NumNodes()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := s.Oplogs[i].Terms(), s.Oplogs[j].Terms()
				l := len(a)
				if len(b) < l {
					l = len(b)
				}
				// Find the last shared index and check prefix below it.
				for k := l - 1; k >= 0; k-- {
					if a[k] == b[k] {
						for m := 0; m < k; m++ {
							if a[m] != b[m] {
								t.Fatalf("log matching violated in state %s", s.Key())
							}
						}
						break
					}
				}
			}
		}
	}
}

// Property-based: quorums always overlap (any two majorities intersect).
func TestQuickQuorumOverlap(t *testing.T) {
	f := func(n8, i8, j8 uint8) bool {
		n := int(n8%5) + 1
		i, j := int(i8)%n, int(j8)%n
		qs := quorums(n)
		for _, qa := range qs[i] {
			for _, qb := range qs[j] {
				overlap := false
				for _, a := range qa {
					for _, b := range qb {
						if a == b {
							overlap = true
						}
					}
				}
				if !overlap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestParallelCheckerAgrees cross-checks the parallel model checker against
// the sequential oracle on both RaftMongo variants: every counter and the
// full recorded graph must be identical (the guarantee the rest of the
// repository relies on when it runs with the default GOMAXPROCS workers).
func TestParallelCheckerAgrees(t *testing.T) {
	for name, mk := range map[string]func() *tla.Spec[State]{
		"V1": func() *tla.Spec[State] { return SpecV1(smallCfg()) },
		"V2": func() *tla.Spec[State] { return SpecV2(smallCfg()) },
	} {
		seq, err := tla.Check(mk(), tla.Options{Workers: 1, RecordGraph: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, w := range []int{4} {
			par, err := tla.Check(mk(), tla.Options{Workers: w, RecordGraph: true})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if par.Distinct != seq.Distinct || par.Transitions != seq.Transitions ||
				par.Depth != seq.Depth || par.Terminal != seq.Terminal {
				t.Fatalf("%s workers=%d: got %d/%d/%d/%d, want %d/%d/%d/%d",
					name, w, par.Distinct, par.Transitions, par.Depth, par.Terminal,
					seq.Distinct, seq.Transitions, seq.Depth, seq.Terminal)
			}
			var seqDOT, parDOT bytes.Buffer
			if err := errors.Join(seq.Graph.WriteDOT(&seqDOT, name), par.Graph.WriteDOT(&parDOT, name)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parDOT.Bytes(), seqDOT.Bytes()) {
				t.Fatalf("%s workers=%d: recorded graphs differ", name, w)
			}
		}
	}
}
