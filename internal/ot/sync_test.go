package ot

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/race"
)

func TestNetworkBasicSync(t *testing.T) {
	tr := NewTransformer(nil, false)
	n := NewNetwork(tr, []int{1, 2, 3}, 2)
	// Figure 9's generated test case: client 0 sets index 2 to 4, client 1
	// removes index 1; after sync the array is {1, 4} — the ArraySet's
	// index shifted left past the concurrent erase.
	if err := n.Perform(0, Set(2, 4).WithMeta(Meta{Peer: 0})); err != nil {
		t.Fatal(err)
	}
	if err := n.Perform(1, Erase(1).WithMeta(Meta{Peer: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if !n.Converged() {
		t.Fatalf("not converged: clients %v/%v server %v", n.ClientState(0), n.ClientState(1), n.ServerState())
	}
	want := []int{1, 4}
	if !eq(n.ClientState(0), want) {
		t.Fatalf("converged to %v, want %v", n.ClientState(0), want)
	}
}

func TestNetworkThreeClientsConverge(t *testing.T) {
	tr := NewTransformer(nil, false)
	n := NewNetwork(tr, []int{1, 2, 3}, 3)
	ops := []Op{
		Insert(0, 100).WithMeta(Meta{Peer: 0}),
		Move(0, 2).WithMeta(Meta{Peer: 1}),
		Erase(2).WithMeta(Meta{Peer: 2}),
	}
	for c, op := range ops {
		if err := n.Perform(c, op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if !n.Converged() {
		t.Fatalf("not converged: %v %v %v server %v",
			n.ClientState(0), n.ClientState(1), n.ClientState(2), n.ServerState())
	}
	if !n.HaveUnmergedChangesOrAreConsistent() {
		t.Fatal("invariant violated after quiescence")
	}
}

func TestNetworkOfflineBatches(t *testing.T) {
	// A client performs several ops offline, another merges in between:
	// exercises multi-op merge windows.
	tr := NewTransformer(nil, false)
	n := NewNetwork(tr, []int{1, 2, 3, 4}, 2)
	for _, op := range []Op{Set(0, 9).WithMeta(Meta{Peer: 0}), Erase(3).WithMeta(Meta{Peer: 0}), Insert(1, 7).WithMeta(Meta{Peer: 0})} {
		if err := n.Perform(0, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Merge(1); err != nil { // client 1 syncs first (no-op both ways)
		t.Fatal(err)
	}
	for _, op := range []Op{Move(2, 0).WithMeta(Meta{Peer: 1}), Set(1, 5).WithMeta(Meta{Peer: 1})} {
		if err := n.Perform(1, op); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if !n.Converged() {
		t.Fatalf("not converged: %v vs %v (server %v)", n.ClientState(0), n.ClientState(1), n.ServerState())
	}
}

func TestUnmergedAndProgress(t *testing.T) {
	tr := NewTransformer(nil, false)
	n := NewNetwork(tr, []int{1}, 2)
	if err := n.Perform(0, Set(0, 5).WithMeta(Meta{Peer: 0})); err != nil {
		t.Fatal(err)
	}
	st, ct := n.Unmerged(0)
	if len(st) != 0 || len(ct) != 1 {
		t.Fatalf("unmerged = %v / %v", st, ct)
	}
	if err := n.Merge(0); err != nil {
		t.Fatal(err)
	}
	st, ct = n.Unmerged(0)
	if len(st) != 0 || len(ct) != 0 {
		t.Fatalf("after merge: unmerged = %v / %v", st, ct)
	}
	// Client 1 now has the server's op pending.
	st, _ = n.Unmerged(1)
	if len(st) != 1 {
		t.Fatalf("client 1 server tail = %v", st)
	}
}

func TestPerformInvalidOp(t *testing.T) {
	tr := NewTransformer(nil, false)
	n := NewNetwork(tr, []int{1}, 1)
	if err := n.Perform(0, Erase(5)); err == nil {
		t.Fatal("expected error for out-of-range op")
	} else if !strings.Contains(err.Error(), "client 0") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestQuickRandomWorkloadsConverge is the property-based convergence check:
// any combination of single ops by up to 4 clients on arrays up to length 5
// converges after SyncAll. This is the fuzz-transform test of §5.2 at the
// property level.
func TestQuickRandomWorkloadsConverge(t *testing.T) {
	tr := NewTransformer(nil, false)
	f := func(seedArr []uint8, picks []uint16) bool {
		arrLen := len(seedArr) % 6
		arr := make([]int, arrLen)
		for i := range arr {
			arr[i] = int(seedArr[i]) % 10
		}
		numClients := len(picks)%4 + 1
		n := NewNetwork(tr, arr, numClients)
		for c := 0; c < numClients && c < len(picks); c++ {
			ops := enumOps(arrLen, c, false)
			op := ops[int(picks[c])%len(ops)]
			if err := n.Perform(c, op); err != nil {
				return false
			}
		}
		if !hasUnmergedAgrees(n) {
			return false
		}
		if _, err := n.SyncAll(); err != nil {
			return false
		}
		return hasUnmergedAgrees(n) && n.Converged() && n.HaveUnmergedChangesOrAreConsistent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// hasUnmergedAgrees reports whether HasUnmerged agrees, for every client,
// with the copying Unmerged operator it stands in for.
func hasUnmergedAgrees(n *Network) bool {
	for c := 0; c < n.NumClients(); c++ {
		st, ct := n.Unmerged(c)
		if n.HasUnmerged(c) != (len(st) > 0 || len(ct) > 0) {
			return false
		}
	}
	return true
}

// TestCloneIsCopyOnWrite: NewNetwork's peers share one initial array, yet
// a Perform or a Merge on one client leaves the other clients' and the
// server's arrays as they were. A clone shares its parent's logs and
// arrays, yet performing and syncing on sibling clones — with every log of
// the parent given spare capacity, so that an in-place append would land
// in memory the parent and every sibling can see — changes neither the
// parent nor an earlier sibling, and Unmerged still returns copies the
// caller may overwrite.
func TestCloneIsCopyOnWrite(t *testing.T) {
	tr := NewTransformer(nil, false)
	shared := NewNetwork(tr, []int{1, 2, 3}, 3)
	unchanged := func(when string, arrays ...[]int) {
		t.Helper()
		for _, got := range arrays {
			if !eq(got, []int{1, 2, 3}) {
				t.Fatalf("%s changed another peer's array to %v", when, got)
			}
		}
	}
	if err := shared.Perform(0, Set(0, 9).WithMeta(Meta{Peer: 1})); err != nil {
		t.Fatal(err)
	}
	unchanged("a Perform on client 0", shared.ServerState(), shared.ClientState(1), shared.ClientState(2))
	if err := shared.Merge(0); err != nil {
		t.Fatal(err)
	}
	unchanged("client 0's merge", shared.ClientState(1), shared.ClientState(2))
	if err := shared.Perform(2, Erase(1).WithMeta(Meta{Peer: 3})); err != nil {
		t.Fatal(err)
	}
	if err := shared.Merge(1); err != nil {
		t.Fatal(err)
	}
	if got := shared.ClientState(2); !eq(got, []int{1, 3}) {
		t.Fatalf("client 1's merge changed client 2's array to %v", got)
	}

	n := NewNetwork(tr, []int{1, 2, 3}, 3)
	for c, op := range []Op{Insert(0, 7), Move(0, 2), Erase(1)} {
		if err := n.Perform(c, op.WithMeta(Meta{Peer: c + 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Merge(0); err != nil {
		t.Fatal(err)
	}
	v := n.View()
	grow := func(ops []Op) []Op { return append(make([]Op, 0, len(ops)+4), ops...) }
	spare := View{
		ServerLog:   grow(v.ServerLog),
		ServerState: append([]int(nil), v.ServerState...),
		ClientLog:   make([][]Op, len(v.ClientLog)),
		ClientState: make([][]int, len(v.ClientState)),
		Progress:    append([]Progress(nil), v.Progress...),
	}
	for c := range v.ClientLog {
		spare.ClientLog[c] = grow(v.ClientLog[c])
		spare.ClientState[c] = append([]int(nil), v.ClientState[c]...)
	}
	parent := NetworkFromView(tr, spare)
	enc := string(parent.AppendBinary(nil))
	if want := string(n.AppendBinary(nil)); enc != want {
		t.Fatalf("NetworkFromView(View()) encodes %x, want %x", enc, want)
	}
	var children []*Network
	var encs []string
	for k := 0; k < 6; k++ {
		child := parent.Clone()
		if err := child.Perform(k%3, Set(0, 90+k).WithMeta(Meta{Timestamp: k})); err != nil {
			t.Fatal(err)
		}
		if _, err := child.SyncAll(); err != nil {
			t.Fatal(err)
		}
		children, encs = append(children, child), append(encs, string(child.AppendBinary(nil)))
	}
	for c := 0; c < parent.NumClients(); c++ {
		st, ct := parent.Unmerged(c)
		for i := range st {
			st[i] = Clear()
		}
		for i := range ct {
			ct[i] = Clear()
		}
	}
	if string(parent.AppendBinary(nil)) != enc {
		t.Fatal("building the clones, or overwriting Unmerged's tails, changed the parent")
	}
	for k, child := range children {
		if string(child.AppendBinary(nil)) != encs[k] {
			t.Fatalf("clone %d was changed by a later sibling", k)
		}
	}
}

// TestQuickTransformOrientationConsistent: the server-side and client-side
// merge computations must agree — TransformLists(as, bs) and
// TransformLists(bs, as) are mirrored results. Network.Merge relies on
// this when each peer transforms independently.
func TestQuickTransformOrientationConsistent(t *testing.T) {
	tr := NewTransformer(nil, false)
	f := func(pa, pb uint16, n8 uint8) bool {
		n := int(n8)%4 + 1
		arr := baseArray(n)
		_ = arr
		opsA := enumOps(n, 1, false)
		opsB := enumOps(n, 2, false)
		a := opsA[int(pa)%len(opsA)]
		b := opsB[int(pb)%len(opsB)]
		a1, b1, err := tr.TransformLists([]Op{a}, []Op{b})
		if err != nil {
			return false
		}
		b2, a2, err := tr.TransformLists([]Op{b}, []Op{a})
		if err != nil {
			return false
		}
		return opsListEqual(a1, a2) && opsListEqual(b1, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func opsListEqual(a, b []Op) bool {
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

func TestCatalogueArithmetic(t *testing.T) {
	if got := MergeRuleCount(NumInstrTypes); got != 190 {
		t.Errorf("MergeRuleCount(19) = %d, want 190", got)
	}
	if got := SymmetricRuleCount(NumInstrTypes); got != 171 {
		t.Errorf("SymmetricRuleCount(19) = %d, want 171", got)
	}
	if got := len(AllRulePairs()); got != 190 {
		t.Errorf("len(AllRulePairs) = %d, want 190", got)
	}
	if got := len(ArrayRulePairs()); got != 21 {
		t.Errorf("array rule pairs = %d, want 21", got)
	}
	if got := MergeRuleCount(6); got != 21 {
		t.Errorf("MergeRuleCount(6) = %d, want 21", got)
	}
}

// TestCatalogueTrivialFraction reproduces E11's qualitative claim:
// approximately three-quarters of the 190 merge rules are trivial.
func TestCatalogueTrivialFraction(t *testing.T) {
	trivial := 0
	for _, p := range AllRulePairs() {
		if p.Trivial() {
			trivial++
		}
	}
	frac := float64(trivial) / 190
	t.Logf("trivial rules: %d/190 (%.0f%%)", trivial, 100*frac)
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("trivial fraction %.2f outside 'approximately three-quarters'", frac)
	}
	// All array pairs must be non-trivial.
	for _, p := range ArrayRulePairs() {
		if p.Trivial() {
			t.Errorf("array pair %v/%v classified trivial", p.A, p.B)
		}
	}
}

func TestInstrTypeStrings(t *testing.T) {
	if InstrArraySet.String() != "ArraySet" || InstrAddTable.String() != "AddTable" {
		t.Error("instruction names broken")
	}
	if InstrType(200).String() != "Unknown" {
		t.Error("unknown instruction name")
	}
	if InstrSetProperty.IsArray() || !InstrArrayClear.IsArray() {
		t.Error("IsArray broken")
	}
}

// TestNetworkAllocsPerCall pins what a deployment costs to build at the
// paper's three clients: a clone is its one block (the Network and its
// per-client slices), and NewNetwork is that block plus the one copy of
// the initial array every peer shares.
func TestNetworkAllocsPerCall(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	tr := NewTransformer(nil, false)
	initial := []int{1, 2, 3}
	n := NewNetwork(tr, initial, 3)
	if err := n.Perform(1, Insert(0, 7)); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { n.Clone() }); got != 1 {
		t.Errorf("Clone allocates %.1f times, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { NewNetwork(tr, initial, 3) }); got != 2 {
		t.Errorf("NewNetwork allocates %.1f times, want 2", got)
	}
	// The block replaces four allocations of 144, 80, 80 and 48 bytes.
	if size := unsafe.Sizeof(networkBlock{}); size > 352 {
		t.Errorf("a three-client block is %d bytes, past the 352-byte size class", size)
	}
}

// corruptDownload is a transformer whose every second batch — a merge's
// download, the server's ops rebased for the client — erases an index no
// array has, so the merge's client-side apply fails after the server side
// has applied.
type corruptDownload struct {
	BatchTransformer
	calls int
}

func (c *corruptDownload) TransformLists(as, bs []Op) ([]Op, []Op, error) {
	asOut, bsOut, err := c.BatchTransformer.TransformLists(as, bs)
	if c.calls++; c.calls%2 == 0 && len(asOut) > 0 {
		asOut = append(asOut[:len(asOut):len(asOut)], Erase(100))
	}
	return asOut, bsOut, err
}

// TestMergeLogsStayApart: a merge of a clone, whose logs have no room,
// appends both logs into one block, the server's clamped so that growing
// it again leaves the client's log as it was; and a merge whose client
// side fails to apply changes nothing, the server side included.
func TestMergeLogsStayApart(t *testing.T) {
	tr := NewTransformer(nil, false)
	parent := NewNetwork(tr, []int{1, 2, 3}, 2)
	for c, op := range []Op{Set(0, 9), Erase(1)} {
		if err := parent.Perform(c, op.WithMeta(Meta{Peer: c + 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Merge(1); err != nil { // the server log gains client 1's erase
		t.Fatal(err)
	}
	n := parent.Clone()
	if err := n.Merge(0); err != nil { // both directions non-empty
		t.Fatal(err)
	}
	clientLog := n.ClientHistory(0)
	if err := n.Perform(1, Insert(0, 5).WithMeta(Meta{Peer: 2})); err != nil {
		t.Fatal(err)
	}
	if err := n.Merge(1); err != nil { // appends to the server log
		t.Fatal(err)
	}
	if got := n.ClientHistory(0); !slices.Equal(got, clientLog) {
		t.Fatalf("growing the server log changed client 0's log from %v to %v", clientLog, got)
	}

	bad := parent.Clone()
	bad.tr = &corruptDownload{BatchTransformer: tr}
	before := string(bad.AppendBinary(nil))
	if err := bad.Merge(0); err == nil || !strings.Contains(err.Error(), "client 0 apply during merge") {
		t.Fatalf("merge with a corrupt download: err = %v, want the client-side apply error", err)
	}
	if after := string(bad.AppendBinary(nil)); after != before {
		t.Fatalf("a failed merge changed the deployment: %x, was %x", after, before)
	}
}
