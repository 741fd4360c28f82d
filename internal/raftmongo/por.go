package raftmongo

import "repro/internal/tla"

// Independence is the spec's partial-order-reduction declaration
// (tla.Spec.Independence), shared by V1 and V2. It is diff-based: rather
// than enumerating which action touched what, Owner compares the state to
// its successor and assigns the transition to the variable cluster it
// wrote — which automatically routes every multi-node action (an election
// rewrites all roles and terms) and every log move to the global -1.
//
// The process granularity is two clusters per node, 2n processes total:
//
//   - 2i   — node i's commit point. Commit-point gossip is the heart of
//     the spec, and the V2 explosion is mostly interleavings of n nodes
//     learning the commit point in every order; clustering cp moves per
//     node lets one learner's moves stand for all orders.
//   - 2i+1 — node i's term and role. Kept separate from the commit point
//     because term gossip (UpdateTermThroughHeartbeat on a follower)
//     commutes with commit-point learning on every node, including node i
//     itself.
//
// Deferral-safety (the C1/C2 obligations the engine cannot check):
//
//   - Commit-point moves only ever advance CommitPoints[i]; no guard in
//     either variant reads another node's commit point except the other
//     cp-learning actions, whose interleavings the cycle proviso keeps
//     revisiting, and no cp move disables any transition.
//   - Term/role moves are only safe while node i is a follower: demoting
//     a leader (stepdown, or a heartbeat carrying a newer term) disables
//     that leader's ClientWrite and AdvanceCommitPoint, so those moves
//     are dependent and must be explored with full interleaving. The Safe
//     hook vetoes the cluster whenever node i leads; what remains —
//     follower term bumps — only ever enables transitions (the V2 term
//     check is a ≤ guard against the learner's own term).
//
// Both hooks are permutation-equivariant, so the declaration composes
// with Config.Symmetric: relabelling nodes relabels processes without
// changing any owner's existence or safety.
func Independence() *tla.Independence[State] {
	return &tla.Independence[State]{
		Procs: func(s State) int { return 2 * s.NumNodes() },
		Owner: func(s, succ State, act int) int {
			owner := -1
			for i := 0; i < s.NumNodes(); i++ {
				if !s.Oplogs[i].Equal(succ.Oplogs[i]) {
					return -1 // log moves read other nodes' logs; never prunable
				}
				cpCh := s.CommitPoints[i] != succ.CommitPoints[i]
				trCh := s.Terms[i] != succ.Terms[i] || s.Roles[i] != succ.Roles[i]
				var cluster int
				switch {
				case cpCh && trCh:
					return -1
				case cpCh:
					cluster = 2 * i
				case trCh:
					cluster = 2*i + 1
				default:
					continue
				}
				if owner != -1 {
					return -1 // transition wrote two nodes
				}
				owner = cluster
			}
			return owner
		},
		Safe: func(s State, p int) bool {
			if p%2 == 0 {
				return true // commit-point cluster: always deferrable
			}
			return s.Roles[p/2] != Leader // term/role moves of a leader disable its writes
		},
	}
}
