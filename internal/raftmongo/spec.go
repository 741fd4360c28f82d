package raftmongo

import "repro/internal/tla"

// SpecV1 is the original, pre-MBTC RaftMongo specification (§4.2.2 "Term"):
// the election term is one global number all nodes know instantaneously, so
// there is no term-gossip action and no term check when learning the commit
// point. This is the variant whose state space the paper reports as 42,034
// states, model-checked in 2 seconds. It panics on more than MaxNodes
// nodes.
func SpecV1(cfg Config) *tla.Spec[State] {
	init := cfg.initState()
	qs := quorums(cfg.Nodes)
	return &tla.Spec[State]{
		Name: "RaftMongoV1",
		Init: func() []State { return []State{init} },
		Actions: []tla.Action[State]{
			{Name: "AppendOplog", Next: appendOplog},
			{Name: "RollbackOplog", Next: rollbackOplog},
			{Name: "BecomePrimaryByMagic", Next: func(s State) []State { return becomePrimaryByMagic(s, qs, true) }},
			{Name: "Stepdown", Next: stepdown},
			{Name: "ClientWrite", Next: clientWrite},
			{Name: "AdvanceCommitPoint", Next: advanceCommitPoint},
			{Name: "LearnCommitPoint", Next: learnCommitPointV1},
		},
		Invariants: []tla.Invariant[State]{
			{Name: "CommitPointIsCommitted", Check: commitPointIsCommitted},
			{Name: "OneLeaderPerTerm", Check: oneLeaderPerTerm},
			{Name: "AtMostOneLeader", Check: atMostOneLeader},
		},
		Constraint:      cfg.constraint,
		SymmetryVisitor: cfg.symmetry(),
		Independence:    Independence(),
	}
}

// SpecV2 is the post-MBTC rewrite: terms are per-node and gossiped via
// UpdateTermThroughHeartbeat, and the two commit-point learning actions of
// the real system are modelled. The paper reports this rewrite changed 252
// of 345 lines of TLA+ and grew the state space to 371,368 states,
// model-checked in 14 minutes (experiment E7). It panics on more than
// MaxNodes nodes.
func SpecV2(cfg Config) *tla.Spec[State] {
	init := cfg.initState()
	qs := quorums(cfg.Nodes)
	return &tla.Spec[State]{
		Name: "RaftMongoV2",
		Init: func() []State { return []State{init} },
		Actions: []tla.Action[State]{
			{Name: "AppendOplog", Next: appendOplog},
			{Name: "RollbackOplog", Next: rollbackOplog},
			{Name: "BecomePrimaryByMagic", Next: func(s State) []State { return becomePrimaryByMagic(s, qs, false) }},
			{Name: "Stepdown", Next: stepdown},
			{Name: "ClientWrite", Next: clientWrite},
			{Name: "AdvanceCommitPoint", Next: advanceCommitPoint},
			{Name: "UpdateTermThroughHeartbeat", Next: updateTermThroughHeartbeat},
			{Name: "LearnCommitPointWithTermCheck", Next: learnCommitPointWithTermCheck},
			{Name: "LearnCommitPointFromSyncSourceNeverBeyondLastApplied", Next: learnCommitPointFromSyncSource},
		},
		Invariants: []tla.Invariant[State]{
			{Name: "CommitPointIsCommitted", Check: commitPointIsCommitted},
			{Name: "OneLeaderPerTerm", Check: oneLeaderPerTerm},
			{Name: "AtMostOneLeader", Check: atMostOneLeader},
		},
		Constraint:      cfg.constraint,
		SymmetryVisitor: cfg.symmetry(),
		Independence:    Independence(),
	}
}

// atMostOneLeader is the original specification's simplifying assumption
// (§4.2.2 "Two leaders"): the real election protocol briefly permits two
// leaders, but RaftMongo.tla assumes one, and the paper's authors avoided
// tests exhibiting two so traces would check.
func atMostOneLeader(s State) error {
	if s.leaders() > 1 {
		return errTwoLeaders
	}
	return nil
}

// errTwoLeaders reports a violation of the at-most-one-leader assumption.
var errTwoLeaders = errTwoLeadersType{}

type errTwoLeadersType struct{}

func (errTwoLeadersType) Error() string { return "more than one leader at a time" }
