package asmr

import "github.com/zeroloss/zlb/internal/types"

// SetRetainDepth runs the lifetime rule at another depth for one test and
// returns the function that puts RetainDepth back. Tests only: the depth
// is a constant of the protocol everywhere else.
func SetRetainDepth(d uint64) (restore func()) {
	old := retainDepth
	retainDepth = d
	return func() { retainDepth = old }
}

// JoinNoticeBlocks is the chain the replica would ship an included replica
// now. Tests only: a join notice is otherwise sent by a membership change.
func (r *Replica) JoinNoticeBlocks() []BlockRecord { return r.buildJoinNotice().Blocks }

// Asked records a CatchupReq for from..to to peer as sent, so that a test
// can hand the replica the answer. Tests only: askBlocks records the
// requests the replica sends.
func (r *Replica) Asked(peer types.ReplicaID, from, to uint64) {
	r.asked[blockReq{peer: peer, from: from, to: to}] = true
}

// InFlight counts the replica's block requests still unanswered, by peer.
func (r *Replica) InFlight() map[types.ReplicaID]int {
	out := make(map[types.ReplicaID]int)
	for req := range r.asked {
		out[req.peer]++
	}
	return out
}
