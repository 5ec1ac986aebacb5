package asmr

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
