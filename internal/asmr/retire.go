package asmr

import (
	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// RetainDepth is how many instances behind the next one to start keep
// their full protocol state after deciding. The paper's confirmation
// phase (§4.1 ②) and finalization depth (Appendix B, m = 28 in the worked
// example) bound how far back a fork merge or a PoF extraction can reach;
// 32 covers that with room. It is a constant of the protocol, not a
// tuning knob.
const RetainDepth = 32

// retainDepth is RetainDepth, in a variable only so that export_test.go
// can run the campaigns at an aggressive depth.
var retainDepth uint64 = RetainDepth

// retired reports whether the instance holds no protocol state: it was
// retired by the rule below, or restored from disk and never ran here.
func (st *instState) retired() bool { return st.inst == nil }

// retirable is the per-instance half of the lifetime rule: decided, final
// (deciding is all there is without accountability: no confirmation phase
// runs), and no conflicting certified decision on record.
func (r *Replica) retirable(st *instState) bool {
	return st.decided && (st.final || !r.cfg.Accountable) && !st.disagreement
}

// noteProgress queues an instance the sweep already passed over for
// another look, now that it decided or became final.
func (r *Replica) noteProgress(st *instState) {
	if st.k < r.sweptTo && !st.retired() {
		r.recheck = append(r.recheck, st.k)
	}
}

// retireFinalized applies the replica state lifetime rule. A main-chain
// instance gives up its protocol state once it is
//
//	(a) decided,
//	(b) final,
//	(c) free of a recorded disagreement,
//	(d) more than retainDepth instances behind nextK, and
//	(e) no membership change is running and no proven culprit awaits one
//
// — (e) because a change restarts undecided instances and ships the
// culprits' statements, so nothing is dropped while one is due. The sweep
// walks each k once, in order; an instance that fails (a)–(c) is passed
// over, not waited for, so one outage cannot pin everything after it, and
// comes back through noteProgress if it qualifies later. It runs at the
// end of every event, never under an instance's own call stack.
func (r *Replica) retireFinalized() {
	if r.sweptTo+retainDepth >= r.nextK && len(r.recheck) == 0 {
		return
	}
	if (r.change != nil && !r.change.Done()) || r.log.CulpritCount() > 0 {
		return
	}
	for _, k := range r.recheck {
		if st := r.instances[k]; !st.retired() && r.retirable(st) {
			r.retire(st)
		}
	}
	r.recheck = r.recheck[:0]
	for ; r.sweptTo+retainDepth < r.nextK; r.sweptTo++ {
		st, ok := r.instances[r.sweptTo]
		if !ok || st.retired() {
			continue
		}
		if r.retirable(st) {
			r.retire(st)
		} else {
			r.unfinal++
		}
	}
}

// retire releases everything instance k holds: the SBC state machine
// with its rbc/bincon slots, the confirmation bookkeeping, and — for
// every attempt k ran under here or, adopted whole, was decided under —
// the log's signed statements and the interned payloads. The decision
// goes to the History.
func (r *Replica) retire(st *instState) {
	st.inst.Release()
	st.inst, st.confirms, st.remoteSeen = nil, nil, nil
	r.putAway(st)
	for a := uint32(0); a <= max(st.attempt, uint32(r.epoch)); a++ {
		key := accountability.InstanceKey{Context: accountability.CtxMain, Instance: WireInstance(st.k, a)}
		r.log.DropInstance(key)
	}
	r.live--
	r.retiredTotal++
	if st.k < r.sweptTo {
		r.unfinal--
	}
}

// onLateFrame handles consensus traffic for a retired instance. Payload
// pulls are answered from the decision, read back from the History,
// exactly as the live instance answered them; every other frame is a
// straggler of a finished protocol run and is dropped unread.
func (r *Replica) onLateFrame(from types.ReplicaID, st *instState, attempt uint32, msg simnet.Message) {
	if attempt == st.attempt {
		if resp := sbc.AnswerPull(msg, func() *sbc.Decision { return r.decisionOf(st) }); resp != nil {
			r.cfg.Env.Send(from, resp)
			return
		}
	}
	r.lateDropped++
}

// Stats is a snapshot of what the replica holds in memory and why, and of
// what its signatures cost it.
type Stats struct {
	// LiveInstances counts main-chain instances holding protocol state:
	// in flight, or decided within the last RetainDepth.
	LiveInstances int
	// UnfinalInstances counts live instances more than RetainDepth behind:
	// decided but never final, disputed, or never decided here.
	UnfinalInstances int
	// RetiredInstances counts instances retired since start.
	RetiredInstances uint64
	// LateFramesDropped counts consensus frames that arrived for an
	// instance after it retired.
	LateFramesDropped uint64
	// LogStatements is the number of signed statements in the
	// accountability log, verified or held unchecked.
	LogStatements int
	// InternedPayloads is the number of payloads in the intern table.
	InternedPayloads int
	// StmtSigChecks counts the statement signatures the replica handed to
	// its signature scheme; StmtSigKnown those it accepted without a check
	// because its log held that exact signed statement: its own, and the
	// votes inside a certificate that had arrived as messages before;
	// StmtSigDeferred those it held without a check, votes that arrived
	// after their threshold (accountability.Log.Defer).
	StmtSigChecks, StmtSigKnown, StmtSigDeferred uint64
	// DecidePulls counts the bincon.DecideReq sent: binary decisions
	// announced here before this replica had reached them, or against
	// what it decided.
	DecidePulls uint64
	// DecisionBytes is the payload bytes of the decisions the replica
	// holds in its instances: the live ones, and any its History failed
	// to take. HistoryBytes is what the History holds (History.Bytes),
	// and HistoryErrors counts its failed writes and its failed or
	// mismatched reads.
	DecisionBytes, HistoryBytes int64
	HistoryErrors               uint64
}

// Stats reports the replica's retained state. Like every Replica method
// it must be called from the replica's event loop.
func (r *Replica) Stats() Stats {
	return Stats{
		LiveInstances:     r.live,
		UnfinalInstances:  r.unfinal,
		RetiredInstances:  r.retiredTotal,
		LateFramesDropped: r.lateDropped,
		LogStatements:     r.log.Statements() + r.log.Held(),
		InternedPayloads:  r.cfg.Intern.Len(),
		StmtSigChecks:     r.log.SigChecks,
		StmtSigKnown:      r.log.SigKnown,
		StmtSigDeferred:   r.log.SigDeferred,
		DecidePulls:       r.log.CertPulls,
		DecisionBytes:     r.decisionBytes,
		HistoryBytes:      r.cfg.History.Bytes(),
		HistoryErrors:     r.historyErrors,
	}
}
