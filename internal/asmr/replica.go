// Package asmr implements ZLB's Accountable State Machine Replication
// (paper §4.1): an infinite sequence of Set Byzantine Consensus instances
// Γ1, Γ2, …, each followed by the optional phases of Fig. 2 — ②
// confirmation (broadcast the decision digest, detect conflicting
// certified decisions), ③ exclusion consensus and ④ inclusion consensus
// (the membership change of Alg. 1, triggered once proofs of fraud cover
// fd = ⌈n/3⌉ replicas), and ⑤ reconciliation (merging the branches of the
// fork, delegated to the Blockchain Manager through the OnDisagreement
// callback).
//
// A replica is an event-driven state machine run by internal/simnet or by
// the TCP transport; all its protocol sub-instances share one
// accountability log, so evidence found anywhere (a vote, a certificate,
// a catch-up block) counts everywhere.
package asmr

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Batch is one proposal payload for a consensus instance, with the
// modeled size/verification metadata used by the simulator's cost model.
type Batch struct {
	Payload      []byte
	ClaimedBytes int
	ClaimedSigs  int
}

// Config parameterizes one ASMR replica.
type Config struct {
	Self   types.ReplicaID
	Signer *crypto.Signer
	Env    simnet.Env
	// InitialCommittee is the committee of epoch 0.
	InitialCommittee []types.ReplicaID
	// PoolCandidates are the replicas available for inclusion (§3.2).
	PoolCandidates []types.ReplicaID
	// Accountable enables signatures and certificates. Disabled, the
	// replica is the Red Belly baseline: fast, no detection, no recovery.
	Accountable bool
	// Recover enables the membership change + reconciliation (ZLB). With
	// Accountable=true and Recover=false the replica is the Polygraph
	// baseline: detects fraud but cannot heal.
	Recover bool
	// DeceitfulBound is δ̂, the assumed bound on the deceitful ratio; the
	// confirmation phase waits for more than (δ̂+1/3)·n matching
	// confirmations (§4.1 ②). Default 5/9.
	DeceitfulBound float64
	// CoordTimeout tunes the binary consensus coordinator wait.
	CoordTimeout func(round types.Round) time.Duration
	// BatchSource supplies this replica's proposal for instance k.
	BatchSource func(k uint64) Batch
	// WaitForWork makes the replica defer starting an instance until
	// BatchSource returns a non-empty batch (paper Fig. 2: "if there are
	// enqueued requests that wait to be served, then a replica starts a
	// new instance") or a peer's proposal for it arrives, which it joins
	// with an empty one. Kick retries after new work arrives.
	WaitForWork bool
	// MaxInstances stops starting new instances after this many (0 = no
	// limit); experiments use it to bound runs.
	MaxInstances uint64
	// Adversary, when set, makes this replica deceitful in main-chain
	// instances (coalition attacks).
	Adversary *sbc.Adversary
	// AttackFromInstance delays the attack: instances below it run
	// honestly even on deceitful replicas (0 = attack from the start).
	// Experiments use it to build a clean chain before forking it.
	AttackFromInstance uint64
	// Deceitful marks this replica as a coalition member: it suppresses
	// every channel that would incriminate the coalition (confirmation
	// broadcasts, PoF gossip, membership changes, block evidence service).
	Deceitful bool
	// Intern, when set, canonicalizes reliable-broadcast payload bytes by
	// digest across the deployment — one copy of each proposal instead of
	// one per replica (rbc.Config.Intern). Nil keeps per-message slices.
	Intern *rbc.Intern
	// Tracer, when non-nil, records the replica's consensus lifecycle
	// (batch proposal, commits, disagreements, PoFs, membership changes)
	// with virtual timestamps and is threaded into every sub-protocol.
	// Nil disables tracing at zero cost.
	Tracer *obs.NodeTracer

	// OnProposal observes every proposal payload the moment the reliable
	// broadcast delivers it, before the instance decides — the
	// application's hook for speculative batch pre-validation.
	OnProposal func(payload []byte)
	// OnCommit fires when instance k decides (phase ①).
	OnCommit func(k uint64, attempt uint32, d *sbc.Decision)
	// OnSlotDecide observes per-slot binary decisions (Fig. 4's
	// disagreeing-proposals metric is counted at this granularity).
	OnSlotDecide func(k uint64, attempt uint32, slot types.ReplicaID, value bool, digest types.Digest)
	// OnFinal fires when instance k gathers enough confirmations (②).
	OnFinal func(k uint64, digest types.Digest)
	// OnDisagreement fires when a certified conflicting decision for
	// instance k is obtained; the Blockchain Manager merges it (⑤).
	OnDisagreement func(k uint64, local, remote *sbc.Decision)
	// OnPoF fires once per newly proven deceitful replica.
	OnPoF func(accountability.PoF)
	// OnMembershipChange fires when a membership change completes (③+④).
	OnMembershipChange func(*membership.Result)
	// OnJoined fires on a pool node when it has verified a JoinNotice and
	// become a committee member.
	OnJoined func(epoch uint64, committee []types.ReplicaID)
	// History keeps the decisions of retired instances (history.go). Nil
	// keeps them in memory (NewMemHistory).
	History History
}

// instState is one main-chain instance at this replica and the one record
// of what it decided: Committed, ChainDigests and records read the chain
// here. attempt is the one the instance runs under and, once decided, was
// decided under — a block adopted whole keeps its record's, not the
// adopter's epoch. While live it owns the SBC state machine and the
// confirmation bookkeeping; retirement (retire.go) releases inst and the
// two maps, hands the decision to the replica's History and leaves k,
// attempt, the flags, digest and the decision's reference there.
type instState struct {
	k         uint64
	attempt   uint32
	inst      *sbc.Instance // nil once retired, and for blocks restored from disk
	proposed  bool
	stopped   bool
	decided   bool
	inHistory bool          // the decision is in the History, at ref
	decision  *sbc.Decision // nil once in the History, and for blocks restored from disk
	ref       HistoryRef
	digest    types.Digest
	// confirmation phase
	confirms     map[types.ReplicaID]types.Digest
	final        bool
	disagreement bool
	remoteSeen   map[types.Digest]bool
}

// blockReq is a CatchupReq this replica sent and has not had answered.
type blockReq struct {
	peer     types.ReplicaID
	from, to uint64
}

// Replica is one ASMR replica.
type Replica struct {
	cfg  Config
	view *committee.View
	pool *committee.Pool
	log  *accountability.Log

	member bool // are we currently in the committee?
	epoch  uint64
	change *membership.Change

	// instances is every main-chain instance by logical k, and so the
	// chain: the first decision wins locally (conflicting certified ones
	// surface through OnDisagreement) and every decided k is below nextK.
	instances map[uint64]*instState
	nextK     uint64
	decided   int // how many of them are decided: live, adopted or restored
	started   bool

	// detection metrics (for the experiment harness)
	FirstPoFAt    time.Duration
	ThresholdAt   time.Duration
	thresholdSeen bool

	// deferred PoF gossip assembled during the current event
	outPoFs []accountability.PoF

	// asked holds the block requests in flight: a CatchupResp is taken in
	// only as the answer to one of them, and a request still in flight is
	// not sent again.
	asked map[blockReq]bool

	// Retirement of finalized instances (retire.go).
	sweptTo      uint64   // every k below it has been examined by the sweep
	recheck      []uint64 // passed-over instances that since decided or became final
	live         int      // instances holding protocol state
	unfinal      int      // of those, how many sit below sweptTo
	retiredTotal uint64
	lateDropped  uint64
	// decisionBytes is the payload bytes of the decisions held in
	// instances rather than in the History; historyErrors counts the
	// History's failed writes and failed or mismatched reads.
	decisionBytes int64
	historyErrors uint64

	// pending buffers consensus messages that cannot be routed yet: a
	// membership change a peer already started, an instance attempt we
	// have not restarted into, or an epoch ahead of ours. Replayed on
	// every state transition that could make them routable.
	pending []bufferedMsg
}

type bufferedMsg struct {
	from types.ReplicaID
	msg  simnet.Message
}

// maxPending bounds the replay buffer; beyond it the oldest messages are
// dropped (protocols recover via decision propagation and catch-up).
const maxPending = 1 << 17

// NewReplica builds a replica. Call Start to begin proposing; pool nodes
// skip Start and wait for a JoinNotice.
func NewReplica(cfg Config) *Replica {
	if cfg.DeceitfulBound == 0 {
		cfg.DeceitfulBound = 5.0 / 9.0
	}
	if cfg.History == nil {
		cfg.History = NewMemHistory()
	}
	r := &Replica{
		cfg:       cfg,
		view:      committee.NewView(cfg.InitialCommittee),
		pool:      committee.NewPool(cfg.PoolCandidates),
		member:    slices.Contains(cfg.InitialCommittee, cfg.Self),
		instances: make(map[uint64]*instState),
		nextK:     1,
		sweptTo:   1,
		asked:     make(map[blockReq]bool),
	}
	r.log = accountability.NewLog(cfg.Signer, func(p accountability.PoF) { r.onPoF(p) })
	return r
}

// View exposes the current committee view (read-only use).
func (r *Replica) View() *committee.View { return r.view }

// Log exposes the accountability log (read-only use).
func (r *Replica) Log() *accountability.Log { return r.log }

// Epoch returns the number of completed membership changes.
func (r *Replica) Epoch() uint64 { return r.epoch }

// Committed returns the locally committed decision for k, if any (nil for
// a block restored from disk, and for one the History fails to read back).
func (r *Replica) Committed(k uint64) (*sbc.Decision, bool) {
	st, ok := r.instances[k]
	if !ok || !st.decided {
		return nil, false
	}
	return r.decisionOf(st), true
}

// decidedAt reports whether instance k decided here.
func (r *Replica) decidedAt(k uint64) bool {
	st, ok := r.instances[k]
	return ok && st.decided
}

// CommittedCount returns how many instances have decided locally.
func (r *Replica) CommittedCount() int { return r.decided }

// IsMember reports whether the replica currently sits on the committee.
func (r *Replica) IsMember() bool { return r.member }

// Final reports whether instance k reached confirmation finality.
func (r *Replica) Final(k uint64) bool {
	st, ok := r.instances[k]
	return ok && st.final
}

// Disagreed reports whether a certified conflicting decision was seen for
// instance k.
func (r *Replica) Disagreed(k uint64) bool {
	st, ok := r.instances[k]
	return ok && st.disagreement
}

// RestoredBlock seeds a recovering replica with the coordinates of one
// block recovered from its durable store (internal/store).
type RestoredBlock struct {
	K       uint64
	Attempt uint32
	Digest  types.Digest
}

// Restore marks instances decided from durable local state — the
// consensus-layer half of a crash recovery. It must run before Start.
// The store does not retain decision bodies (certificates), so restored
// instances are committed without refiring OnCommit (the application
// already recovered their content from disk) and records has no body to
// serve for them; peers that need those blocks fetch them from replicas that
// decided them live. A restored instance never runs here again, so it is
// created already retired: no decision, no protocol state, whatever the
// chain length.
func (r *Replica) Restore(blocks []RestoredBlock) {
	for _, b := range blocks {
		if r.decidedAt(b.K) {
			continue
		}
		r.instances[b.K] = &instState{k: b.K, attempt: b.Attempt, decided: true, digest: b.Digest}
		r.decided++
		if b.K >= r.nextK {
			r.nextK = b.K + 1
		}
	}
}

// RequestCatchup asks every committee peer for the decided blocks this
// replica is missing, starting at its first gap. A crash-restarted
// replica calls this after Restore: the store recovered the chain up to
// the crash point, and the certificate-verified CatchupResp path
// (onCatchupResp) covers everything decided while it was down.
func (r *Replica) RequestCatchup() {
	fromK := r.nextK
	for k := uint64(1); k < r.nextK; k++ {
		if !r.decidedAt(k) {
			fromK = k
			break
		}
	}
	r.askBlocks(r.view.Members(), fromK, math.MaxUint64)
}

// ChainDigests returns the decided digest of every committed instance —
// the recovered-chain comparison the crash-recovery scenario verifies.
func (r *Replica) ChainDigests() map[uint64]types.Digest {
	out := make(map[uint64]types.Digest, r.decided)
	for k, st := range r.instances {
		if st.decided {
			out[k] = st.digest
		}
	}
	return out
}

// Start begins the main chain: the replica proposes for instance 1.
func (r *Replica) Start() {
	if r.started || !r.member {
		return
	}
	r.started = true
	r.startInstance(r.nextK)
}

// confirmThreshold is the number of matching confirmations finality needs:
// more than (δ̂ + 1/3)·n.
func (r *Replica) confirmThreshold() int {
	n := float64(r.view.Size())
	th := int((r.cfg.DeceitfulBound+1.0/3.0)*n) + 1
	if th > r.view.Size() {
		th = r.view.Size()
	}
	return th
}

func (r *Replica) startInstance(k uint64) {
	if !r.member {
		return
	}
	if r.cfg.MaxInstances > 0 && k > r.cfg.MaxInstances {
		return
	}
	st := r.ensureInstance(k)
	if st.proposed || st.stopped {
		return
	}
	batch := Batch{Payload: []byte(fmt.Sprintf("empty-%d-%v", k, r.cfg.Self))}
	if r.cfg.BatchSource != nil {
		batch = r.cfg.BatchSource(k)
	}
	if r.cfg.WaitForWork && len(batch.Payload) == 0 && batch.ClaimedSigs == 0 && !st.inst.HasProposal() {
		// No enqueued requests here or, as far as this replica knows,
		// anywhere: Kick retries when work arrives. Once a peer's proposal
		// for k has, the replica joins with the empty batch — n−t pools need
		// not have traffic for one transaction to commit, and no slot of a
		// benign instance waits out the 0-votes.
		return
	}
	st.proposed = true
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseBatchPropose, k, 0, st.attempt, "")
	st.inst.Propose(batch.Payload, batch.ClaimedBytes, batch.ClaimedSigs)
}

// Kick retries starting the next instance after new work arrived (used
// with WaitForWork). Safe to call between simulation events.
func (r *Replica) Kick() {
	if r.started && r.member {
		r.startInstance(r.nextK)
	}
}

// ensureInstance creates (or returns) the state for logical instance k at
// the current attempt.
func (r *Replica) ensureInstance(k uint64) *instState {
	if st, ok := r.instances[k]; ok {
		return st
	}
	r.live++
	if k < r.sweptTo {
		r.unfinal++
	}
	return r.newInstance(k)
}

// newInstance installs fresh protocol state for k at the current attempt
// (the attempt tracks the membership epoch).
func (r *Replica) newInstance(k uint64) *instState {
	st := &instState{
		k:          k,
		attempt:    uint32(r.epoch),
		confirms:   make(map[types.ReplicaID]types.Digest),
		remoteSeen: make(map[types.Digest]bool),
	}
	st.inst = r.buildSBC(k, st)
	r.instances[k] = st
	return st
}

func (r *Replica) buildSBC(k uint64, st *instState) *sbc.Instance {
	adv := r.cfg.Adversary
	if k < r.cfg.AttackFromInstance {
		adv = nil
	}
	return sbc.New(sbc.Config{
		Context:      accountability.CtxMain,
		Instance:     WireInstance(k, st.attempt),
		Self:         r.cfg.Self,
		View:         r.view,
		Signer:       r.cfg.Signer,
		Log:          r.logIfAccountable(),
		Env:          r.cfg.Env,
		Accountable:  r.cfg.Accountable,
		CoordTimeout: r.cfg.CoordTimeout,
		Intern:       r.cfg.Intern,
		Tracer:       r.cfg.Tracer,
		OnProposal:   r.cfg.OnProposal,
		Adversary:    adv,
		OnSlotDecide: func(slot types.ReplicaID, value bool, digest types.Digest) {
			if r.cfg.OnSlotDecide != nil {
				r.cfg.OnSlotDecide(st.k, st.attempt, slot, value, digest)
			}
		},
		OnDecide: func(d *sbc.Decision) { r.onDecide(st, d) },
	})
}

func (r *Replica) logIfAccountable() *accountability.Log {
	if !r.cfg.Accountable {
		return nil
	}
	return r.log
}

// onDecide is phase ① completing for instance k.
func (r *Replica) onDecide(st *instState, d *sbc.Decision) {
	if st.decided || st.stopped {
		return
	}
	st.decided = true
	r.keep(st, d)
	r.decided++
	r.noteProgress(st)
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseCommit, st.k, 0, st.attempt, "")
	if r.cfg.OnCommit != nil {
		r.cfg.OnCommit(st.k, st.attempt, d)
	}

	// Phase ②: broadcast our confirmation. A deceitful replica stays
	// silent: a signed conflicting confirmation would be evidence.
	if r.cfg.Accountable && !r.cfg.Deceitful {
		stmt := accountability.Statement{
			Context:  accountability.CtxMain,
			Kind:     accountability.KindConfirm,
			Instance: WireInstance(st.k, st.attempt),
			Value:    st.digest,
		}
		signed, err := r.log.Sign(stmt)
		if err == nil {
			msg := &Confirm{K: st.k, Attempt: st.attempt, Digest: st.digest, Stmt: signed}
			for _, m := range r.view.Members() {
				if m != r.cfg.Self {
					r.cfg.Env.Send(m, msg)
				}
			}
		}
		st.confirms[r.cfg.Self] = st.digest
		r.checkConfirmation(st)
		// Compare buffered confirmations received before we decided, and
		// pull in replica order: each pull is a send, which the simulator
		// draws a latency for, so map order would leak into the run.
		var conflicting []types.ReplicaID
		for from, dig := range st.confirms {
			if dig != st.digest {
				conflicting = append(conflicting, from)
			}
		}
		slices.Sort(conflicting)
		r.askBlocks(conflicting, st.k, st.k)
	}

	// Pipeline: start the next instance (Γk+1 runs concurrently with the
	// confirmation of Γk).
	if st.k >= r.nextK {
		r.nextK = st.k + 1
		r.startInstance(r.nextK)
	}
	r.flushPoFs()
}

// checkConfirmation evaluates the finality threshold.
func (r *Replica) checkConfirmation(st *instState) {
	if st.final || !st.decided {
		return
	}
	matching := 0
	for _, dig := range st.confirms {
		if dig == st.digest {
			matching++
		}
	}
	if matching >= r.confirmThreshold() {
		st.final = true
		r.noteProgress(st)
		if r.cfg.OnFinal != nil {
			r.cfg.OnFinal(st.k, st.digest)
		}
	}
}

// onConfirm handles a confirmation message (phase ②).
func (r *Replica) onConfirm(from types.ReplicaID, m *Confirm) {
	if !r.cfg.Accountable {
		return
	}
	wi := WireInstance(m.K, m.Attempt)
	s := m.Stmt
	if s.Signer != from || s.Stmt.Kind != accountability.KindConfirm ||
		s.Stmt.Context != accountability.CtxMain || s.Stmt.Instance != wi ||
		s.Stmt.Value != m.Digest {
		return
	}
	st, known := r.instances[m.K]
	if known && st.retired() && m.Digest == st.digest {
		return // agrees with a decision that needs no more confirmations
	}
	if !r.log.RecordVerify(s) { // conflicting confirms by one replica → PoF
		return
	}
	if !known {
		st = r.ensureInstance(m.K)
	}
	if st.retired() {
		// A different digest for a retired instance: pull that branch's
		// block; absorb holds it against the retained decision.
		r.requestBlock(st, from)
		r.flushPoFs()
		return
	}
	if prev, seen := st.confirms[from]; seen && prev == m.Digest {
		return
	}
	st.confirms[from] = m.Digest
	switch {
	case !st.decided:
		// A confirmation announces every binary decision of the instance
		// at once. The announcements themselves normally came first and
		// were acted on; to a replica that was down or cut off when they
		// were sent, this is the only word of them it gets.
		if st.attempt == m.Attempt && !st.stopped {
			st.inst.PullDecisions(from)
		}
	case m.Digest != st.digest:
		r.requestBlock(st, from)
	default:
		r.checkConfirmation(st)
	}
	r.flushPoFs()
}

// requestBlock pulls the conflicting branch's block (evidence + content).
func (r *Replica) requestBlock(st *instState, from types.ReplicaID) {
	r.askBlocks([]types.ReplicaID{from}, st.k, st.k)
}

// askBlocks is the one way to ask for blocks that travel whole: a
// CatchupReq for from..to to each of peers but this replica, recorded so
// that the answer is accepted. A request still in flight is not repeated.
func (r *Replica) askBlocks(peers []types.ReplicaID, from, to uint64) {
	for _, p := range peers {
		req := blockReq{peer: p, from: from, to: to}
		if p == r.cfg.Self || r.asked[req] {
			continue
		}
		r.asked[req] = true
		r.cfg.Env.Send(p, &CatchupReq{FromK: from, ToK: to})
	}
}

// records is the one way out for a block that travels whole — in a
// CatchupResp or a JoinNotice: the decided blocks from..to,
// ascending (every decided k is below nextK), each under the attempt it was
// decided under, which is what the receiver's audit holds it against. A
// block restored from disk has no body to serve and is skipped, and so is
// one the History fails to read back.
func (r *Replica) records(from, to uint64) []BlockRecord {
	var blocks []BlockRecord
	for k := from; k <= to && k < r.nextK; k++ {
		if st, ok := r.instances[k]; ok && st.decided {
			if d := r.decisionOf(st); d != nil {
				blocks = append(blocks, BlockRecord{K: k, Attempt: st.attempt, Decision: d})
			}
		}
	}
	return blocks
}

// onCatchupReq serves a block request of either shape. It answers even
// with no block to send: the answer is what closes the asker's request. A
// coalition member serves none: every block it signed is evidence.
func (r *Replica) onCatchupReq(from types.ReplicaID, m *CatchupReq) {
	if r.cfg.Deceitful {
		return
	}
	r.cfg.Env.Send(from, &CatchupResp{FromK: m.FromK, ToK: m.ToK, Blocks: r.records(m.FromK, m.ToK)})
}

// onCatchupResp takes in the answer to a request this replica sent to
// from, and nothing else: an answer nobody asked for, one for another
// range and a second copy are dropped before any audit, and so is a block
// outside the range asked. Each block is received alone, so one that
// fails its audit is skipped by itself.
func (r *Replica) onCatchupResp(from types.ReplicaID, m *CatchupResp) {
	req := blockReq{peer: from, from: m.FromK, to: m.ToK}
	if !r.asked[req] {
		return
	}
	delete(r.asked, req)
	for _, b := range m.Blocks {
		if b.K >= m.FromK && b.K <= m.ToK {
			r.receive(b)
		}
	}
}

// receive audits a block that arrived alone and absorbs it if it stands.
// One this replica already holds — as its own decision, or as a conflicting
// one it has seen — is dropped before the audit.
func (r *Replica) receive(b BlockRecord) {
	if b.Decision == nil {
		return
	}
	if st, ok := r.instances[b.K]; ok {
		dig := b.Decision.Digest()
		if (st.decided && dig == st.digest) || st.remoteSeen[dig] {
			return
		}
	}
	if verified, err := auditBlock(r.log, b, r.view.Size()); err == nil {
		r.absorb(b, verified)
	}
}

// absorb is the one way in for a block that travels whole: b passed
// auditBlock, which returned verified, and the replica does the one of
// three things the paper allows with a certified decision. Not decided
// here: adopt it, under the attempt it was decided under (no Confirm is
// sent for it: ROADMAP item 1(b)). Decided with the same digest: nothing.
// Decided with another digest: the two decisions are the evidence of a
// fork — both go into the log, whose cross-check convicts the signers the
// quorums share, and the branch goes to the reconciliation callback
// (phase ⑤), once.
func (r *Replica) absorb(b BlockRecord, verified accountability.Verified) {
	st := r.ensureInstance(b.K)
	dig := b.Decision.Digest()
	switch {
	case !st.decided:
		st.attempt = b.Attempt
		st.decided = true
		st.stopped = true // supersede any parallel restarted run
		r.keep(st, b.Decision)
		r.decided++
		r.noteProgress(st)
		r.log.Record(verified)
		if r.cfg.OnCommit != nil {
			r.cfg.OnCommit(b.K, b.Attempt, b.Decision)
		}
		if b.K >= r.nextK {
			r.nextK = b.K + 1
			r.Kick() // not a pool node reading its join notice: it starts after
		}
	case dig == st.digest || st.remoteSeen[dig]: // already on record
	default:
		local := r.decisionOf(st)
		if st.retired() {
			// Retirement dropped this instance's statements from the log. Put
			// the local decision's certificates back before the remote ones, so
			// cross-checking the two quorums convicts the signers they share.
			// They go through the same audit, signatures checked again: a late
			// conflict on a retired instance is the rare path.
			if local != nil {
				own := BlockRecord{K: b.K, Attempt: st.attempt, Decision: local}
				if v, err := auditBlock(r.log, own, r.view.Size()); err == nil {
					r.log.Record(v)
				}
			}
			if st.remoteSeen == nil {
				st.remoteSeen = make(map[types.Digest]bool)
			}
		}
		st.remoteSeen[dig] = true
		st.disagreement = true
		r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseDisagreement, b.K, 0, st.attempt, "")
		r.log.Record(verified)
		if r.cfg.OnDisagreement != nil {
			r.cfg.OnDisagreement(b.K, local, b.Decision)
		}
		r.flushPoFs()
	}
}

// onPoF fires from the accountability log exactly once per culprit.
func (r *Replica) onPoF(p accountability.PoF) {
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhasePoF, 0, uint32(p.Culprit), 0, "")
	if r.FirstPoFAt == 0 {
		r.FirstPoFAt = r.cfg.Env.Now()
	}
	if !r.thresholdSeen && r.log.CulpritCount() >= r.view.FaultThreshold() {
		r.thresholdSeen = true
		r.ThresholdAt = r.cfg.Env.Now()
	}
	if r.cfg.OnPoF != nil {
		r.cfg.OnPoF(p)
	}
	// Defer gossip + membership-change triggering to flushPoFs so a batch
	// of PoFs discovered in one event is handled once.
	r.outPoFs = append(r.outPoFs, p)
}

// flushPoFs gossips newly found PoFs and starts the membership change when
// the fd threshold is met (Alg. 1 lines 13-22).
func (r *Replica) flushPoFs() {
	if len(r.outPoFs) > 0 {
		pofs := r.outPoFs
		r.outPoFs = nil
		if r.cfg.Recover && !r.cfg.Deceitful {
			if r.change != nil && !r.change.Done() {
				r.change.OnPoFs(pofs)
			} else {
				// Epoch 0 belongs to no membership change: this is gossip.
				msg := &membership.PoFBroadcast{PoFs: pofs}
				for _, m := range r.view.Members() {
					if m != r.cfg.Self {
						r.cfg.Env.Send(m, msg)
					}
				}
			}
		}
	}
	r.maybeStartChange()
}

// maybeStartChange begins the membership change once PoFs cover at least
// fd = ⌈n/3⌉ distinct replicas.
func (r *Replica) maybeStartChange() {
	if !r.cfg.Recover || !r.member || r.cfg.Deceitful {
		return
	}
	if r.change != nil && !r.change.Done() {
		return
	}
	if r.log.CulpritCount() < r.view.FaultThreshold() {
		return
	}
	// Stop pending (undecided) instances: they restart with the new
	// committee (Alg. 1 lines 19, 49).
	for _, st := range r.instances {
		if !st.decided {
			st.stopped = true
		}
	}
	r.change = membership.NewChange(membership.Config{
		Epoch:        r.epoch + 1,
		Self:         r.cfg.Self,
		Signer:       r.cfg.Signer,
		Log:          r.log,
		Env:          r.cfg.Env,
		Committee:    r.view.MembersCopy(),
		Pool:         r.pool,
		TargetSize:   r.view.Size(),
		CoordTimeout: r.cfg.CoordTimeout,
		OnResult:     func(res *membership.Result) { r.onChangeResult(res) },
	})
	// Exclusion traffic from peers that started before us is waiting.
	r.replayPending()
}

// onChangeResult applies a completed membership change: update C, punish,
// catch new replicas up, restart stopped instances (Alg. 1 lines 37-49).
func (r *Replica) onChangeResult(res *membership.Result) {
	// Slot/Round encode how many replicas left and joined the committee.
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseExclusion, res.Epoch, uint32(len(res.Excluded)), uint32(len(res.Included)), "")
	r.epoch = res.Epoch
	r.view.Exclude(res.Excluded)
	r.view.Include(res.Included)
	r.pool.MarkTaken(res.Included)
	r.log.Forget(res.Excluded)
	maps.DeleteFunc(r.asked, func(req blockReq, _ bool) bool { return slices.Contains(res.Excluded, req.peer) })
	r.thresholdSeen = false
	r.member = r.view.Contains(r.cfg.Self)
	if r.cfg.OnMembershipChange != nil {
		r.cfg.OnMembershipChange(res)
	}
	// Restart stopped instances under the new committee (line 49). The
	// attempt number equals the membership epoch everywhere, so honest
	// replicas that restart independently agree on the restarted run's
	// identity. Restarts run in ascending k: each one sends messages
	// (drawing from the simulator's latency RNG) and records trace
	// events, so map-iteration order would leak into the run.
	var restartKs []uint64
	for k, st := range r.instances {
		if st.stopped && !st.decided {
			restartKs = append(restartKs, k)
		}
	}
	slices.Sort(restartKs)
	for _, k := range restartKs {
		r.instances[k].inst.Release()
		r.newInstance(k)
		r.startInstance(k)
	}
	// Some honest replicas may have decided the stopped instances before
	// the change reached them; pull their certified blocks so we adopt
	// instead of re-deciding a parallel run.
	minUndecided := r.nextK
	for k, st := range r.instances {
		if !st.decided && k < minUndecided {
			minUndecided = k
		}
	}
	r.askBlocks(r.view.Members(), minUndecided, math.MaxUint64)
	// Send catch-up to every included replica (lines 45-47).
	if r.member && len(res.Included) > 0 {
		notice := r.buildJoinNotice()
		for _, id := range res.Included {
			if id != r.cfg.Self {
				r.cfg.Env.Send(id, notice)
			}
		}
	}
	// Buffered traffic for restarted attempts (and the next epoch's
	// change) may now be routable.
	r.replayPending()
	// A second wave of PoFs may already justify another change.
	r.maybeStartChange()
}

func (r *Replica) buildJoinNotice() *JoinNotice {
	pending := make(map[uint64]uint32)
	for k, st := range r.instances {
		if !st.decided && !st.stopped {
			pending[k] = st.attempt
		}
	}
	return &JoinNotice{
		Epoch:           r.epoch,
		Committee:       r.view.MembersCopy(),
		NextK:           r.nextK,
		Blocks:          r.records(1, r.nextK),
		PendingAttempts: pending,
	}
}

// onJoinNotice runs on a pool node: verify the shipped chain, adopt the
// committee, start participating.
func (r *Replica) onJoinNotice(_ types.ReplicaID, m *JoinNotice) {
	if r.member || m.Epoch == 0 {
		return
	}
	if !slices.Contains(m.Committee, r.cfg.Self) {
		return
	}
	// Audit the shipped chain; the cost (certificates over n signers per
	// block) is the catch-up cost of Fig. 5 (right).
	audited := make([]accountability.Verified, len(m.Blocks))
	for i, b := range m.Blocks {
		var err error
		if audited[i], err = auditBlock(r.log, b, len(m.Committee)); err != nil {
			return
		}
	}
	r.member = true
	r.epoch = m.Epoch
	r.view = committee.NewView(m.Committee)
	// Frames of the restarted attempts can overtake the notice, and made
	// this node open their instances while it was still in the pool, under
	// the epoch and the committee it knew then. They run at the epoch it
	// joins, like every other in-flight instance.
	for k, st := range r.instances {
		if !st.decided && st.attempt < uint32(r.epoch) {
			st.inst.Release()
			r.newInstance(k)
		}
	}
	for i, b := range m.Blocks {
		r.absorb(b, audited[i])
	}
	if m.NextK > r.nextK {
		r.nextK = m.NextK
	}
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseInclusion, m.Epoch, uint32(r.cfg.Self), 0, "")
	if r.cfg.OnJoined != nil {
		r.cfg.OnJoined(m.Epoch, m.Committee)
	}
	r.started = true
	r.startInstance(r.nextK)
	r.replayPending()
}

// onPoFs ingests PoFs a peer sent outside a membership change this replica
// runs (Alg. 1 lines 13-16 accept PoF lists at any time).
func (r *Replica) onPoFs(pofs []accountability.PoF) {
	if !r.cfg.Accountable {
		return
	}
	for _, p := range pofs {
		if p.Verify(r.cfg.Signer) {
			r.log.AddPoF(p)
		}
	}
	r.flushPoFs()
}

// OnMessage implements simnet.Handler.
func (r *Replica) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *Confirm:
		r.onConfirm(from, m)
	case *JoinNotice:
		r.onJoinNotice(from, m)
	case *CatchupReq:
		r.onCatchupReq(from, m)
	case *CatchupResp:
		r.onCatchupResp(from, m)
	case *membership.PoFBroadcast:
		if r.change != nil && !r.change.Done() && r.change.OnMessage(from, msg) {
			break
		}
		// Gossip (epoch 0), or no change of that epoch runs here.
		r.onPoFs(m.PoFs)
	default:
		r.routeConsensus(from, msg, true)
	}
	r.flushPoFs()
	r.retireFinalized()
}

// routeConsensus dispatches consensus traffic: membership change contexts
// first, then the main chain by wire instance. Messages that cannot be
// routed yet (change not started here, future attempt, future epoch) are
// buffered when mayBuffer is set and replayed on state transitions.
func (r *Replica) routeConsensus(from types.ReplicaID, msg simnet.Message, mayBuffer bool) bool {
	ctx, wi, ok := sbc.ContextInstanceOf(msg)
	if !ok {
		return true // not consensus traffic; nothing to do
	}
	switch ctx {
	case accountability.CtxExclusion, accountability.CtxInclusion:
		epoch, _ := membership.SplitChangeInstance(wi)
		if r.change != nil && r.change.Epoch() == epoch {
			return r.change.OnMessage(from, msg)
		}
		if epoch > r.epoch {
			// A peer is running a change we have not started yet.
			if mayBuffer {
				r.buffer(from, msg)
			}
			return false
		}
		return false // stale epoch
	case accountability.CtxMain:
		k, attempt := SplitInstance(wi)
		st := r.ensureInstance(k)
		switch {
		case st.retired():
			r.onLateFrame(from, st, attempt, msg)
			return true
		case st.attempt == attempt && !st.stopped:
			st.inst.OnMessage(from, msg)
			if _, init := msg.(*rbc.Init); init && k == r.nextK {
				r.Kick() // a replica waiting for work joins the instance a peer started
			}
			return true
		case attempt > st.attempt || st.stopped:
			// A peer already restarted this instance; we will too after
			// our membership change completes.
			if mayBuffer {
				r.buffer(from, msg)
			}
			return false
		default:
			return false // stale attempt
		}
	default:
		return false
	}
}

func (r *Replica) buffer(from types.ReplicaID, msg simnet.Message) {
	if len(r.pending) >= maxPending {
		r.pending = r.pending[1:]
	}
	r.pending = append(r.pending, bufferedMsg{from: from, msg: msg})
}

// replayPending re-runs buffered messages after a state transition
// (membership change started or finished, instance restarted, joined).
func (r *Replica) replayPending() {
	if len(r.pending) == 0 {
		return
	}
	buffered := r.pending
	r.pending = nil
	for _, p := range buffered {
		if !r.routeConsensus(p.from, p.msg, false) {
			// Still unroutable: keep it (re-buffer preserving order).
			r.buffer(p.from, p.msg)
		}
	}
}

// OnTimer implements simnet.Handler.
func (r *Replica) OnTimer(payload any) {
	tp, ok := payload.(bincon.TimerPayload)
	if !ok {
		return
	}
	if r.change != nil && r.change.OnTimer(tp) {
		return
	}
	if tp.Context != accountability.CtxMain {
		return
	}
	k, attempt := SplitInstance(tp.Instance)
	if st, ok := r.instances[k]; ok && st.attempt == attempt && !st.stopped && !st.retired() {
		st.inst.OnTimer(tp)
	}
	r.flushPoFs()
	r.retireFinalized()
}
