// Package sbc implements the Set Byzantine Consensus of paper Def. 2 via
// the classic reduction (§2.3): an all-to-all reliable broadcast of n
// proposals, one binary consensus per proposer slot, and a bitmask —
// applying the decided bitmask to the proposal array yields the decided
// superblock. With Accountable set, the underlying protocols sign their
// votes and the decision carries certificates (Polygraph); with it unset
// the stack is the non-accountable Red Belly baseline.
//
// The reduction is Red Belly's and DBFT's: a replica proposes 1 to a slot's
// binary consensus when the reliable broadcast delivers the slot's
// proposal, and proposes 0 to the slots it has not delivered only once n−t
// binary consensuses have decided 1. A crashed proposer therefore cannot
// block the instance — n−t correct proposals are delivered everywhere and
// decide 1 — and a proposal that is merely late has the length of those
// n−t agreements to arrive, so on a cluster where every replica proposes,
// every proposal commits. A proposal slower than that still loses its slot;
// its owner proposes the transactions again in the next instance, which is
// the exception, not the steady state.
package sbc

import (
	"encoding/binary"
	"sort"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// ProposalInfo is one delivered proposal inside a decision.
type ProposalInfo struct {
	Broadcaster  types.ReplicaID
	Payload      []byte
	Digest       types.Digest
	ClaimedBytes int
	ClaimedSigs  int
}

// Decision is the output of one SBC instance: the bitmask over proposer
// slots and the proposals selected by it, plus the accountability
// artifacts needed by the confirmation phase.
type Decision struct {
	Instance types.Instance
	// Bits maps each committee member (at instance start) to its decided
	// bit.
	Bits map[types.ReplicaID]bool
	// Proposals holds the payloads of slots decided 1, keyed by
	// broadcaster.
	Proposals map[types.ReplicaID]ProposalInfo
	// BinCerts holds the binary decision certificates per slot
	// (accountable mode).
	BinCerts map[types.ReplicaID]*accountability.Certificate
	// ReadyCerts holds reliable-broadcast delivery certificates per slot
	// decided 1 (accountable mode, when available locally).
	ReadyCerts map[types.ReplicaID]*accountability.Certificate
	// InitStmts holds the broadcasters' signed proposal statements.
	InitStmts map[types.ReplicaID]*accountability.Signed
}

// Digest summarizes the decision: hash over (instance, sorted slots, bit,
// proposal digest). Two honest replicas disagree on the instance iff
// their decision digests differ.
func (d *Decision) Digest() types.Digest {
	slots := make([]types.ReplicaID, 0, len(d.Bits))
	for id := range d.Bits {
		slots = append(slots, id)
	}
	types.SortReplicas(slots)
	buf := make([]byte, 0, 8+len(slots)*(4+1+32))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(d.Instance))
	buf = append(buf, tmp[:]...)
	for _, id := range slots {
		binary.BigEndian.PutUint32(tmp[:4], uint32(id))
		buf = append(buf, tmp[:4]...)
		if d.Bits[id] {
			buf = append(buf, 1)
			pd := d.Proposals[id].Digest
			buf = append(buf, pd[:]...)
		} else {
			buf = append(buf, 0)
		}
	}
	return types.Hash(buf)
}

// AppendBinary appends the decision's layout, which a nil decision has
// too: flag 0 for nil, else flag 1, the instance u64 and five maps keyed
// by slot (wire.AppendMap) — bits to a flag; proposals to broadcaster u32,
// payload (wire.AppendBytes), digest, claimed bytes and sigs (varints);
// binary and READY certificates and INIT statements to an optional one.
// It cannot fail.
func (d *Decision) AppendBinary(b []byte) ([]byte, error) {
	if d == nil {
		return append(b, 0), nil
	}
	b = binary.BigEndian.AppendUint64(append(b, 1), uint64(d.Instance))
	b = wire.AppendMap(b, d.Bits, wire.AppendReplicaID, wire.AppendFlag)
	b = wire.AppendMap(b, d.Proposals, wire.AppendReplicaID, func(b []byte, p ProposalInfo) []byte {
		b = wire.AppendBytes(wire.AppendReplicaID(b, p.Broadcaster), p.Payload)
		b = append(b, p.Digest[:]...)
		return wire.AppendInt(wire.AppendInt(b, p.ClaimedBytes), p.ClaimedSigs)
	})
	b = wire.AppendMap(b, d.BinCerts, wire.AppendReplicaID, accountability.AppendOptCertificate)
	b = wire.AppendMap(b, d.ReadyCerts, wire.AppendReplicaID, accountability.AppendOptCertificate)
	return wire.AppendMap(b, d.InitStmts, wire.AppendReplicaID, accountability.AppendOptSigned), nil
}

// ReadDecision reads Decision.AppendBinary's layout. Payloads alias r's
// input.
func ReadDecision(r *wire.Reader) *Decision {
	if !r.Flag() {
		return nil
	}
	d := &Decision{Instance: types.Instance(r.U64())}
	d.Bits = wire.ReadMap(r, 4+1, r.ReplicaID, r.Flag)
	d.Proposals = wire.ReadMap(r, 4+4+1+32+2, r.ReplicaID, func() ProposalInfo {
		return ProposalInfo{Broadcaster: r.ReplicaID(), Payload: r.Bytes(), Digest: r.Digest(),
			ClaimedBytes: r.Int(), ClaimedSigs: r.Int()}
	})
	cert := func() *accountability.Certificate { return accountability.ReadOptCertificate(r) }
	d.BinCerts = wire.ReadMap(r, 4+1, r.ReplicaID, cert)
	d.ReadyCerts = wire.ReadMap(r, 4+1, r.ReplicaID, cert)
	d.InitStmts = wire.ReadMap(r, 4+1, r.ReplicaID, func() *accountability.Signed { return accountability.ReadOptSigned(r) })
	if r.Err() != nil {
		return nil
	}
	return d
}

// OrderedProposals returns the selected proposals in ascending broadcaster
// order — the deterministic superblock order.
func (d *Decision) OrderedProposals() []ProposalInfo {
	out := make([]ProposalInfo, 0, len(d.Proposals))
	for _, p := range d.Proposals {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Broadcaster < out[j].Broadcaster })
	return out
}

// TotalClaimedTx sums the modeled transaction counts of selected
// proposals (throughput accounting).
func (d *Decision) TotalClaimedTx() int {
	sum := 0
	for _, p := range d.Proposals {
		sum += p.ClaimedSigs
	}
	return sum
}

// PayloadBytes is what holding d costs in proposal payloads. Equal
// payloads are one array (rbc.Intern) and count once.
func (d *Decision) PayloadBytes() int {
	total := 0
	counted := make(map[types.Digest]bool, len(d.Proposals))
	for _, p := range d.Proposals {
		if !counted[p.Digest] {
			counted[p.Digest] = true
			total += len(p.Payload)
		}
	}
	return total
}

// AnswerPull answers a late pull — an rbc.PayloadReq or a ProposalReq for
// a slot decided 1, a bincon.DecideReq for any slot — from the decision
// alone, with the same response the live instance gave (its rbc state,
// delivery map and binary decisions are what the decision was assembled
// from). It calls decision only for a pull, and returns nil for any other
// message, when decision returns nil, and for slots or digests the
// decision does not carry. The replica uses it once it has retired the
// instance's protocol state and keeps the decision out of memory.
func AnswerPull(msg simnet.Message, decision func() *Decision) simnet.Message {
	switch m := msg.(type) {
	case *rbc.PayloadReq:
		d := decision()
		if d == nil {
			return nil
		}
		p, ok := d.Proposals[m.Broadcaster]
		if !ok || p.Digest != m.Digest {
			return nil
		}
		return &rbc.PayloadResp{
			Context:      m.Context,
			Instance:     m.Instance,
			Broadcaster:  m.Broadcaster,
			Payload:      p.Payload,
			ClaimedBytes: p.ClaimedBytes,
			ClaimedSigs:  p.ClaimedSigs,
			InitStmt:     d.InitStmts[m.Broadcaster],
		}
	case *bincon.DecideReq:
		d := decision()
		if d == nil {
			return nil
		}
		slot := types.ReplicaID(m.Slot)
		cert := d.BinCerts[slot]
		if cert == nil {
			return nil
		}
		return &bincon.Decide{
			Context:  m.Context,
			Instance: m.Instance,
			Slot:     m.Slot,
			Value:    d.Bits[slot],
			Cert:     cert,
		}
	case *ProposalReq:
		d := decision()
		if d == nil {
			return nil
		}
		p, ok := d.Proposals[m.Slot]
		if !ok {
			return nil
		}
		return &ProposalResp{
			Context:      m.Context,
			Instance:     m.Instance,
			Slot:         m.Slot,
			Payload:      p.Payload,
			ClaimedBytes: p.ClaimedBytes,
			ClaimedSigs:  p.ClaimedSigs,
			Cert:         d.ReadyCerts[m.Slot],
			InitStmt:     d.InitStmts[m.Slot],
		}
	}
	return nil
}

// ProposalReq asks a peer for a full delivered proposal after the binary
// consensus decided 1 for a slot we have no payload for.
type ProposalReq struct {
	Context  uint8
	Instance types.Instance
	Slot     types.ReplicaID
}

// SimBytes implements simnet.Meter.
func (m *ProposalReq) SimBytes() int { return 48 }

// SimSigOps implements simnet.Meter.
func (m *ProposalReq) SimSigOps() int { return 0 }

// AppendBinary appends the pull's frame body: context u8, instance u64,
// slot u32.
func (m *ProposalReq) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(append(b, m.Context), uint64(m.Instance))
	return wire.AppendReplicaID(b, m.Slot), nil
}

// ReadProposalReq reads ProposalReq.AppendBinary's layout.
func ReadProposalReq(r *wire.Reader) *ProposalReq {
	return &ProposalReq{Context: r.U8(), Instance: types.Instance(r.U64()), Slot: r.ReplicaID()}
}

// ProposalResp answers a ProposalReq with the delivery evidence.
type ProposalResp struct {
	Context      uint8
	Instance     types.Instance
	Slot         types.ReplicaID
	Payload      []byte
	ClaimedBytes int
	ClaimedSigs  int
	Cert         *accountability.Certificate
	InitStmt     *accountability.Signed
}

// SimBytes implements simnet.Meter.
func (m *ProposalResp) SimBytes() int {
	n := len(m.Payload) + 80
	if m.ClaimedBytes > 0 {
		n = m.ClaimedBytes + 80
	}
	return n + m.Cert.ModelBytes()
}

// SimSigOps implements simnet.Meter.
func (m *ProposalResp) SimSigOps() int {
	if m.Cert == nil {
		return 0
	}
	return m.Cert.SigOps() + 1
}

// AppendBinary appends the pull answer's frame body: context u8, instance
// u64, slot u32, payload (wire.AppendBytes), claimed bytes and sigs
// (varints), the READY certificate and the INIT statement if any.
func (m *ProposalResp) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(append(b, m.Context), uint64(m.Instance))
	b = wire.AppendBytes(wire.AppendReplicaID(b, m.Slot), m.Payload)
	b = wire.AppendInt(wire.AppendInt(b, m.ClaimedBytes), m.ClaimedSigs)
	return accountability.AppendOptSigned(accountability.AppendOptCertificate(b, m.Cert), m.InitStmt), nil
}

// ReadProposalResp reads ProposalResp.AppendBinary's layout.
func ReadProposalResp(r *wire.Reader) *ProposalResp {
	return &ProposalResp{Context: r.U8(), Instance: types.Instance(r.U64()), Slot: r.ReplicaID(),
		Payload: r.Bytes(), ClaimedBytes: r.Int(), ClaimedSigs: r.Int(),
		Cert: accountability.ReadOptCertificate(r), InitStmt: accountability.ReadOptSigned(r)}
}

// Adversary wires the coalition attacks into the instance's
// sub-protocols; nil fields are honest.
type Adversary struct {
	// RBC is the reliable-broadcast equivocator for this replica's own
	// proposal slot (the reliable broadcast attack).
	RBC *rbc.Equivocator
	// RBCFor returns the equivocator for another broadcaster's slot
	// (deceitful echoers backing each partition's variant); nil = honest.
	RBCFor func(slot types.ReplicaID) *rbc.Equivocator
	// Bin returns a binary-consensus equivocator for a slot; nil = honest
	// in that slot.
	Bin func(slot types.ReplicaID) *bincon.Equivocator
}

// Config parameterizes one SBC instance at one replica.
type Config struct {
	Context     uint8
	Instance    types.Instance
	Self        types.ReplicaID
	View        *committee.View
	Signer      *crypto.Signer
	Log         *accountability.Log
	Env         simnet.Env
	Accountable bool
	// Validate, if set, rejects invalid proposal payloads before they can
	// be echoed (SBC-Validity).
	Validate func(broadcaster types.ReplicaID, payload []byte) bool
	// Intern, when set, canonicalizes reliable-broadcast payload bytes by
	// digest across the deployment (rbc.Config.Intern).
	Intern *rbc.Intern
	// OnProposal observes every proposal payload the moment the reliable
	// broadcast delivers it — while the binary consensus is still
	// deciding. The application uses it to pre-validate the batch
	// speculatively (decode + transaction signature checks off the event
	// loop), so a decided batch commits without re-verification.
	OnProposal func(payload []byte)
	// CoordTimeout is passed through to the binary consensuses.
	CoordTimeout func(round types.Round) time.Duration
	OnDecide     func(*Decision)
	// OnSlotDecide observes every per-slot binary decision the moment it
	// becomes final — the granularity the paper's Figure 4 counts
	// ("disagreeing proposals"). digest is the locally delivered proposal
	// digest for 1-decisions (zero if the payload has not arrived yet).
	OnSlotDecide func(slot types.ReplicaID, value bool, digest types.Digest)
	Adversary    *Adversary
	// Tracer, when non-nil, records proposal deliveries and the instance
	// decision with virtual timestamps, and is threaded into the
	// sub-protocols. Nil disables tracing at zero cost.
	Tracer *obs.NodeTracer
	// Slots overrides the proposer slot set (default: View members at
	// creation). The exclusion consensus sets it to the full committee C
	// so every honest replica runs the same slot set even though their
	// working views C′ may transiently differ (Alg. 1 lines 20-27).
	Slots []types.ReplicaID
}

// Instance is the SBC state machine at one replica.
type Instance struct {
	cfg       Config
	members   []types.ReplicaID // committee snapshot at start
	rbcs      map[types.ReplicaID]*rbc.Instance
	bins      map[types.ReplicaID]*bincon.Instance
	delivered map[types.ReplicaID]rbc.Delivery
	decidedB  map[types.ReplicaID]bincon.Decision
	proposed  bool
	ones      int  // slots decided 1
	zerosSent bool // the 0-votes of maybeVoteZeros went out
	done      bool
	decision  *Decision
	reqSent   map[types.ReplicaID]bool
}

// New creates an SBC instance. The committee membership is snapshotted at
// creation: the proposer slots of Γk are fixed even if the view later
// changes.
func New(cfg Config) *Instance {
	slots := cfg.Slots
	if slots == nil {
		slots = cfg.View.MembersCopy()
	} else {
		slots = append([]types.ReplicaID(nil), slots...)
		types.SortReplicas(slots)
	}
	s := &Instance{
		cfg:       cfg,
		members:   slots,
		rbcs:      make(map[types.ReplicaID]*rbc.Instance),
		bins:      make(map[types.ReplicaID]*bincon.Instance),
		delivered: make(map[types.ReplicaID]rbc.Delivery),
		decidedB:  make(map[types.ReplicaID]bincon.Decision),
		reqSent:   make(map[types.ReplicaID]bool),
	}
	return s
}

// Members returns the proposer slots of this instance.
func (s *Instance) Members() []types.ReplicaID { return s.members }

// Done reports completion.
func (s *Instance) Done() bool { return s.done }

// Decision returns the decision once Done.
func (s *Instance) Decision() *Decision { return s.decision }

func (s *Instance) rbcFor(slot types.ReplicaID) *rbc.Instance {
	r, ok := s.rbcs[slot]
	if !ok {
		var eq *rbc.Equivocator
		if s.cfg.Adversary != nil {
			if slot == s.cfg.Self {
				eq = s.cfg.Adversary.RBC
			} else if s.cfg.Adversary.RBCFor != nil {
				eq = s.cfg.Adversary.RBCFor(slot)
			}
		}
		r = rbc.New(rbc.Config{
			Context:     s.cfg.Context,
			Instance:    s.cfg.Instance,
			Broadcaster: slot,
			Self:        s.cfg.Self,
			View:        s.cfg.View,
			Signer:      s.cfg.Signer,
			Log:         s.cfg.Log,
			Env:         s.cfg.Env,
			Accountable: s.cfg.Accountable,
			Equivocator: eq,
			Intern:      s.cfg.Intern,
			Tracer:      s.cfg.Tracer,
			OnDeliver:   func(d rbc.Delivery) { s.onDeliver(d) },
		})
		s.rbcs[slot] = r
	}
	return r
}

func (s *Instance) binFor(slot types.ReplicaID) *bincon.Instance {
	b, ok := s.bins[slot]
	if !ok {
		var eq *bincon.Equivocator
		if s.cfg.Adversary != nil && s.cfg.Adversary.Bin != nil {
			eq = s.cfg.Adversary.Bin(slot)
		}
		b = bincon.New(bincon.Config{
			Context:      s.cfg.Context,
			Instance:     s.cfg.Instance,
			Slot:         uint32(slot),
			Self:         s.cfg.Self,
			View:         s.cfg.View,
			Signer:       s.cfg.Signer,
			Log:          s.cfg.Log,
			Env:          s.cfg.Env,
			Accountable:  s.cfg.Accountable,
			Equivocator:  eq,
			CoordTimeout: s.cfg.CoordTimeout,
			Tracer:       s.cfg.Tracer,
			OnDecide:     func(d bincon.Decision) { s.onBinDecide(d) },
		})
		s.bins[slot] = b
	}
	return b
}

// HasProposal reports whether any replica's proposal for this instance has
// reached this one: somebody has work, so the instance is running.
func (s *Instance) HasProposal() bool {
	for _, r := range s.rbcs {
		if r.HasPayload() {
			return true
		}
	}
	return false
}

// Propose starts the instance with this replica's proposal payload.
// claimedBytes/claimedSigs model large batches for the cost model.
func (s *Instance) Propose(payload []byte, claimedBytes, claimedSigs int) {
	if s.proposed || s.done {
		return
	}
	s.proposed = true
	s.rbcFor(s.cfg.Self).Broadcast(payload, claimedBytes, claimedSigs)
}

func (s *Instance) onDeliver(d rbc.Delivery) {
	if _, dup := s.delivered[d.Broadcaster]; dup {
		return
	}
	if s.cfg.Validate != nil && !s.cfg.Validate(d.Broadcaster, d.Payload) {
		return
	}
	if s.cfg.OnProposal != nil {
		s.cfg.OnProposal(d.Payload)
	}
	s.cfg.Tracer.Record(s.cfg.Env.Now(), obs.PhaseRBCDeliver, uint64(s.cfg.Instance), uint32(d.Broadcaster), 0, "")
	s.delivered[d.Broadcaster] = d
	// A delivered proposal votes 1 for its slot.
	s.binFor(d.Broadcaster).Propose(true)
	s.maybeComplete()
}

func (s *Instance) onBinDecide(d bincon.Decision) {
	slot := types.ReplicaID(d.Slot)
	if _, dup := s.decidedB[slot]; dup {
		return
	}
	s.decidedB[slot] = d
	if s.cfg.OnSlotDecide != nil {
		var digest types.Digest
		if del, ok := s.delivered[slot]; ok {
			digest = del.Digest
		}
		s.cfg.OnSlotDecide(slot, d.Value, digest)
	}
	if d.Value {
		s.ones++
		s.maybeVoteZeros()
	}
	s.maybeComplete()
}

// maybeVoteZeros is the reduction's second half: once n−t binary
// consensuses have decided 1 (measured against the live view: slots of
// excluded replicas never propose), vote 0 for every slot whose proposal
// has not been delivered here. Until then an undelivered slot has no input
// from this replica, so a proposal that is merely late has the length of
// those n−t agreements to arrive and be voted 1.
func (s *Instance) maybeVoteZeros() {
	if s.zerosSent || s.ones < s.cfg.View.Size()-s.cfg.View.MaxFaults() {
		return
	}
	s.zerosSent = true
	for _, slot := range s.members {
		if _, have := s.delivered[slot]; !have {
			s.binFor(slot).Propose(false)
		}
	}
}

// maybeComplete assembles the decision when every slot's binary consensus
// has decided and every 1-slot's proposal is locally available.
func (s *Instance) maybeComplete() {
	if s.done || len(s.decidedB) < len(s.members) {
		return
	}
	// All bits decided; make sure payloads for 1-bits are present.
	for _, slot := range s.members {
		d := s.decidedB[slot]
		if !d.Value {
			continue
		}
		if _, have := s.delivered[slot]; !have {
			s.requestProposal(slot)
			return
		}
	}
	s.done = true
	dec := &Decision{
		Instance:   s.cfg.Instance,
		Bits:       make(map[types.ReplicaID]bool, len(s.members)),
		Proposals:  make(map[types.ReplicaID]ProposalInfo),
		BinCerts:   make(map[types.ReplicaID]*accountability.Certificate),
		ReadyCerts: make(map[types.ReplicaID]*accountability.Certificate),
		InitStmts:  make(map[types.ReplicaID]*accountability.Signed),
	}
	for _, slot := range s.members {
		bd := s.decidedB[slot]
		dec.Bits[slot] = bd.Value
		if bd.Cert != nil {
			dec.BinCerts[slot] = bd.Cert
		}
		if !bd.Value {
			continue
		}
		del := s.delivered[slot]
		dec.Proposals[slot] = ProposalInfo{
			Broadcaster:  slot,
			Payload:      del.Payload,
			Digest:       del.Digest,
			ClaimedBytes: del.ClaimedBytes,
			ClaimedSigs:  del.ClaimedSigs,
		}
		if del.Cert != nil {
			dec.ReadyCerts[slot] = del.Cert
		}
		if del.InitStmt != nil {
			dec.InitStmts[slot] = del.InitStmt
		}
	}
	s.decision = dec
	s.cfg.Tracer.Record(s.cfg.Env.Now(), obs.PhaseSBCDecide, uint64(s.cfg.Instance), 0, 0, "")
	if s.cfg.OnDecide != nil {
		s.cfg.OnDecide(dec)
	}
}

// requestProposal pulls a missing payload for a slot decided 1.
func (s *Instance) requestProposal(slot types.ReplicaID) {
	if s.reqSent[slot] {
		return
	}
	s.reqSent[slot] = true
	for _, m := range s.cfg.View.Members() {
		if m == s.cfg.Self {
			continue
		}
		s.cfg.Env.Send(m, &ProposalReq{Context: s.cfg.Context, Instance: s.cfg.Instance, Slot: slot})
	}
}

// OnMessage routes a protocol message to the right sub-instance. It
// reports whether the message type belonged to this SBC instance.
func (s *Instance) OnMessage(from types.ReplicaID, msg simnet.Message) bool {
	switch m := msg.(type) {
	case *rbc.Init:
		if m.Stmt.Stmt.Context != s.cfg.Context || m.Stmt.Stmt.Instance != s.cfg.Instance {
			return false
		}
		s.rbcFor(types.ReplicaID(m.Stmt.Stmt.Slot)).OnInit(from, m)
	case *rbc.Echo:
		if m.Stmt.Stmt.Context != s.cfg.Context || m.Stmt.Stmt.Instance != s.cfg.Instance {
			return false
		}
		s.rbcFor(types.ReplicaID(m.Stmt.Stmt.Slot)).OnEcho(from, m)
	case *rbc.Ready:
		if m.Stmt.Stmt.Context != s.cfg.Context || m.Stmt.Stmt.Instance != s.cfg.Instance {
			return false
		}
		s.rbcFor(types.ReplicaID(m.Stmt.Stmt.Slot)).OnReady(from, m)
	case *rbc.PayloadReq:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.rbcFor(m.Broadcaster).OnPayloadReq(from, m)
	case *rbc.PayloadResp:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.rbcFor(m.Broadcaster).OnPayloadResp(from, m)
	case *bincon.Est:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.binFor(types.ReplicaID(m.Slot)).OnEst(from, m)
	case *bincon.Coord:
		if m.Stmt.Stmt.Context != s.cfg.Context || m.Stmt.Stmt.Instance != s.cfg.Instance {
			return false
		}
		s.binFor(types.ReplicaID(m.Stmt.Stmt.Slot)).OnCoord(from, m)
	case *bincon.Aux:
		if m.Stmt.Stmt.Context != s.cfg.Context || m.Stmt.Stmt.Instance != s.cfg.Instance {
			return false
		}
		s.binFor(types.ReplicaID(m.Stmt.Stmt.Slot)).OnAux(from, m)
	case *bincon.Decide:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.binFor(types.ReplicaID(m.Slot)).OnDecide(from, m)
	case *bincon.DecideReq:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.binFor(types.ReplicaID(m.Slot)).OnDecideReq(from, m)
	case *ProposalReq:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.onProposalReq(from, m)
	case *ProposalResp:
		if m.Context != s.cfg.Context || m.Instance != s.cfg.Instance {
			return false
		}
		s.onProposalResp(from, m)
	default:
		return false
	}
	return true
}

// OnTimer routes a bincon coordinator timer.
func (s *Instance) OnTimer(p bincon.TimerPayload) bool {
	if p.Context != s.cfg.Context || p.Instance != s.cfg.Instance {
		return false
	}
	if b, ok := s.bins[types.ReplicaID(p.Slot)]; ok {
		b.HandleTimer(p)
	}
	return true
}

func (s *Instance) onProposalReq(from types.ReplicaID, m *ProposalReq) {
	del, ok := s.delivered[m.Slot]
	if !ok {
		return
	}
	s.cfg.Env.Send(from, &ProposalResp{
		Context:      m.Context,
		Instance:     m.Instance,
		Slot:         m.Slot,
		Payload:      del.Payload,
		ClaimedBytes: del.ClaimedBytes,
		ClaimedSigs:  del.ClaimedSigs,
		Cert:         del.Cert,
		InitStmt:     del.InitStmt,
	})
}

func (s *Instance) onProposalResp(_ types.ReplicaID, m *ProposalResp) {
	if _, dup := s.delivered[m.Slot]; dup {
		s.maybeComplete()
		return
	}
	d := types.Hash(m.Payload)
	var initStmt *accountability.Signed
	if s.cfg.Accountable {
		if m.Cert == nil {
			return
		}
		expect := accountability.Statement{
			Context:  s.cfg.Context,
			Kind:     accountability.KindReady,
			Instance: s.cfg.Instance,
			Slot:     uint32(m.Slot),
			Value:    d,
		}
		if m.Cert.Stmt != expect {
			return
		}
		// Delivery needs 2t+1 readies, against the committee size.
		if s.cfg.Log.RecordVerifyCertificate(m.Cert, 2*types.MaxClassicFaults(len(s.members))+1) != nil {
			return
		}
		// The broadcaster's INIT statement is kept — to be served and
		// absorbed later — only if it is the one for this payload and
		// verifies; a bad one costs the statement, not the proposal.
		expect.Kind = accountability.KindInit
		if m.InitStmt != nil && m.InitStmt.Signer == m.Slot && m.InitStmt.Stmt == expect &&
			s.cfg.Log.RecordVerify(*m.InitStmt) {
			initStmt = m.InitStmt
		}
	}
	if s.cfg.Validate != nil && !s.cfg.Validate(m.Slot, m.Payload) {
		return
	}
	if s.cfg.OnProposal != nil {
		s.cfg.OnProposal(m.Payload)
	}
	s.delivered[m.Slot] = rbc.Delivery{
		Broadcaster:  m.Slot,
		Payload:      m.Payload,
		Digest:       d,
		ClaimedBytes: m.ClaimedBytes,
		ClaimedSigs:  m.ClaimedSigs,
		Cert:         m.Cert,
		InitStmt:     initStmt,
	}
	s.maybeComplete()
}

// PullDecisions asks from, which has decided the whole instance, for the
// decision certificate of every slot still undecided here (once per slot:
// bincon does not ask the same replica twice).
func (s *Instance) PullDecisions(from types.ReplicaID) {
	for _, slot := range s.members {
		if _, decided := s.decidedB[slot]; !decided {
			s.binFor(slot).Pull(from)
		}
	}
}

// Release drops the instance's payloads from the intern table; the owner
// calls it when it retires the instance.
func (s *Instance) Release() {
	for _, r := range s.rbcs {
		r.Release()
	}
}

// Reevaluate re-runs quorum checks in every live binary consensus after a
// committee change, and the n−t of the 0-votes, which shrank with it.
func (s *Instance) Reevaluate() {
	s.maybeVoteZeros()
	for _, slot := range s.members {
		if b, ok := s.bins[slot]; ok {
			b.Reevaluate()
		}
	}
}
