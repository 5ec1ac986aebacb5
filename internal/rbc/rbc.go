// Package rbc implements Bracha's reliable broadcast with the
// accountability extensions ZLB needs (paper §2.3): ECHO and READY
// messages are signed statements, so a replica that echoes two different
// digests for the same broadcast — the core of the paper's "reliable
// broadcast attack" (§B) — leaves transferable equivocation evidence.
// Delivery produces a certificate (a quorum of signed READY statements)
// and the broadcaster's signed INIT, which travel with decisions and let
// other partitions cross-check. The INIT statement crosses a link with the
// INIT itself or with the pull that stands in for it (PayloadResp), never
// on READY: one signature, sent and checked once.
//
// Thresholds: echo quorum ⌈2n/3⌉, ready amplification at t+1, delivery at
// 2t+1, with t = ⌈n/3⌉−1.
package rbc

import (
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Init carries the broadcaster's proposal. ClaimedBytes lets throughput
// experiments model large batches without materializing them; zero means
// len(Payload).
type Init struct {
	Stmt         accountability.Signed // KindInit, Slot = broadcaster, Value = digest(payload)
	Payload      []byte
	ClaimedBytes int
	ClaimedSigs  int // modeled per-transaction verification work
}

// SimBytes implements simnet.Meter.
func (m *Init) SimBytes() int {
	if m.ClaimedBytes > 0 {
		return m.ClaimedBytes + 110
	}
	return len(m.Payload) + 110
}

// SimSigOps implements simnet.Meter.
func (m *Init) SimSigOps() int { return 1 + m.ClaimedSigs }

// Echo is a signed echo of the proposal digest.
type Echo struct {
	Stmt accountability.Signed // KindEcho, Slot = broadcaster, Value = digest
}

// SimBytes implements simnet.Meter.
func (m *Echo) SimBytes() int { return 160 }

// SimSigOps implements simnet.Meter.
func (m *Echo) SimSigOps() int { return 1 }

// Ready is a signed ready for the proposal digest.
type Ready struct {
	Stmt accountability.Signed // KindReady, Slot = broadcaster, Value = digest
}

// SimBytes implements simnet.Meter.
func (m *Ready) SimBytes() int { return 160 }

// SimSigOps implements simnet.Meter.
func (m *Ready) SimSigOps() int { return 1 }

// PayloadReq asks a peer for the payload matching a digest (the requester
// saw a READY quorum before the INIT reached it).
type PayloadReq struct {
	Context     uint8
	Instance    types.Instance
	Broadcaster types.ReplicaID
	Digest      types.Digest
}

// SimBytes implements simnet.Meter.
func (m *PayloadReq) SimBytes() int { return 64 }

// SimSigOps implements simnet.Meter.
func (m *PayloadReq) SimSigOps() int { return 0 }

// PayloadResp answers a PayloadReq with what the INIT would have brought:
// the payload and, when the responder has it, the broadcaster's signed INIT
// statement.
type PayloadResp struct {
	Context      uint8
	Instance     types.Instance
	Broadcaster  types.ReplicaID
	Payload      []byte
	ClaimedBytes int
	ClaimedSigs  int
	InitStmt     *accountability.Signed
}

// initStmtModelBytes is the modeled wire cost of the INIT statement riding
// on a pull response.
const initStmtModelBytes = 120

// SimBytes implements simnet.Meter.
func (m *PayloadResp) SimBytes() int {
	n := len(m.Payload) + 40
	if m.ClaimedBytes > 0 {
		n = m.ClaimedBytes + 40
	}
	if m.InitStmt != nil {
		n += initStmtModelBytes
	}
	return n
}

// SimSigOps implements simnet.Meter.
func (m *PayloadResp) SimSigOps() int {
	if m.InitStmt != nil {
		return m.ClaimedSigs + 1
	}
	return m.ClaimedSigs
}

// Delivery is the output of one reliable broadcast.
type Delivery struct {
	Broadcaster  types.ReplicaID
	Payload      []byte
	Digest       types.Digest
	ClaimedBytes int
	ClaimedSigs  int
	// Cert is the quorum of READY statements justifying delivery
	// (accountable mode only).
	Cert *accountability.Certificate
	// InitStmt is the broadcaster's signed proposal statement, if known.
	InitStmt *accountability.Signed
}

// Equivocator customizes the messages a deceitful replica emits; nil
// fields mean honest behaviour. It is how the adversary package "modifies
// the code" of a replica it controls (paper Fig. 1).
type Equivocator struct {
	// InitFor returns the payload sent to a given recipient, enabling the
	// reliable-broadcast attack (different proposals to different
	// partitions).
	InitFor func(to types.ReplicaID) []byte
	// EchoDigestFor returns which digest to echo/ready toward a given
	// recipient; ok=false suppresses the message.
	EchoDigestFor func(to types.ReplicaID, seen []types.Digest) (types.Digest, bool)
}

// Config parameterizes one reliable-broadcast slot (one broadcaster within
// one consensus instance).
type Config struct {
	Context     uint8
	Instance    types.Instance
	Broadcaster types.ReplicaID
	Self        types.ReplicaID
	View        *committee.View
	Signer      *crypto.Signer
	Log         *accountability.Log // may be nil when Accountable is false
	Env         simnet.Env
	Accountable bool
	OnDeliver   func(Delivery)
	// Equivocator, when non-nil, makes this replica deceitful for this
	// broadcast.
	Equivocator *Equivocator
	// Intern, when set, canonicalizes stored payload bytes by digest
	// across the whole deployment (one copy per distinct proposal instead
	// of one per replica). Nil keeps per-message slices.
	Intern *Intern
	// Tracer, when set, records the slot's lifecycle span events
	// (rbc_init at the broadcaster). Nil disables tracing at zero cost.
	Tracer *obs.NodeTracer
}

// Instance is the state machine for one reliable-broadcast slot at one
// replica.
type Instance struct {
	cfg Config

	payloads    map[types.Digest][]byte // digest -> payload (claimed sizes kept aside)
	claimedMeta map[types.Digest][2]int
	initStmts   map[types.Digest]*accountability.Signed
	echoes      map[types.Digest]*types.ReplicaSet
	readies     map[types.Digest]*types.ReplicaSet
	readyStmts  map[types.Digest][]accountability.Signed
	echoSent    bool
	readySent   bool
	delivered   bool
	pullAsked   bool
	pendingCert map[types.Digest]*accountability.Certificate
}

// New creates the slot state machine.
func New(cfg Config) *Instance {
	return &Instance{
		cfg:         cfg,
		payloads:    make(map[types.Digest][]byte),
		claimedMeta: make(map[types.Digest][2]int),
		initStmts:   make(map[types.Digest]*accountability.Signed),
		echoes:      make(map[types.Digest]*types.ReplicaSet),
		readies:     make(map[types.Digest]*types.ReplicaSet),
		readyStmts:  make(map[types.Digest][]accountability.Signed),
		pendingCert: make(map[types.Digest]*accountability.Certificate),
	}
}

// Delivered reports whether the slot has delivered.
func (r *Instance) Delivered() bool { return r.delivered }

// HasPayload reports whether a proposal for this slot has arrived, by the
// broadcaster's INIT or pulled.
func (r *Instance) HasPayload() bool { return len(r.payloads) > 0 }

func (r *Instance) stmt(kind accountability.Kind, digest types.Digest) accountability.Statement {
	return accountability.Statement{
		Context:  r.cfg.Context,
		Kind:     kind,
		Instance: r.cfg.Instance,
		Slot:     uint32(r.cfg.Broadcaster),
		Value:    digest,
	}
}

// sign signs the one statement an honest replica makes per kind and slot,
// through the log: the copy the multicast delivers back to this replica is
// then a statement the log holds, not a signature to check.
func (r *Instance) sign(stmt accountability.Statement) accountability.Signed {
	if !r.cfg.Accountable {
		return accountability.Signed{Stmt: stmt, Signer: r.cfg.Self}
	}
	signed, err := r.cfg.Log.Sign(stmt)
	if err != nil {
		panic(fmt.Sprintf("rbc: signing failed: %v", err))
	}
	return signed
}

// signSplit signs one of an equivocator's per-recipient statements. They
// stay out of its own log, which would convict it.
func (r *Instance) signSplit(stmt accountability.Statement) accountability.Signed {
	if !r.cfg.Accountable {
		return accountability.Signed{Stmt: stmt, Signer: r.cfg.Self}
	}
	signed, err := accountability.SignStatement(r.cfg.Signer, stmt)
	if err != nil {
		panic(fmt.Sprintf("rbc: signing failed: %v", err))
	}
	return signed
}

// verifyStmt authenticates a received statement: right shape, claimed
// signer matches the transport sender, and (accountable mode) a signature
// the log holds or the scheme accepts.
func (r *Instance) verifyStmt(from types.ReplicaID, s accountability.Signed, kind accountability.Kind) bool {
	if s.Stmt.Kind != kind || s.Stmt.Context != r.cfg.Context ||
		s.Stmt.Instance != r.cfg.Instance || s.Stmt.Slot != uint32(r.cfg.Broadcaster) {
		return false
	}
	if s.Signer != from {
		return false
	}
	return !r.cfg.Accountable || r.cfg.Log.RecordVerify(s)
}

func (r *Instance) multicast(msg simnet.Message) {
	for _, m := range r.cfg.View.Members() {
		r.cfg.Env.Send(m, msg)
	}
}

// Broadcast starts the protocol as the broadcaster. ClaimedBytes and
// claimedSigs model batch size for the cost model (0 = actual).
func (r *Instance) Broadcast(payload []byte, claimedBytes, claimedSigs int) {
	if r.cfg.Self != r.cfg.Broadcaster {
		panic("rbc: Broadcast called by non-broadcaster")
	}
	r.cfg.Tracer.Record(r.cfg.Env.Now(), obs.PhaseRBCInit, uint64(r.cfg.Instance), uint32(r.cfg.Broadcaster), 0, "")
	if eq := r.cfg.Equivocator; eq != nil && eq.InitFor != nil {
		// Deceitful broadcaster: per-recipient payloads (rbcast attack).
		for _, m := range r.cfg.View.Members() {
			p := eq.InitFor(m)
			if p == nil {
				continue
			}
			d := types.Hash(p)
			signed := r.signSplit(r.stmt(accountability.KindInit, d))
			r.cfg.Env.Send(m, &Init{Stmt: signed, Payload: p, ClaimedBytes: claimedBytes, ClaimedSigs: claimedSigs})
		}
		return
	}
	d := types.Hash(payload)
	signed := r.sign(r.stmt(accountability.KindInit, d))
	r.multicast(&Init{Stmt: signed, Payload: payload, ClaimedBytes: claimedBytes, ClaimedSigs: claimedSigs})
}

// OnInit handles the broadcaster's proposal.
func (r *Instance) OnInit(from types.ReplicaID, msg *Init) {
	if from != r.cfg.Broadcaster {
		return
	}
	if !r.verifyStmt(from, msg.Stmt, accountability.KindInit) {
		return
	}
	d := types.Hash(msg.Payload)
	if d != msg.Stmt.Stmt.Value {
		return // statement does not match payload
	}
	if _, known := r.payloads[d]; !known {
		r.payloads[d] = r.cfg.Intern.Bytes(d, msg.Payload)
		r.claimedMeta[d] = [2]int{msg.ClaimedBytes, msg.ClaimedSigs}
		stmt := msg.Stmt
		r.initStmts[d] = &stmt
	}
	r.maybeEcho(d)
	r.maybeDeliver(d)
}

func (r *Instance) maybeEcho(d types.Digest) {
	if r.echoSent {
		return
	}
	r.echoSent = true
	if eq := r.cfg.Equivocator; eq != nil && eq.EchoDigestFor != nil {
		r.splitEchoReady(accountability.KindEcho, d)
		return
	}
	signed := r.sign(r.stmt(accountability.KindEcho, d))
	r.multicast(&Echo{Stmt: signed})
}

// splitEchoReady sends per-recipient equivocating echoes or readies.
func (r *Instance) splitEchoReady(kind accountability.Kind, fallback types.Digest) {
	seen := r.knownDigests()
	for _, m := range r.cfg.View.Members() {
		d, ok := r.cfg.Equivocator.EchoDigestFor(m, seen)
		if !ok {
			continue
		}
		if d.IsZero() {
			d = fallback
		}
		signed := r.signSplit(r.stmt(kind, d))
		switch kind {
		case accountability.KindEcho:
			r.cfg.Env.Send(m, &Echo{Stmt: signed})
		case accountability.KindReady:
			r.cfg.Env.Send(m, &Ready{Stmt: signed})
		}
	}
}

func (r *Instance) knownDigests() []types.Digest {
	seen := make(map[types.Digest]bool, len(r.payloads))
	for d := range r.payloads {
		seen[d] = true
	}
	for d := range r.echoes {
		seen[d] = true
	}
	for d := range r.readies {
		seen[d] = true
	}
	out := make([]types.Digest, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	// Sort for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Less(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// OnEcho handles a signed echo.
func (r *Instance) OnEcho(from types.ReplicaID, msg *Echo) {
	if !r.cfg.View.Contains(from) {
		return
	}
	if !r.verifyStmt(from, msg.Stmt, accountability.KindEcho) {
		return
	}
	d := msg.Stmt.Stmt.Value
	set, ok := r.echoes[d]
	if !ok {
		set = types.NewReplicaSet()
		r.echoes[d] = set
	}
	set.Add(from)
	if set.Len() >= r.cfg.View.Quorum() {
		r.maybeReady(d)
	}
}

func (r *Instance) maybeReady(d types.Digest) {
	if r.readySent {
		return
	}
	r.readySent = true
	if eq := r.cfg.Equivocator; eq != nil && eq.EchoDigestFor != nil {
		r.splitEchoReady(accountability.KindReady, d)
		return
	}
	signed := r.sign(r.stmt(accountability.KindReady, d))
	r.multicast(&Ready{Stmt: signed})
}

// OnReady handles a signed ready.
func (r *Instance) OnReady(from types.ReplicaID, msg *Ready) {
	if !r.cfg.View.Contains(from) {
		return
	}
	if !r.verifyStmt(from, msg.Stmt, accountability.KindReady) {
		return
	}
	d := msg.Stmt.Stmt.Value
	set, ok := r.readies[d]
	if !ok {
		set = types.NewReplicaSet()
		r.readies[d] = set
	}
	if set.Add(from) {
		r.readyStmts[d] = append(r.readyStmts[d], msg.Stmt)
	}
	// Amplification: t+1 readies make us ready too.
	if set.Len() >= r.cfg.View.BVRelay() {
		r.maybeReady(d)
	}
	r.maybeDeliver(d)
}

// maybeDeliver delivers once 2t+1 readies back one digest and the payload
// is available; otherwise it pulls the payload.
func (r *Instance) maybeDeliver(d types.Digest) {
	if r.delivered {
		return
	}
	set, ok := r.readies[d]
	if !ok || set.Len() < 2*r.cfg.View.MaxFaults()+1 {
		return
	}
	payload, have := r.payloads[d]
	if !have {
		if !r.pullAsked {
			r.pullAsked = true
			// Ask everyone who said READY for the payload.
			for _, id := range set.Sorted() {
				r.cfg.Env.Send(id, &PayloadReq{
					Context:     r.cfg.Context,
					Instance:    r.cfg.Instance,
					Broadcaster: r.cfg.Broadcaster,
					Digest:      d,
				})
			}
		}
		return
	}
	r.delivered = true
	var cert *accountability.Certificate
	if r.cfg.Accountable {
		stmts := r.readyStmts[d]
		c, err := accountability.NewCertificate(r.stmt(accountability.KindReady, d), stmts)
		if err == nil {
			cert = c
		}
	}
	meta := r.claimedMeta[d]
	r.cfg.OnDeliver(Delivery{
		Broadcaster:  r.cfg.Broadcaster,
		Payload:      payload,
		Digest:       d,
		ClaimedBytes: meta[0],
		ClaimedSigs:  meta[1],
		Cert:         cert,
		InitStmt:     r.initStmts[d],
	})
}

// OnPayloadReq serves a stored payload.
func (r *Instance) OnPayloadReq(from types.ReplicaID, msg *PayloadReq) {
	payload, ok := r.payloads[msg.Digest]
	if !ok {
		return
	}
	meta := r.claimedMeta[msg.Digest]
	r.cfg.Env.Send(from, &PayloadResp{
		Context:      msg.Context,
		Instance:     msg.Instance,
		Broadcaster:  msg.Broadcaster,
		Payload:      payload,
		ClaimedBytes: meta[0],
		ClaimedSigs:  meta[1],
		InitStmt:     r.initStmts[msg.Digest],
	})
}

// OnPayloadResp stores a pulled payload, and the broadcaster's INIT
// statement for it if one came along and verifies, and retries delivery.
func (r *Instance) OnPayloadResp(_ types.ReplicaID, msg *PayloadResp) {
	d := types.Hash(msg.Payload)
	if _, known := r.payloads[d]; !known {
		r.payloads[d] = r.cfg.Intern.Bytes(d, msg.Payload)
		r.claimedMeta[d] = [2]int{msg.ClaimedBytes, msg.ClaimedSigs}
	}
	if s := msg.InitStmt; s != nil && r.cfg.Accountable && r.initStmts[d] == nil &&
		s.Stmt.Value == d && r.verifyStmt(r.cfg.Broadcaster, *s, accountability.KindInit) {
		r.initStmts[d] = s
	}
	r.maybeDeliver(d)
}

// Release drops this slot's payloads from the intern table; the owner
// calls it when it retires the instance.
func (r *Instance) Release() {
	for d := range r.payloads {
		r.cfg.Intern.Release(d)
	}
}

// Digests returns every digest with at least one echo or ready, sorted;
// used by tests to observe partitioned state.
func (r *Instance) Digests() []types.Digest { return r.knownDigests() }
