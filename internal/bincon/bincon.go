// Package bincon implements the accountable binary Byzantine consensus at
// the core of ZLB's Set Byzantine Consensus (paper §2.3): a DBFT-style
// round structure (BV-broadcast, weak coordinator, AUX votes, alternating
// default value) made accountable in the Polygraph fashion — AUX and COORD
// messages are signed statements, decisions carry certificates of
// ⌈2n/3⌉ signed AUX votes, and any replica that signs two different AUX
// values in the same round (the paper's "binary consensus attack") leaves
// undeniable equivocation evidence.
//
// Round r at replica p, with estimate est:
//
//  1. broadcast EST[r](est); BV-broadcast semantics: relay a value backed
//     by t+1 replicas, add to bin_values once backed by 2t+1.
//  2. the weak coordinator (rotating) broadcasts a signed COORD[r](w),
//     w ∈ its bin_values; replicas wait for it until a timeout.
//  3. once bin_values ≠ ∅ and (coord value arrived or timeout): broadcast
//     one signed AUX[r](v) — the coordinator's value if valid, else the
//     first of bin_values.
//  4. on ⌈2n/3⌉ AUX[r] votes with values ⊆ bin_values: round r favours
//     the value f = 1 − (r mod 2). If unanimous on v = f, decide v with
//     the vote quorum as certificate; if unanimous on v ≠ f, adopt est =
//     v; else est = f. Next round.
//
// Rounds are numbered from 0 here and from 1 in DBFT, whose round r
// favours r mod 2: the first round favours 1 in both. The set consensus
// proposes 1 for every delivered proposal, so the common case — everybody
// holds the proposal — decides in one round, and a slot nobody has a
// proposal for decides 0 in two.
//
// Deciders announce DECIDE(v) to everyone and keep the certificate: a
// replica to which the announcement is news (it has not decided) or
// evidence (it decided the other value) asks the announcer for it with a
// DecideReq, once, and gets DECIDE(v, certificate) back. Only that one
// decides anything: it is verified, adopted, and announced on once, so
// decisions reliably propagate while a certificate crosses a link only
// where it is used. Without accountability there is no certificate and
// the announcement is the decision.
package bincon

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Est is the (unsigned, transport-authenticated) BV-broadcast estimate
// message. EST is deliberately not an equivocation slot: BV-broadcast
// legitimately lets a replica broadcast both values (its estimate plus a
// relay), so only AUX/COORD signatures count as evidence.
type Est struct {
	Context  uint8
	Instance types.Instance
	Slot     uint32
	Round    types.Round
	Value    bool
}

// SimBytes implements simnet.Meter.
func (m *Est) SimBytes() int { return 40 }

// SimSigOps implements simnet.Meter.
func (m *Est) SimSigOps() int { return 0 }

// Coord is the weak coordinator's signed value for a round.
type Coord struct {
	Stmt accountability.Signed // KindCoord
}

// SimBytes implements simnet.Meter.
func (m *Coord) SimBytes() int { return 160 }

// SimSigOps implements simnet.Meter.
func (m *Coord) SimSigOps() int { return 1 }

// Aux is the signed auxiliary vote — the accountable heart of the round.
type Aux struct {
	Stmt accountability.Signed // KindAux
}

// SimBytes implements simnet.Meter.
func (m *Aux) SimBytes() int { return 160 }

// SimSigOps implements simnet.Meter.
func (m *Aux) SimSigOps() int { return 1 }

// Decide carries a decision. In accountable mode the multicast one is an
// announcement, without Cert; the answer to a DecideReq carries the
// certificate.
type Decide struct {
	Context  uint8
	Instance types.Instance
	Slot     uint32
	Value    bool
	Cert     *accountability.Certificate
}

// SimBytes implements simnet.Meter. The certificate term is one signed
// statement per vote, nothing for an announcement.
func (m *Decide) SimBytes() int { return 48 + m.Cert.ModelBytes() }

// SimSigOps implements simnet.Meter.
func (m *Decide) SimSigOps() int { return m.Cert.SigOps() }

// DecideReq asks the replica that announced a decision for the DECIDE
// with its certificate.
type DecideReq struct {
	Context  uint8
	Instance types.Instance
	Slot     uint32
}

// SimBytes implements simnet.Meter.
func (m *DecideReq) SimBytes() int { return 48 }

// SimSigOps implements simnet.Meter.
func (m *DecideReq) SimSigOps() int { return 0 }

// Decision is the output of one binary consensus slot.
type Decision struct {
	Slot  uint32
	Value bool
	Cert  *accountability.Certificate
	Round types.Round
}

// Equivocator makes a replica deceitful in this slot; nil fields mean
// honest behaviour.
type Equivocator struct {
	// EstFor returns the estimate value broadcast to a recipient at a
	// round; ok=false suppresses.
	EstFor func(to types.ReplicaID, round types.Round) (bool, bool)
	// AuxFor returns the (signed!) AUX value sent to a recipient at a
	// round; ok=false suppresses. Returning different values to different
	// recipients is the binary consensus attack and creates PoFs.
	AuxFor func(to types.ReplicaID, round types.Round) (bool, bool)
	// CoordFor splits the coordinator value per recipient when this
	// replica coordinates; ok=false suppresses.
	CoordFor func(to types.ReplicaID, round types.Round) (bool, bool)
	// SuppressDecide stops this replica from announcing its decisions
	// and from serving their certificates: a deceitful replica does not
	// carry what would incriminate its coalition across partitions.
	SuppressDecide bool
}

// Config parameterizes one binary consensus slot at one replica.
type Config struct {
	Context  uint8
	Instance types.Instance
	Slot     uint32
	Self     types.ReplicaID
	View     *committee.View
	Signer   *crypto.Signer
	Log      *accountability.Log
	Env      simnet.Env
	// Accountable disables signatures when false (Red Belly baseline).
	Accountable bool
	// CoordTimeout bounds the wait for the coordinator's value; grows
	// linearly with the round number. Nil selects a 400 ms·(r+1) default.
	CoordTimeout func(round types.Round) time.Duration
	OnDecide     func(Decision)
	Equivocator  *Equivocator

	// Tracer, when non-nil, records round starts and decisions with
	// virtual timestamps. Nil disables tracing at zero cost.
	Tracer *obs.NodeTracer
}

const defaultCoordTimeout = 400 * time.Millisecond

type roundState struct {
	estSent    map[bool]bool
	estRecv    map[bool]*types.ReplicaSet
	binValues  map[bool]bool
	binOrder   []bool // insertion order of bin values
	auxSent    bool
	auxRecv    map[types.ReplicaID]accountability.Signed
	auxValues  map[types.ReplicaID]bool
	coordValue *bool
	timerFired bool
	timerID    simnet.TimerID
	timerSet   bool
}

func newRoundState() *roundState {
	return &roundState{
		estSent:   make(map[bool]bool),
		estRecv:   map[bool]*types.ReplicaSet{false: types.NewReplicaSet(), true: types.NewReplicaSet()},
		binValues: make(map[bool]bool),
		auxRecv:   make(map[types.ReplicaID]accountability.Signed),
		auxValues: make(map[types.ReplicaID]bool),
	}
}

// Instance is the state machine for one binary consensus slot at one
// replica.
type Instance struct {
	cfg      Config
	round    types.Round
	est      bool
	started  bool
	decided  bool
	decision Decision
	rounds   map[types.Round]*roundState
	// future-round message buffer
	pendingEst   []pendingEst
	pendingCoord []pendingSigned
	pendingAux   []pendingSigned
	forwarded    bool
	// asked holds the announcers already sent a DecideReq: one each.
	asked *types.ReplicaSet
	// playedRounds tracks rounds already played in scripted mode.
	playedRounds map[types.Round]bool
}

type pendingEst struct {
	from  types.ReplicaID
	round types.Round
	value bool
}

type pendingSigned struct {
	from types.ReplicaID
	stmt accountability.Signed
	kind accountability.Kind
}

// New creates the slot state machine.
func New(cfg Config) *Instance {
	return &Instance{cfg: cfg, rounds: make(map[types.Round]*roundState), asked: types.NewReplicaSet()}
}

// Decided reports whether the slot has decided, and the decision.
func (b *Instance) Decided() (Decision, bool) { return b.decision, b.decided }

// TimerPayload is the payload bincon attaches to its coordinator timers;
// the owning node routes OnTimer back via HandleTimer.
type TimerPayload struct {
	Context  uint8
	Instance types.Instance
	Slot     uint32
	Round    types.Round
}

func (b *Instance) state(r types.Round) *roundState {
	st, ok := b.rounds[r]
	if !ok {
		st = newRoundState()
		b.rounds[r] = st
	}
	return st
}

// Propose starts the consensus with the given input value.
func (b *Instance) Propose(v bool) {
	if b.started {
		return
	}
	b.started = true
	if b.scripted() {
		b.playRound(0)
		return
	}
	if b.decided {
		return
	}
	b.est = v
	b.startRound(0)
	b.drainPending()
}

// scripted reports whether this instance attacks its slot: instead of the
// honest state machine it replays a per-recipient vote script, one round
// at a time, as honest replicas reach each round. A scripted instance
// never decides on its own (it adopts an honest certificate for SBC
// completion) and never stops equivocating: a real attacker does not
// abandon the slow partition just because the fast one already decided.
func (b *Instance) scripted() bool {
	return b.cfg.Equivocator != nil && b.cfg.Equivocator.AuxFor != nil
}

// playRound emits the scripted EST/AUX/COORD messages for round r, once.
func (b *Instance) playRound(r types.Round) {
	if b.playedRounds == nil {
		b.playedRounds = make(map[types.Round]bool)
	}
	if b.playedRounds[r] {
		return
	}
	b.playedRounds[r] = true
	eq := b.cfg.Equivocator
	for _, m := range b.cfg.View.Members() {
		if eq.EstFor != nil {
			if v, ok := eq.EstFor(m, r); ok {
				b.cfg.Env.Send(m, &Est{Context: b.cfg.Context, Instance: b.cfg.Instance, Slot: b.cfg.Slot, Round: r, Value: v})
			}
		}
		if v, ok := eq.AuxFor(m, r); ok {
			b.cfg.Env.Send(m, &Aux{Stmt: b.signSplit(b.stmt(accountability.KindAux, r, v))})
		}
	}
	if eq.CoordFor != nil && b.cfg.View.Coordinator(b.cfg.Instance, b.cfg.Slot, r) == b.cfg.Self {
		for _, m := range b.cfg.View.Members() {
			if v, ok := eq.CoordFor(m, r); ok {
				b.cfg.Env.Send(m, &Coord{Stmt: b.signSplit(b.stmt(accountability.KindCoord, r, v))})
			}
		}
	}
}

func (b *Instance) stmt(kind accountability.Kind, round types.Round, v bool) accountability.Statement {
	return accountability.Statement{
		Context:  b.cfg.Context,
		Kind:     kind,
		Instance: b.cfg.Instance,
		Slot:     b.cfg.Slot,
		Round:    round,
		Value:    accountability.BoolDigest(v),
	}
}

// sign signs the one statement an honest replica makes per kind and
// round, through the log: the copy the multicast delivers back to this
// replica is then a statement the log holds, not a signature to check.
func (b *Instance) sign(stmt accountability.Statement) accountability.Signed {
	if !b.cfg.Accountable {
		return accountability.Signed{Stmt: stmt, Signer: b.cfg.Self}
	}
	signed, err := b.cfg.Log.Sign(stmt)
	if err != nil {
		panic(fmt.Sprintf("bincon: signing failed: %v", err))
	}
	return signed
}

// signSplit signs one of an equivocator's per-recipient statements. They
// stay out of its own log, which would convict it.
func (b *Instance) signSplit(stmt accountability.Statement) accountability.Signed {
	if !b.cfg.Accountable {
		return accountability.Signed{Stmt: stmt, Signer: b.cfg.Self}
	}
	signed, err := accountability.SignStatement(b.cfg.Signer, stmt)
	if err != nil {
		panic(fmt.Sprintf("bincon: signing failed: %v", err))
	}
	return signed
}

func (b *Instance) multicast(msg simnet.Message) {
	for _, m := range b.cfg.View.Members() {
		b.cfg.Env.Send(m, msg)
	}
}

func (b *Instance) coordTimeout(r types.Round) time.Duration {
	if b.cfg.CoordTimeout != nil {
		return b.cfg.CoordTimeout(r)
	}
	return defaultCoordTimeout * time.Duration(r+1)
}

func (b *Instance) startRound(r types.Round) {
	b.round = r
	st := b.state(r)
	b.cfg.Tracer.Record(b.cfg.Env.Now(), obs.PhaseBinRound, uint64(b.cfg.Instance), b.cfg.Slot, uint32(r), "")
	b.broadcastEst(r, b.est)
	// Arm the coordinator timer.
	if !st.timerSet {
		st.timerSet = true
		st.timerID = b.cfg.Env.SetTimer(b.coordTimeout(r), TimerPayload{
			Context: b.cfg.Context, Instance: b.cfg.Instance, Slot: b.cfg.Slot, Round: r,
		})
	}
	b.maybeCoordinate(r)
	b.reevaluate(r)
}

func (b *Instance) broadcastEst(r types.Round, v bool) {
	st := b.state(r)
	if st.estSent[v] {
		return
	}
	st.estSent[v] = true
	if eq := b.cfg.Equivocator; eq != nil && eq.EstFor != nil {
		for _, m := range b.cfg.View.Members() {
			if val, ok := eq.EstFor(m, r); ok {
				b.cfg.Env.Send(m, &Est{Context: b.cfg.Context, Instance: b.cfg.Instance, Slot: b.cfg.Slot, Round: r, Value: val})
			}
		}
		return
	}
	b.multicast(&Est{Context: b.cfg.Context, Instance: b.cfg.Instance, Slot: b.cfg.Slot, Round: r, Value: v})
}

// maybeCoordinate sends the coordinator message if we coordinate round r
// and have a bin value.
func (b *Instance) maybeCoordinate(r types.Round) {
	if b.cfg.View.Coordinator(b.cfg.Instance, b.cfg.Slot, r) != b.cfg.Self {
		return
	}
	st := b.state(r)
	if len(st.binOrder) == 0 {
		return
	}
	w := st.binOrder[0]
	if eq := b.cfg.Equivocator; eq != nil && eq.CoordFor != nil {
		for _, m := range b.cfg.View.Members() {
			if val, ok := eq.CoordFor(m, r); ok {
				b.cfg.Env.Send(m, &Coord{Stmt: b.signSplit(b.stmt(accountability.KindCoord, r, val))})
			}
		}
		return
	}
	// Send once; coordValue self-adoption happens through self-delivery.
	if st.coordValue == nil {
		b.multicast(&Coord{Stmt: b.sign(b.stmt(accountability.KindCoord, r, w))})
	}
}

// OnEst handles a BV estimate.
func (b *Instance) OnEst(from types.ReplicaID, msg *Est) {
	if !b.cfg.View.Contains(from) {
		return
	}
	if b.scripted() {
		if b.started {
			b.playRound(msg.Round)
		}
		return
	}
	if b.decided {
		return
	}
	if !b.started || msg.Round > b.round {
		b.pendingEst = append(b.pendingEst, pendingEst{from: from, round: msg.Round, value: msg.Value})
		return
	}
	b.handleEst(from, msg.Round, msg.Value)
}

func (b *Instance) handleEst(from types.ReplicaID, r types.Round, v bool) {
	st := b.state(r)
	st.estRecv[v].Add(from)
	n := st.estRecv[v].Len()
	// Relay once t+1 distinct replicas back v.
	if n >= b.cfg.View.BVRelay() && !st.estSent[v] && r >= b.round {
		b.broadcastEst(r, v)
	}
	// Deliver once 2t+1 distinct replicas back v.
	if n >= 2*b.cfg.View.MaxFaults()+1 && !st.binValues[v] {
		st.binValues[v] = true
		st.binOrder = append(st.binOrder, v)
		if r == b.round {
			b.maybeCoordinate(r)
			b.reevaluate(r)
		}
	}
}

// OnCoord handles the coordinator's signed value.
func (b *Instance) OnCoord(from types.ReplicaID, msg *Coord) {
	if !b.cfg.View.Contains(from) {
		return
	}
	s := msg.Stmt
	r := s.Stmt.Round
	if s.Stmt.Kind != accountability.KindCoord || s.Stmt.Context != b.cfg.Context ||
		s.Stmt.Instance != b.cfg.Instance || s.Stmt.Slot != b.cfg.Slot || s.Signer != from {
		return
	}
	if from != b.cfg.View.Coordinator(b.cfg.Instance, b.cfg.Slot, r) {
		return
	}
	// Recorded even when already decided: post-decision equivocations are
	// evidence the cross-checking needs.
	if b.cfg.Accountable && !b.cfg.Log.RecordVerify(s) {
		return
	}
	if b.scripted() {
		if b.started {
			b.playRound(r)
		}
		return
	}
	if b.decided {
		return
	}
	if !b.started || r > b.round {
		b.pendingCoord = append(b.pendingCoord, pendingSigned{from: from, stmt: s, kind: accountability.KindCoord})
		return
	}
	st := b.state(r)
	if st.coordValue == nil {
		v := accountability.DigestBool(s.Stmt.Value)
		st.coordValue = &v
		if r == b.round {
			b.reevaluate(r)
		}
	}
}

// HandleTimer fires the coordinator timeout for a round.
func (b *Instance) HandleTimer(p TimerPayload) {
	if b.scripted() {
		return
	}
	if b.decided || p.Round != b.round {
		return
	}
	st := b.state(p.Round)
	st.timerFired = true
	b.reevaluate(p.Round)
}

// OnAux handles a signed AUX vote.
func (b *Instance) OnAux(from types.ReplicaID, msg *Aux) {
	if !b.cfg.View.Contains(from) {
		return
	}
	s := msg.Stmt
	if s.Stmt.Kind != accountability.KindAux || s.Stmt.Context != b.cfg.Context ||
		s.Stmt.Instance != b.cfg.Instance || s.Stmt.Slot != b.cfg.Slot || s.Signer != from {
		return
	}
	// Recorded even when already decided: post-decision equivocations are
	// evidence the cross-checking needs.
	if b.cfg.Accountable && !b.cfg.Log.RecordVerify(s) {
		return
	}
	r := s.Stmt.Round
	if b.scripted() {
		if b.started {
			b.playRound(r)
		}
		return
	}
	if b.decided {
		return
	}
	if !b.started || r > b.round {
		b.pendingAux = append(b.pendingAux, pendingSigned{from: from, stmt: s, kind: accountability.KindAux})
		return
	}
	st := b.state(r)
	if _, dup := st.auxRecv[from]; dup {
		return
	}
	st.auxRecv[from] = s
	st.auxValues[from] = accountability.DigestBool(s.Stmt.Value)
	if r == b.round {
		b.reevaluate(r)
	}
}

// reevaluate advances the round state machine after any input.
func (b *Instance) reevaluate(r types.Round) {
	if b.decided || r != b.round {
		return
	}
	st := b.state(r)
	// Phase 3: send AUX once bin_values ≠ ∅ and coordinator resolved.
	if !st.auxSent && len(st.binOrder) > 0 {
		coordDone := st.timerFired
		var auxVal bool
		if st.coordValue != nil && st.binValues[*st.coordValue] {
			auxVal = *st.coordValue
			coordDone = true
		} else {
			auxVal = st.binOrder[0]
		}
		if coordDone {
			st.auxSent = true
			b.sendAux(r, auxVal)
		}
	}
	if !st.auxSent {
		return
	}
	// Phase 4: count AUX votes whose values are in bin_values.
	quorum := b.cfg.View.Quorum()
	count := 0
	trueCount, falseCount := 0, 0
	for id, v := range st.auxValues {
		if !b.cfg.View.Contains(id) {
			continue // excluded at runtime (dynamic committee)
		}
		if !st.binValues[v] {
			continue
		}
		count++
		if v {
			trueCount++
		} else {
			falseCount++
		}
	}
	if count < quorum {
		return
	}
	// Even rounds favour 1, odd rounds 0: DBFT's alternation with its first
	// round, which favours 1, numbered 0.
	favoured := r%2 == 0
	switch {
	case falseCount == count:
		b.finishRound(r, false, !favoured)
	case trueCount == count:
		b.finishRound(r, true, favoured)
	default:
		b.est = favoured
		b.advance(r + 1)
	}
}

func (b *Instance) sendAux(r types.Round, v bool) {
	if eq := b.cfg.Equivocator; eq != nil && eq.AuxFor != nil {
		for _, m := range b.cfg.View.Members() {
			if val, ok := eq.AuxFor(m, r); ok {
				b.cfg.Env.Send(m, &Aux{Stmt: b.signSplit(b.stmt(accountability.KindAux, r, val))})
			}
		}
		return
	}
	b.multicast(&Aux{Stmt: b.sign(b.stmt(accountability.KindAux, r, v))})
}

func (b *Instance) finishRound(r types.Round, v bool, decide bool) {
	if decide {
		cert := b.buildCert(r, v)
		b.deliverDecision(Decision{Slot: b.cfg.Slot, Value: v, Cert: cert, Round: r}, true)
		return
	}
	b.est = v
	b.advance(r + 1)
}

func (b *Instance) buildCert(r types.Round, v bool) *accountability.Certificate {
	if !b.cfg.Accountable {
		return nil
	}
	st := b.state(r)
	stmt := b.stmt(accountability.KindAux, r, v)
	var sigs []accountability.Signed
	for _, id := range sortedKeys(st.auxValues) {
		if st.auxValues[id] == v && b.cfg.View.Contains(id) {
			sigs = append(sigs, st.auxRecv[id])
		}
	}
	cert, err := accountability.NewCertificate(stmt, sigs)
	if err != nil {
		return nil
	}
	return cert
}

func sortedKeys(m map[types.ReplicaID]bool) []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return types.SortReplicas(out)
}

func (b *Instance) advance(r types.Round) {
	if st, ok := b.rounds[b.round]; ok && st.timerSet {
		b.cfg.Env.CancelTimer(st.timerID)
	}
	b.startRound(r)
	b.drainPending()
}

func (b *Instance) drainPending() {
	ests := b.pendingEst
	b.pendingEst = nil
	for _, p := range ests {
		if p.round > b.round {
			b.pendingEst = append(b.pendingEst, p)
			continue
		}
		b.handleEst(p.from, p.round, p.value)
	}
	coords := b.pendingCoord
	b.pendingCoord = nil
	for _, p := range coords {
		if p.stmt.Stmt.Round > b.round {
			b.pendingCoord = append(b.pendingCoord, p)
			continue
		}
		st := b.state(p.stmt.Stmt.Round)
		if st.coordValue == nil {
			v := accountability.DigestBool(p.stmt.Stmt.Value)
			st.coordValue = &v
		}
	}
	auxes := b.pendingAux
	b.pendingAux = nil
	for _, p := range auxes {
		if p.stmt.Stmt.Round > b.round {
			b.pendingAux = append(b.pendingAux, p)
			continue
		}
		st := b.state(p.stmt.Stmt.Round)
		if _, dup := st.auxRecv[p.from]; !dup {
			st.auxRecv[p.from] = p.stmt
			st.auxValues[p.from] = accountability.DigestBool(p.stmt.Stmt.Value)
		}
	}
	b.reevaluate(b.round)
}

// Pull asks from, a committee member known to have decided this slot, for
// the DECIDE with its certificate. Each replica is asked once.
func (b *Instance) Pull(from types.ReplicaID) {
	if b.cfg.Accountable && b.cfg.View.Contains(from) && b.asked.Add(from) {
		b.cfg.Log.CertPulls++
		b.cfg.Env.Send(from, &DecideReq{Context: b.cfg.Context, Instance: b.cfg.Instance, Slot: b.cfg.Slot})
	}
}

// OnDecideReq serves the decision, certificate included, to a replica it
// was announced to.
func (b *Instance) OnDecideReq(from types.ReplicaID, msg *DecideReq) {
	if msg.Context != b.cfg.Context || msg.Instance != b.cfg.Instance || msg.Slot != b.cfg.Slot {
		return
	}
	if !b.decided || b.decision.Cert == nil || (b.cfg.Equivocator != nil && b.cfg.Equivocator.SuppressDecide) {
		return
	}
	b.cfg.Env.Send(from, &Decide{
		Context:  b.cfg.Context,
		Instance: b.cfg.Instance,
		Slot:     b.cfg.Slot,
		Value:    b.decision.Value,
		Cert:     b.decision.Cert,
	})
}

// OnDecide handles a propagated decision.
func (b *Instance) OnDecide(from types.ReplicaID, msg *Decide) {
	if msg.Context != b.cfg.Context || msg.Instance != b.cfg.Instance || msg.Slot != b.cfg.Slot {
		return
	}
	if b.cfg.Accountable && msg.Cert == nil {
		// An announcement decides nothing. Its certificate is worth a
		// round trip where it is news — nothing decided here yet — or
		// evidence: the other value decided here, so the two quorums
		// convict the signers they share.
		if !b.decided || b.decision.Value != msg.Value {
			b.Pull(from)
		}
		return
	}
	if b.scripted() {
		// Adopt silently so the surrounding SBC instance can complete;
		// keep answering rounds (the other partitions are still voting).
		if !b.decided {
			b.decided = true
			b.decision = Decision{Slot: msg.Slot, Value: msg.Value, Cert: msg.Cert}
			b.traceDecide(b.decision)
			if b.cfg.OnDecide != nil {
				b.cfg.OnDecide(b.decision)
			}
		}
		return
	}
	if b.cfg.Accountable {
		expect := b.stmt(accountability.KindAux, msg.Cert.Stmt.Round, msg.Value)
		if msg.Cert.Stmt != expect {
			return
		}
		// Quorum is evaluated against the full committee size. The AUX
		// votes in it that arrived as messages are in the log already and
		// cost nothing.
		if err := b.cfg.Log.RecordVerifyCertificate(msg.Cert, types.Quorum(b.cfg.View.Size())); err != nil {
			return
		}
	}
	b.deliverDecision(Decision{Slot: msg.Slot, Value: msg.Value, Cert: msg.Cert, Round: func() types.Round {
		if msg.Cert != nil {
			return msg.Cert.Stmt.Round
		}
		return 0
	}()}, false)
}

// traceDecide records the binary decision (value encoded as "0"/"1").
func (b *Instance) traceDecide(d Decision) {
	if b.cfg.Tracer == nil {
		return
	}
	v := "0"
	if d.Value {
		v = "1"
	}
	b.cfg.Tracer.Record(b.cfg.Env.Now(), obs.PhaseBinDecide, uint64(b.cfg.Instance), d.Slot, uint32(d.Round), v)
}

// deliverDecision finalizes the slot (once) and propagates the decision.
func (b *Instance) deliverDecision(d Decision, own bool) {
	if b.decided {
		return
	}
	b.decided = true
	b.decision = d
	b.traceDecide(d)
	if st, ok := b.rounds[b.round]; ok && st.timerSet {
		b.cfg.Env.CancelTimer(st.timerID)
	}
	suppress := b.cfg.Equivocator != nil && b.cfg.Equivocator.SuppressDecide
	if (own || !b.forwarded) && !suppress {
		b.forwarded = true
		// Announced without the certificate, which stays here to be pulled
		// (OnDecideReq): by the time a replica decides, most of the others
		// have too, from the same votes.
		b.multicast(&Decide{
			Context:  b.cfg.Context,
			Instance: b.cfg.Instance,
			Slot:     b.cfg.Slot,
			Value:    d.Value,
		})
	}
	if b.cfg.OnDecide != nil {
		b.cfg.OnDecide(d)
	}
}

// Reevaluate re-runs quorum checks after an external committee change
// (the exclusion consensus shrinks its view at runtime; thresholds drop).
func (b *Instance) Reevaluate() {
	if !b.started || b.decided {
		return
	}
	b.reevaluate(b.round)
}
