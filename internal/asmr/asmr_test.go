package asmr

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

func TestWireInstancePacking(t *testing.T) {
	for _, c := range []struct {
		k       uint64
		attempt uint32
	}{{1, 0}, {1, 1}, {77, 1023}, {1 << 40, 5}} {
		wi := WireInstance(c.k, c.attempt)
		k, a := SplitInstance(wi)
		if k != c.k || a != c.attempt {
			t.Fatalf("pack(%d,%d) → (%d,%d)", c.k, c.attempt, k, a)
		}
	}
}

// decideInstance runs a small SBC committee to produce a real certified
// decision for verification tests. The idle members propose nothing: their
// slots are decided 0.
func decideInstance(t *testing.T, n int, idle ...types.ReplicaID) (*sbc.Decision, []*crypto.Signer) {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, 21)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	net := simnet.New(simnet.Config{Latency: latency.Uniform(time.Millisecond, 8*time.Millisecond), Seed: 21})
	// OnDecide runs inside the simulator's parallel windows.
	var mu sync.Mutex
	decisions := map[types.ReplicaID]*sbc.Decision{}
	instances := map[types.ReplicaID]*sbc.Instance{}
	for i, id := range members {
		id := id
		signer := signers[i]
		net.AddNode(id, func(env simnet.Env) simnet.Handler {
			log := accountability.NewLog(signer, nil)
			inst := sbc.New(sbc.Config{
				Context:     accountability.CtxMain,
				Instance:    WireInstance(1, 0),
				Self:        id,
				View:        committee.NewView(members),
				Signer:      signer,
				Log:         log,
				Env:         env,
				Accountable: true,
				OnDecide: func(d *sbc.Decision) {
					mu.Lock()
					decisions[id] = d
					mu.Unlock()
				},
			})
			instances[id] = inst
			return sbcHandler{inst}
		})
	}
	for _, id := range members {
		if !slices.Contains(idle, id) {
			instances[id].Propose([]byte("payload-"+id.String()), 0, 0)
		}
	}
	net.RunUntilQuiet(time.Minute)
	d := decisions[members[0]]
	if d == nil {
		t.Fatal("no decision produced")
	}
	return d, signers
}

type sbcHandler struct{ inst *sbc.Instance }

func (h sbcHandler) OnMessage(from types.ReplicaID, msg simnet.Message) {
	h.inst.OnMessage(from, msg)
}

func (h sbcHandler) OnTimer(payload any) {
	if p, ok := payload.(bincon.TimerPayload); ok {
		h.inst.OnTimer(p)
	}
}

func TestVerifyDecisionAcceptsRealDecision(t *testing.T) {
	d, signers := decideInstance(t, 7)
	if err := VerifyDecision(signers[0], d, 7); err != nil {
		t.Fatalf("real decision rejected: %v", err)
	}
}

func TestVerifyDecisionRejectsTampering(t *testing.T) {
	d, signers := decideInstance(t, 7)

	t.Run("missing decision", func(t *testing.T) {
		if err := VerifyDecision(signers[0], nil, 7); err == nil {
			t.Fatal("nil decision accepted")
		}
	})

	t.Run("flipped bit", func(t *testing.T) {
		tampered := *d
		tampered.Bits = map[types.ReplicaID]bool{}
		for id, b := range d.Bits {
			tampered.Bits[id] = b
		}
		for id, b := range tampered.Bits {
			if b {
				tampered.Bits[id] = false // cert says 1, bits say 0
				break
			}
		}
		if err := VerifyDecision(signers[0], &tampered, 7); err == nil {
			t.Fatal("flipped bit accepted")
		}
	})

	t.Run("tampered payload", func(t *testing.T) {
		tampered := *d
		tampered.Proposals = map[types.ReplicaID]sbc.ProposalInfo{}
		for id, p := range d.Proposals {
			tampered.Proposals[id] = p
		}
		for id, p := range tampered.Proposals {
			p.Payload = []byte("evil")
			tampered.Proposals[id] = p
			break
		}
		if err := VerifyDecision(signers[0], &tampered, 7); err == nil {
			t.Fatal("tampered payload accepted")
		}
	})

	t.Run("stripped certificate", func(t *testing.T) {
		tampered := *d
		tampered.BinCerts = map[types.ReplicaID]*accountability.Certificate{}
		if err := VerifyDecision(signers[0], &tampered, 7); err == nil {
			t.Fatal("certificate-less decision accepted")
		}
	})
}

func TestAbsorbDecisionFeedsLog(t *testing.T) {
	d, signers := decideInstance(t, 7)
	log := accountability.NewLog(signers[0], nil)
	AbsorbDecision(log, d)
	if log.Statements() == 0 {
		t.Fatal("absorb recorded nothing")
	}
	// Absorbing consistent evidence must not accuse anyone.
	if log.CulpritCount() != 0 {
		t.Fatalf("honest decision produced %d culprits", log.CulpritCount())
	}
}

// TestAbsorbDecisionVerifiesInitStatements: the INIT statements of a
// received block are outside what VerifyDecision audits, so absorbing them
// is where they are checked. One that is re-valued, moved to another slot
// or signed by someone else is dropped without touching the rest of the
// block, and accuses nobody — not even in a log that holds the genuine
// statement, where an unverified record would complete a "proof" against
// the honest broadcaster.
func TestAbsorbDecisionVerifiesInitStatements(t *testing.T) {
	d, signers := decideInstance(t, 7)
	var honest types.ReplicaID
	for _, p := range d.OrderedProposals() {
		if d.InitStmts[p.Broadcaster] != nil {
			honest = p.Broadcaster
			break
		}
	}
	if honest == 0 {
		t.Fatal("decision carries no INIT statement")
	}
	genuine := *d.InitStmts[honest]
	tamper := func(edit func(*accountability.Signed)) *sbc.Decision {
		cp := *d
		cp.InitStmts = map[types.ReplicaID]*accountability.Signed{}
		for id, s := range d.InitStmts {
			cp.InitStmts[id] = s
		}
		forged := genuine
		edit(&forged)
		cp.InitStmts[honest] = &forged
		return &cp
	}
	for name, bad := range map[string]*sbc.Decision{
		"re-valued":      tamper(func(s *accountability.Signed) { s.Stmt.Value[0] ^= 0xa5 }),
		"other kind":     tamper(func(s *accountability.Signed) { s.Stmt.Kind = accountability.KindEcho }),
		"other instance": tamper(func(s *accountability.Signed) { s.Stmt.Instance++ }),
		"other signer":   tamper(func(s *accountability.Signed) { s.Signer = honest%7 + 1 }),
		"bad signature": tamper(func(s *accountability.Signed) {
			s.Sig = append(crypto.Signature(nil), s.Sig...)
			s.Sig[0] ^= 0xff
		}),
	} {
		if err := VerifyDecision(signers[0], bad, 7); err != nil {
			t.Fatalf("%s: the block itself must pass its audit: %v", name, err)
		}
		log := accountability.NewLog(signers[0], nil)
		if !log.RecordVerify(genuine) {
			t.Fatal("genuine INIT statement refused")
		}
		AbsorbDecision(log, bad)
		if log.ProvenCount() != 0 {
			t.Errorf("%s INIT statement accused %v", name, log.ProvenCulprits())
		}
		fresh := accountability.NewLog(signers[0], nil)
		AbsorbDecision(fresh, bad)
		whole := accountability.NewLog(signers[0], nil)
		AbsorbDecision(whole, d)
		if got, want := fresh.Statements(), whole.Statements()-1; got != want {
			t.Errorf("%s: %d statements absorbed, want %d: everything but the bad statement", name, got, want)
		}
	}
}

// TestAbsorbDecisionRecordsOnlyAuditedCertificates: VerifyDecision checks a
// ready certificate only where a slot was decided 1 — there is a proposal
// digest to hold it against — and an honest decision carries none on a
// slot decided 0. One a peer attaches there to a genuinely certified block
// passes the audit unread, so it must stay out of the log: the log is what
// the replica believes, and a READY planted under an honest signer's name
// would be accepted later without a signature check, or complete a "proof"
// against that signer.
func TestAbsorbDecisionRecordsOnlyAuditedCertificates(t *testing.T) {
	const idle, victim = types.ReplicaID(7), types.ReplicaID(2)
	d, signers := decideInstance(t, 7, idle)
	if bit, ok := d.Bits[idle]; !ok || bit {
		t.Fatalf("slot %v must be decided 0 (bits %v)", idle, d.Bits)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindReady,
		Instance: d.Instance,
		Slot:     uint32(idle),
		Value:    types.Hash([]byte("never broadcast")),
	}
	planted := accountability.Signed{Stmt: stmt, Signer: victim, Sig: crypto.Signature("bytes of the peer's choosing")}
	bad := *d
	bad.ReadyCerts = map[types.ReplicaID]*accountability.Certificate{
		idle: {Stmt: stmt, Sigs: []accountability.Signed{planted}},
	}
	for id, c := range d.ReadyCerts {
		bad.ReadyCerts[id] = c
	}
	if err := VerifyDecision(signers[0], &bad, 7); err != nil {
		t.Fatalf("the block itself must pass its audit: %v", err)
	}
	log := accountability.NewLog(signers[0], nil)
	AbsorbDecision(log, &bad)
	whole := accountability.NewLog(signers[0], nil)
	AbsorbDecision(whole, d)
	if got, want := log.Statements(), whole.Statements(); got != want {
		t.Fatalf("%d statements absorbed, want %d: the planted certificate adds none", got, want)
	}
	// Not held: offered again, the statement goes to the scheme and fails.
	known := log.SigKnown
	if log.RecordVerify(planted) || log.SigKnown != known {
		t.Fatal("the planted statement is accepted from the log")
	}
	// And the victim's real READY in that slot meets no conflicting record.
	stmt.Value = types.Hash([]byte("what the victim did send"))
	genuine, err := accountability.SignStatement(signers[victim-1], stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !log.RecordVerify(genuine) || log.ProvenCount() != 0 {
		t.Fatalf("genuine READY refused or its signer accused: %v", log.ProvenCulprits())
	}
}

func TestReplicaAccessors(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{Latency: latency.Fixed(time.Millisecond), Seed: 31})
	var r *Replica
	net.AddNode(1, func(env simnet.Env) simnet.Handler {
		r = NewReplica(Config{
			Self:             1,
			Signer:           signers[0],
			Env:              env,
			InitialCommittee: []types.ReplicaID{1, 2, 3, 4},
			Accountable:      true,
			Recover:          true,
		})
		return r
	})
	if !r.IsMember() || r.Epoch() != 0 || r.CommittedCount() != 0 {
		t.Fatal("fresh replica state wrong")
	}
	if _, ok := r.Committed(1); ok {
		t.Fatal("phantom commit")
	}
	if r.Final(1) || r.Disagreed(1) {
		t.Fatal("phantom finality")
	}
	if r.View().Size() != 4 {
		t.Fatal("view size")
	}
	// A pool node is not a member and must refuse to start.
	var pool *Replica
	net.AddNode(9, func(env simnet.Env) simnet.Handler {
		pool = NewReplica(Config{
			Self:             9,
			Signer:           signers[0],
			Env:              env,
			InitialCommittee: []types.ReplicaID{1, 2, 3, 4},
			Accountable:      true,
		})
		return pool
	})
	pool.Start()
	if pool.IsMember() {
		t.Fatal("pool node claims membership")
	}
}
