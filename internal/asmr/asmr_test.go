package asmr

import (
	"errors"
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

// audit hands d to the one block audit the way a receiver does: as block 1,
// attempt 0 — the instance decideInstance decides.
func audit(log *accountability.Log, d *sbc.Decision, n int) (accountability.Verified, error) {
	return auditBlock(log, BlockRecord{K: 1, Decision: d}, n)
}

// absorb is what a replica does with a received block: audit it and, if it
// passes, record what the audit verified.
func absorb(log *accountability.Log, d *sbc.Decision, n int) error {
	verified, err := audit(log, d, n)
	log.Record(verified)
	return err
}

// warmLog returns a log that already holds every vote of d, as the log of
// a replica that took part in the instance does.
func warmLog(t *testing.T, signer *crypto.Signer, d *sbc.Decision, n int) *accountability.Log {
	t.Helper()
	log := accountability.NewLog(signer, nil)
	if err := absorb(log, d, n); err != nil {
		t.Fatalf("real decision rejected: %v", err)
	}
	return log
}

// TestVerifyDecisionAcceptsRealDecision: a genuine decision passes the
// audit with an empty log at one scheme check per vote, and again with a
// log that holds its votes at none.
func TestVerifyDecisionAcceptsRealDecision(t *testing.T) {
	d, signers := decideInstance(t, 7)
	log := warmLog(t, signers[0], d, 7)
	votes := uint64(log.Statements())
	if votes == 0 || log.SigChecks != votes || log.SigKnown != 0 {
		t.Fatalf("cold audit: %d checks and %d known for %d votes", log.SigChecks, log.SigKnown, votes)
	}
	if err := absorb(log, d, 7); err != nil {
		t.Fatalf("real decision rejected by the log that holds it: %v", err)
	}
	if log.SigChecks != votes || log.SigKnown != votes || uint64(log.Statements()) != votes {
		t.Fatalf("warm audit: checks %d -> %d, known 0 -> %d, statements %d -> %d; want +0, +%d, +0",
			votes, log.SigChecks, log.SigKnown, votes, log.Statements(), votes)
	}
}

// copyDecision returns d with fresh maps, for a test to edit.
func copyDecision(d *sbc.Decision) *sbc.Decision {
	cp := &sbc.Decision{
		Instance:   d.Instance,
		Bits:       map[types.ReplicaID]bool{},
		Proposals:  map[types.ReplicaID]sbc.ProposalInfo{},
		BinCerts:   map[types.ReplicaID]*accountability.Certificate{},
		ReadyCerts: map[types.ReplicaID]*accountability.Certificate{},
		InitStmts:  map[types.ReplicaID]*accountability.Signed{},
	}
	for id, bit := range d.Bits {
		cp.Bits[id] = bit
	}
	for id, p := range d.Proposals {
		cp.Proposals[id] = p
	}
	for id, c := range d.BinCerts {
		cp.BinCerts[id] = c
	}
	for id, c := range d.ReadyCerts {
		cp.ReadyCerts[id] = c
	}
	for id, s := range d.InitStmts {
		cp.InitStmts[id] = s
	}
	return cp
}

// resign returns c's votes cast again over stmt by the same signers: what a
// coalition holding those keys can produce, and the way to move a
// certificate to another statement with every signature valid.
func resign(t *testing.T, signers []*crypto.Signer, c *accountability.Certificate, stmt accountability.Statement) *accountability.Certificate {
	t.Helper()
	sigs := make([]accountability.Signed, len(c.Sigs))
	for i, old := range c.Sigs {
		var err error
		if sigs[i], err = accountability.SignStatement(signers[old.Signer-1], stmt); err != nil {
			t.Fatal(err)
		}
	}
	return &accountability.Certificate{Stmt: stmt, Sigs: sigs}
}

// withVotes returns c with its votes edited.
func withVotes(c *accountability.Certificate, edit func([]accountability.Signed) []accountability.Signed) *accountability.Certificate {
	return &accountability.Certificate{Stmt: c.Stmt, Sigs: edit(append([]accountability.Signed(nil), c.Sigs...))}
}

// TestVerifyDecisionRejectsTampering is the audit's table: every way a
// block can differ from a genuine decision of the instance it arrives as.
// Each is refused by a replica with an empty log and by one whose log holds
// every vote of the genuine block, nothing of it can be recorded, and
// neither log moves.
func TestVerifyDecisionRejectsTampering(t *testing.T) {
	const n = 7
	d, signers := decideInstance(t, n, types.ReplicaID(n))
	one := d.OrderedProposals()[0].Broadcaster // a slot decided 1
	const zero = types.ReplicaID(n)            // the idle slot, decided 0
	if d.Bits[zero] || d.ReadyCerts[one] == nil {
		t.Fatalf("slot %v must be decided 0 and slot %v carry a ready certificate (bits %v)", zero, one, d.Bits)
	}
	readyMin := 2*types.MaxClassicFaults(n) + 1
	edited := func(edit func(*sbc.Decision)) BlockRecord {
		cp := copyDecision(d)
		edit(cp)
		return BlockRecord{K: 1, Decision: cp}
	}
	forge := func(sigs []accountability.Signed) []accountability.Signed {
		sigs[1].Sig = append(crypto.Signature(nil), sigs[1].Sig...)
		sigs[1].Sig[0] ^= 0xff
		return sigs
	}
	cases := map[string]struct {
		block BlockRecord
		want  error
	}{
		"missing decision": {BlockRecord{K: 1}, ErrNoDecision},
		"flipped bit": {edited(func(d *sbc.Decision) { d.Bits[one] = false }), // cert says 1, bits say 0
			ErrWrongContext},
		"tampered payload": {edited(func(d *sbc.Decision) {
			p := d.Proposals[one]
			p.Payload = []byte("evil")
			d.Proposals[one] = p
		}), ErrBadPayload},
		"stripped certificate": {edited(func(d *sbc.Decision) { d.BinCerts = nil }), ErrMissingCert},

		// What the block is held against: the record it arrived in, and a
		// full committee.
		"empty decision": {BlockRecord{K: 1, Decision: &sbc.Decision{Instance: d.Instance}}, ErrPartial},
		"one slot": {BlockRecord{K: 1, Decision: &sbc.Decision{
			Instance: d.Instance,
			Bits:     map[types.ReplicaID]bool{zero: false},
			BinCerts: map[types.ReplicaID]*accountability.Certificate{zero: d.BinCerts[zero]},
		}}, ErrPartial},
		"one slot cut": {edited(func(d *sbc.Decision) {
			delete(d.Bits, one)
			delete(d.Proposals, one)
			delete(d.BinCerts, one)
			delete(d.ReadyCerts, one)
			delete(d.InitStmts, one)
		}), ErrPartial},
		"under another K":       {BlockRecord{K: 7, Decision: d}, ErrWrongContext},
		"under another attempt": {BlockRecord{K: 1, Attempt: 1, Decision: d}, ErrWrongContext},
		"payload without a slot": {edited(func(d *sbc.Decision) {
			d.Proposals[zero] = sbc.ProposalInfo{Broadcaster: zero, Payload: []byte("extra"), Digest: types.Hash([]byte("extra"))}
		}), ErrBadPayload},
		"payload under another broadcaster": {edited(func(d *sbc.Decision) {
			p := d.Proposals[one]
			p.Broadcaster = zero
			d.Proposals[one] = p
		}), ErrBadPayload},

		// Statements compared whole: the same votes cast, validly, in
		// another context.
		"decision certificate of another context": {edited(func(d *sbc.Decision) {
			stmt := d.BinCerts[zero].Stmt
			stmt.Context = accountability.CtxExclusion
			d.BinCerts[zero] = resign(t, signers, d.BinCerts[zero], stmt)
		}), ErrWrongContext},
		"ready certificate of another context": {edited(func(d *sbc.Decision) {
			stmt := d.ReadyCerts[one].Stmt
			stmt.Context = accountability.CtxInclusion
			d.ReadyCerts[one] = resign(t, signers, d.ReadyCerts[one], stmt)
		}), ErrWrongContext},
		"ready certificate of another round": {edited(func(d *sbc.Decision) {
			stmt := d.ReadyCerts[one].Stmt
			stmt.Round = 1
			d.ReadyCerts[one] = resign(t, signers, d.ReadyCerts[one], stmt)
		}), ErrWrongContext},

		// One certificate rule: forged, short and padded.
		"forged vote in a decision certificate": {edited(func(d *sbc.Decision) {
			d.BinCerts[zero] = withVotes(d.BinCerts[zero], forge)
		}), accountability.ErrCertSignature},
		"forged vote in a ready certificate": {edited(func(d *sbc.Decision) {
			d.ReadyCerts[one] = withVotes(d.ReadyCerts[one], forge)
		}), accountability.ErrCertSignature},
		"decision certificate below quorum": {edited(func(d *sbc.Decision) {
			d.BinCerts[zero] = withVotes(d.BinCerts[zero], func(sigs []accountability.Signed) []accountability.Signed {
				return sigs[:types.Quorum(n)-1]
			})
		}), accountability.ErrCertQuorum},
		"ready certificate below 2t+1": {edited(func(d *sbc.Decision) {
			d.ReadyCerts[one] = withVotes(d.ReadyCerts[one], func(sigs []accountability.Signed) []accountability.Signed {
				return sigs[:readyMin-1]
			})
		}), accountability.ErrCertQuorum},
		"ready certificate padded with a duplicate signer": {edited(func(d *sbc.Decision) {
			d.ReadyCerts[one] = withVotes(d.ReadyCerts[one], func(sigs []accountability.Signed) []accountability.Signed {
				return append(sigs[:readyMin], sigs[0])
			})
		}), accountability.ErrCertDuplicate},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			for temp, log := range map[string]*accountability.Log{
				"cold": accountability.NewLog(signers[0], nil),
				"warm": warmLog(t, signers[0], d, n),
			} {
				held := log.Statements()
				verified, err := auditBlock(log, tc.block, n)
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s log: err = %v, want %v", temp, err, tc.want)
				}
				log.Record(verified)
				if log.Statements() != held || log.ProvenCount() != 0 {
					t.Errorf("%s log: %d -> %d statements, culprits %v: a refused block left a mark",
						temp, held, log.Statements(), log.ProvenCulprits())
				}
			}
		})
	}
}

// TestReadyCertificateCountsTwoTPlusOne: the audit asks a ready certificate
// for 2t+1 signers and a decision certificate for ⌈2n/3⌉. At n=5 those are
// 3 and 4: three votes make the one and not the other.
func TestReadyCertificateCountsTwoTPlusOne(t *testing.T) {
	const n = 5
	d, signers := decideInstance(t, n)
	slot := d.OrderedProposals()[0].Broadcaster
	three := func(sigs []accountability.Signed) []accountability.Signed { return sigs[:3] }

	ready := copyDecision(d)
	ready.ReadyCerts[slot] = withVotes(d.ReadyCerts[slot], three)
	if _, err := audit(accountability.NewLog(signers[0], nil), ready, n); err != nil {
		t.Errorf("ready certificate of 2t+1 = 3 signers refused: %v", err)
	}
	decide := copyDecision(d)
	decide.BinCerts[slot] = withVotes(d.BinCerts[slot], three)
	if _, err := audit(accountability.NewLog(signers[0], nil), decide, n); err == nil {
		t.Error("decision certificate of 3 signers accepted at n=5")
	}
}

func TestAbsorbDecisionFeedsLog(t *testing.T) {
	d, signers := decideInstance(t, 7)
	log := warmLog(t, signers[0], d, 7)
	if log.Statements() == 0 {
		t.Fatal("absorb recorded nothing")
	}
	// Absorbing consistent evidence must not accuse anyone.
	if log.CulpritCount() != 0 {
		t.Fatalf("honest decision produced %d culprits", log.CulpritCount())
	}
}

// TestAbsorbDecisionVerifiesInitStatements: the INIT statements of a
// received block are no part of the audit's verdict. One that is re-valued,
// moved to another slot or signed by someone else is dropped without
// touching the rest of the block, and accuses nobody — not even in a log
// that holds the genuine statement, where an unverified record would
// complete a "proof" against the honest broadcaster.
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
		cp := copyDecision(d)
		forged := genuine
		edit(&forged)
		cp.InitStmts[honest] = &forged
		return cp
	}
	whole := warmLog(t, signers[0], d, 7)
	for name, bad := range map[string]*sbc.Decision{
		"re-valued":      tamper(func(s *accountability.Signed) { s.Stmt.Value[0] ^= 0xa5 }),
		"other kind":     tamper(func(s *accountability.Signed) { s.Stmt.Kind = accountability.KindEcho }),
		"other instance": tamper(func(s *accountability.Signed) { s.Stmt.Instance++ }),
		"other context":  tamper(func(s *accountability.Signed) { s.Stmt.Context = accountability.CtxInclusion }),
		"other signer":   tamper(func(s *accountability.Signed) { s.Signer = honest%7 + 1 }),
		"bad signature": tamper(func(s *accountability.Signed) {
			s.Sig = append(crypto.Signature(nil), s.Sig...)
			s.Sig[0] ^= 0xff
		}),
	} {
		log := accountability.NewLog(signers[0], nil)
		if !log.RecordVerify(genuine) {
			t.Fatal("genuine INIT statement refused")
		}
		if err := absorb(log, bad, 7); err != nil {
			t.Fatalf("%s: the block itself must pass its audit: %v", name, err)
		}
		if log.ProvenCount() != 0 {
			t.Errorf("%s INIT statement accused %v", name, log.ProvenCulprits())
		}
		fresh := accountability.NewLog(signers[0], nil)
		if err := absorb(fresh, bad, 7); err != nil {
			t.Fatalf("%s: the block itself must pass its audit: %v", name, err)
		}
		if got, want := fresh.Statements(), whole.Statements()-1; got != want {
			t.Errorf("%s: %d statements absorbed, want %d: everything but the bad statement", name, got, want)
		}
	}
}

// TestAbsorbDecisionRecordsOnlyAuditedCertificates: the audit checks a
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
	bad := copyDecision(d)
	bad.ReadyCerts[idle] = &accountability.Certificate{Stmt: stmt, Sigs: []accountability.Signed{planted}}
	log := accountability.NewLog(signers[0], nil)
	if err := absorb(log, bad, 7); err != nil {
		t.Fatalf("the block itself must pass its audit: %v", err)
	}
	whole := warmLog(t, signers[0], d, 7)
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
