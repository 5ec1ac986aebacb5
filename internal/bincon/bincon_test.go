package bincon

import (
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

type binNode struct {
	inst *Instance
	// What reached the node, by kind: announcements (DECIDE without a
	// certificate), certificates (DECIDE with one) and requests for them.
	announcements, certs, reqs int
}

func (n *binNode) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *Est:
		n.inst.OnEst(from, m)
	case *Coord:
		n.inst.OnCoord(from, m)
	case *Aux:
		n.inst.OnAux(from, m)
	case *Decide:
		if m.Cert == nil {
			n.announcements++
		} else {
			n.certs++
		}
		n.inst.OnDecide(from, m)
	case *DecideReq:
		n.reqs++
		n.inst.OnDecideReq(from, m)
	}
}

func (n *binNode) OnTimer(payload any) {
	if p, ok := payload.(TimerPayload); ok {
		n.inst.HandleTimer(p)
	}
}

type binCluster struct {
	net     *simnet.Network
	nodes   map[types.ReplicaID]*binNode
	members []types.ReplicaID
	// mu orders the writes of the callbacks below, which every replica
	// shares: the recorder does not rely on the simulator running them
	// on one goroutine. Tests read after the run.
	mu      sync.Mutex
	decided map[types.ReplicaID]Decision
	pofs    map[types.ReplicaID][]accountability.PoF
}

func buildBin(t *testing.T, n int, eq func(types.ReplicaID) *Equivocator, seed int64) *binCluster {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	c := &binCluster{
		net:     simnet.New(simnet.Config{Latency: latency.Uniform(time.Millisecond, 8*time.Millisecond), Seed: seed}),
		nodes:   make(map[types.ReplicaID]*binNode),
		decided: make(map[types.ReplicaID]Decision),
		pofs:    make(map[types.ReplicaID][]accountability.PoF),
		members: members,
	}
	for i, id := range members {
		id := id
		signer := signers[i]
		c.net.AddNode(id, func(env simnet.Env) simnet.Handler {
			log := accountability.NewLog(signer, func(p accountability.PoF) {
				c.mu.Lock()
				c.pofs[id] = append(c.pofs[id], p)
				c.mu.Unlock()
			})
			var e *Equivocator
			if eq != nil {
				e = eq(id)
			}
			node := &binNode{inst: New(Config{
				Context:     accountability.CtxMain,
				Instance:    1,
				Slot:        3,
				Self:        id,
				View:        committee.NewView(members),
				Signer:      signer,
				Log:         log,
				Env:         env,
				Accountable: true,
				Equivocator: e,
				CoordTimeout: func(r types.Round) time.Duration {
					return 50 * time.Millisecond * time.Duration(r+1)
				},
				OnDecide: func(d Decision) {
					c.mu.Lock()
					c.decided[id] = d
					c.mu.Unlock()
				},
			})}
			c.nodes[id] = node
			return node
		})
	}
	return c
}

func (c *binCluster) propose(values map[types.ReplicaID]bool) {
	for _, id := range c.members {
		c.nodes[id].inst.Propose(values[id])
	}
}

// Rounds count from 0 and the even ones favour 1 (DBFT's first round): a
// unanimous 1 — a delivered proposal — decides in the first round, and a
// unanimous 0 — an absent one — in the second.
func TestBinConUnanimousTrue(t *testing.T) {
	c := buildBin(t, 7, nil, 1)
	values := map[types.ReplicaID]bool{}
	for _, id := range c.members {
		values[id] = true
	}
	c.propose(values)
	c.net.RunUntilQuiet(time.Minute)
	if len(c.decided) != 7 {
		t.Fatalf("decided at %d of 7", len(c.decided))
	}
	for id, d := range c.decided {
		if !d.Value {
			t.Fatalf("replica %v decided false on unanimous true", id)
		}
		if d.Round != 0 {
			t.Fatalf("replica %v decided at round %d; round 0 favours 1", id, d.Round)
		}
		if d.Cert == nil || d.Cert.SignerCount(nil) < types.Quorum(7) {
			t.Fatalf("replica %v decision cert invalid", id)
		}
	}
}

func TestBinConUnanimousFalseDecidesRoundOne(t *testing.T) {
	c := buildBin(t, 7, nil, 2)
	values := map[types.ReplicaID]bool{}
	c.propose(values) // all false
	c.net.RunUntilQuiet(time.Minute)
	for id, d := range c.decided {
		if d.Value {
			t.Fatalf("replica %v decided true on unanimous false", id)
		}
		if d.Round != 1 {
			t.Fatalf("replica %v decided at round %d; round 0 favours 1, round 1 favours 0", id, d.Round)
		}
	}
	if len(c.decided) != 7 {
		t.Fatalf("decided at %d of 7", len(c.decided))
	}
}

func TestBinConMixedInputsAgree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := buildBin(t, 7, nil, seed)
		values := map[types.ReplicaID]bool{1: true, 2: false, 3: true, 4: false, 5: true, 6: false, 7: true}
		c.propose(values)
		c.net.RunUntilQuiet(5 * time.Minute)
		if len(c.decided) != 7 {
			t.Fatalf("seed %d: decided at %d of 7", seed, len(c.decided))
		}
		var ref *Decision
		for id, d := range c.decided {
			d := d
			if ref == nil {
				ref = &d
				continue
			}
			if d.Value != ref.Value {
				t.Fatalf("seed %d: replica %v decided %v, others %v", seed, id, d.Value, ref.Value)
			}
		}
	}
}

// TestBinConValidityNoPhantomTrue: if every honest replica proposes
// false, true cannot be decided (BV-validity: a value needs t+1 backers
// to enter bin_values).
func TestBinConValidityNoPhantomTrue(t *testing.T) {
	c := buildBin(t, 10, nil, 3)
	values := map[types.ReplicaID]bool{}
	c.propose(values)
	c.net.RunUntilQuiet(time.Minute)
	for id, d := range c.decided {
		if d.Value {
			t.Fatalf("replica %v decided a value nobody proposed", id)
		}
	}
}

func TestBinConCrashMinorityStillDecides(t *testing.T) {
	c := buildBin(t, 7, nil, 4)
	c.net.SetUp(6, false)
	c.net.SetUp(7, false)
	values := map[types.ReplicaID]bool{}
	for _, id := range c.members[:5] {
		values[id] = true
	}
	for _, id := range c.members[:5] {
		c.nodes[id].inst.Propose(values[id])
	}
	c.net.RunUntilQuiet(5 * time.Minute)
	live := 0
	for _, id := range c.members[:5] {
		if d, ok := c.decided[id]; ok {
			live++
			if !d.Value {
				t.Fatalf("replica %v decided false", id)
			}
		}
	}
	if live != 5 {
		t.Fatalf("only %d of 5 live replicas decided", live)
	}
}

// TestBinConScriptedEquivocatorCreatesEvidence replays the binary
// consensus attack at the protocol level: the scripted coalition pushes
// value 1 to one partition and 0 to the other. Each side announces what it
// decided; to a replica that decided the other value the announcement is
// evidence, so it pulls the certificate, and the coalition's conflicting
// AUX signatures surface as PoFs.
func TestBinConScriptedEquivocatorCreatesEvidence(t *testing.T) {
	partition := map[types.ReplicaID]bool{5: true, 6: true} // "A" = {5,6}; B = {7,8,9}
	deceitful := map[types.ReplicaID]bool{1: true, 2: true, 3: true, 4: true}
	eq := func(id types.ReplicaID) *Equivocator {
		if !deceitful[id] {
			return nil
		}
		valueFor := func(to types.ReplicaID) bool {
			if deceitful[to] {
				return true
			}
			return partition[to]
		}
		return &Equivocator{
			EstFor:   func(to types.ReplicaID, _ types.Round) (bool, bool) { return valueFor(to), true },
			AuxFor:   func(to types.ReplicaID, _ types.Round) (bool, bool) { return valueFor(to), true },
			CoordFor: func(to types.ReplicaID, _ types.Round) (bool, bool) { return valueFor(to), true },
		}
	}
	c := buildBin(t, 9, eq, 5)
	// The honest partitions hear each other a second late, the coalition
	// hears and reaches everyone: each side decides alone, with the
	// coalition's votes, before the other side's announcement arrives.
	c.net.DelayRule = simnet.PartitionDelay(func(id types.ReplicaID) int {
		switch {
		case deceitful[id]:
			return -1
		case partition[id]:
			return 0
		}
		return 1
	}, time.Second)
	values := map[types.ReplicaID]bool{5: true, 6: true} // honest A proposes 1, B proposes 0
	c.propose(values)
	c.net.RunUntilQuiet(5 * time.Minute)

	forked := false
	for _, id := range c.members[4:] {
		d, ok := c.decided[id]
		if !ok {
			t.Fatalf("honest replica %v did not decide", id)
		}
		if d.Value != c.decided[5].Value {
			forked = true
		}
	}
	if !forked {
		t.Fatal("the attack did not fork the honest replicas: nothing to pull as evidence")
	}
	// Every honest replica decided before the other side's announcement
	// could reach it, so every certificate it received was pulled as
	// evidence, and holds the coalition's other vote.
	for _, id := range c.members[4:] {
		if c.nodes[id].certs == 0 {
			t.Errorf("honest replica %v pulled no certificate for the other value", id)
		}
		if len(c.pofs[id]) == 0 {
			t.Errorf("equivocation left no evidence at honest replica %v", id)
		}
		for _, p := range c.pofs[id] {
			if !deceitful[p.Culprit] {
				t.Fatalf("honest replica %v accused honest %v", id, p.Culprit)
			}
		}
	}
}

// freshInstance is a slot state machine that has seen nothing, on its own
// node of a network that records what it sends to the committee members.
func freshInstance(t *testing.T, self types.ReplicaID, members []types.ReplicaID, signer *crypto.Signer, onDecide func(Decision)) (*Instance, *accountability.Log, *simnet.Network, map[types.ReplicaID]*binNode) {
	t.Helper()
	net := simnet.New(simnet.Config{Latency: latency.Fixed(time.Millisecond), Seed: 6})
	log := accountability.NewLog(signer, nil)
	var fresh *Instance
	net.AddNode(self, func(env simnet.Env) simnet.Handler {
		fresh = New(Config{
			Context: accountability.CtxMain, Instance: 1, Slot: 3, Self: self,
			View:   committee.NewView(members),
			Signer: signer, Log: log, Env: env, Accountable: true,
			OnDecide: onDecide,
		})
		return &binNode{inst: fresh}
	})
	// The peers only count what reaches them.
	peers := make(map[types.ReplicaID]*binNode)
	for _, id := range members {
		if id == self {
			continue
		}
		id := id
		net.AddNode(id, func(env simnet.Env) simnet.Handler {
			peers[id] = &binNode{inst: New(Config{
				Context: accountability.CtxMain, Instance: 1, Slot: 3, Self: id,
				View: committee.NewView(members), Signer: signer, Log: accountability.NewLog(signer, nil), Env: env, Accountable: true,
			})}
			return peers[id]
		})
	}
	return fresh, log, net, peers
}

// decidedCert runs an honest n=4 slot and returns the committee, its
// signers and replica 1's decision.
func decidedCert(t *testing.T) ([]types.ReplicaID, []*crypto.Signer, Decision) {
	t.Helper()
	c := buildBin(t, 4, nil, 6)
	c.propose(map[types.ReplicaID]bool{1: true, 2: true, 3: true, 4: true})
	c.net.RunUntilQuiet(time.Minute)
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	return c.members, signers, c.decided[1]
}

func TestBinConDecidePropagationAdoptsCert(t *testing.T) {
	members, signers, d := decidedCert(t)
	// A fresh instance adopting the decision via OnDecide must accept a
	// valid certificate and reject a truncated one.
	fresh, _, _, _ := freshInstance(t, 4, members, signers[3], nil)
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: d.Cert})
	if dec, ok := fresh.Decided(); !ok || dec.Value != d.Value {
		t.Fatal("valid decision certificate rejected")
	}
	// Truncated cert must be rejected by another fresh instance.
	fresh2, _, _, _ := freshInstance(t, 4, members, signers[3], nil)
	bad := &accountability.Certificate{Stmt: d.Cert.Stmt, Sigs: d.Cert.Sigs[:1]}
	fresh2.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: bad})
	if _, ok := fresh2.Decided(); ok {
		t.Fatal("truncated certificate accepted")
	}
}

// TestBinConForgedSignatureInPulledCertificate: one bad signature among
// genuine ones rejects the certificate, and none of it enters the log.
func TestBinConForgedSignatureInPulledCertificate(t *testing.T) {
	members, signers, d := decidedCert(t)
	fresh, log, _, _ := freshInstance(t, 4, members, signers[3], nil)
	forged := &accountability.Certificate{Stmt: d.Cert.Stmt, Sigs: append([]accountability.Signed(nil), d.Cert.Sigs...)}
	last := len(forged.Sigs) - 1
	forged.Sigs[last].Sig = append(crypto.Signature(nil), forged.Sigs[last].Sig...)
	forged.Sigs[last].Sig[0] ^= 0xff
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: forged})
	if _, ok := fresh.Decided(); ok {
		t.Fatal("certificate with a forged signature adopted")
	}
	if got := log.Statements(); got != 0 {
		t.Fatalf("%d statements of a rejected certificate entered the log", got)
	}
	// The genuine certificate is still welcome afterwards.
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: d.Cert})
	if _, ok := fresh.Decided(); !ok {
		t.Fatal("genuine certificate rejected after a forged one")
	}
	if got := log.Statements(); got != len(d.Cert.Sigs) {
		t.Fatalf("log holds %d statements of the adopted certificate, want %d", got, len(d.Cert.Sigs))
	}
}

// TestLateVotesHoldOneEntryPerKey: a peer that sends AUX votes for ten
// thousand rounds after the slot decided in round 0 leaves one vote held —
// its round-0 AUX, the one key of the instance it used — and every later
// round is checked and recorded as before the decision, so inventing
// rounds does not grow the holding area.
func TestLateVotesHoldOneEntryPerKey(t *testing.T) {
	const n, self, peer, rounds = 7, 7, 6, 10_000
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	fresh, log, _, _ := freshInstance(t, self, members, signers[self-1], nil)
	stmt := accountability.Statement{Context: accountability.CtxMain, Kind: accountability.KindAux, Instance: 1, Slot: 3, Value: accountability.BoolDigest(true)}
	var votes []accountability.Signed
	for _, s := range signers[:types.Quorum(n)] {
		vote, err := accountability.SignStatement(s, stmt)
		if err != nil {
			t.Fatal(err)
		}
		votes = append(votes, vote)
	}
	cert, err := accountability.NewCertificate(stmt, votes)
	if err != nil {
		t.Fatal(err)
	}
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: true, Cert: cert})
	if d, ok := fresh.Decided(); !ok || d.Round != 0 {
		t.Fatalf("decision = %+v, %v; want round 0", d, ok)
	}
	checks := log.SigChecks
	for r := 0; r < rounds; r++ {
		late := stmt
		late.Round = types.Round(r)
		vote, err := accountability.SignStatement(signers[peer-1], late)
		if err != nil {
			t.Fatal(err)
		}
		fresh.OnAux(peer, &Aux{Stmt: vote})
	}
	if log.Held() != 1 || log.SigDeferred != 1 {
		t.Errorf("%d votes held (%d in all), want 1: the deciding round's", log.Held(), log.SigDeferred)
	}
	if got := log.SigChecks - checks; got != rounds-1 {
		t.Errorf("%d checks for the %d rounds past the decision, want one each", got, rounds-1)
	}
}

// TestBinConAnnouncementNeverDecides: a DECIDE without a certificate
// decides nothing however many replicas send it; it is answered with one
// DecideReq per announcer, repeats and strangers included.
func TestBinConAnnouncementNeverDecides(t *testing.T) {
	members, signers, d := decidedCert(t)
	adopted := 0
	fresh, log, net, peers := freshInstance(t, 4, members, signers[3], func(Decision) { adopted++ })
	announce := &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value}
	for round := 0; round < 3; round++ {
		for _, from := range []types.ReplicaID{1, 2, 77} { // 77 is no member
			fresh.OnDecide(from, announce)
		}
	}
	net.RunUntilQuiet(time.Minute)
	if _, ok := fresh.Decided(); ok || adopted != 0 {
		t.Fatal("an announcement without a certificate decided the slot")
	}
	for _, id := range []types.ReplicaID{1, 2} {
		if got := peers[id].reqs; got != 1 {
			t.Errorf("announcer %v was asked for its certificate %d times, want once", id, got)
		}
	}
	if log.CertPulls != 2 {
		t.Errorf("the log counts %d certificate pulls, want the 2 requests sent", log.CertPulls)
	}
	// The peers here have decided nothing, so nothing came back; the
	// certificate, when it does, is what decides.
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: d.Cert})
	if _, ok := fresh.Decided(); !ok || adopted != 1 {
		t.Fatal("the pulled certificate did not decide the slot")
	}
	// Decided: the same value announced again is not worth a pull (the
	// other value is: TestBinConScriptedEquivocatorCreatesEvidence).
	fresh.OnDecide(3, announce)
	net.RunUntilQuiet(time.Minute)
	if got := peers[3].reqs; got != 0 {
		t.Fatalf("a decided replica pulled the value it already holds (%d requests)", got)
	}
}

// TestBinConCutOffReplicaAdoptsThroughPull: a replica that receives no AUX
// vote cannot decide by itself. The others decide and announce; it pulls
// one certificate, checks it, adopts it and announces in turn.
func TestBinConCutOffReplicaAdoptsThroughPull(t *testing.T) {
	const cutOff = types.ReplicaID(4)
	c := buildBin(t, 4, nil, 8)
	c.net.DeliverRule = func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		if _, aux := msg.(*Aux); aux && to == cutOff && from != cutOff {
			return nil
		}
		return msg
	}
	c.propose(map[types.ReplicaID]bool{1: true, 2: true, 3: true, 4: true})
	c.net.RunUntilQuiet(time.Minute)
	d, ok := c.decided[cutOff]
	if !ok {
		t.Fatal("the cut-off replica never decided")
	}
	if d.Value != c.decided[1].Value || d.Cert == nil || d.Cert.SignerCount(nil) < types.Quorum(4) {
		t.Fatalf("the cut-off replica adopted %+v, others decided %v", d, c.decided[1].Value)
	}
	if got := c.nodes[cutOff].certs; got == 0 || got > 3 {
		t.Errorf("the cut-off replica received %d certificates, want 1 to 3: one per announcer it asked", got)
	}
	for _, id := range c.members[:3] {
		// One from each replica, itself and the cut-off one announcing on
		// included.
		if got := c.nodes[id].announcements; got != 4 {
			t.Errorf("replica %v received %d announcements, want 4", id, got)
		}
	}
}

func TestBinConMeters(t *testing.T) {
	if (&Est{}).SimSigOps() != 0 {
		t.Fatal("EST should be unsigned")
	}
	if (&Aux{}).SimSigOps() != 1 || (&Coord{}).SimSigOps() != 1 {
		t.Fatal("AUX/COORD carry one signature")
	}
	d := &Decide{}
	if d.SimSigOps() != 0 || d.SimBytes() != (&DecideReq{}).SimBytes() {
		t.Fatal("an announcement costs a header and no signature check")
	}
}
