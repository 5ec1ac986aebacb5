package sbc

import (
	"bytes"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// TestSBCValidateFiltersProposals: proposals rejected by the validity
// predicate never enter a decision (SBC-Validity).
func TestSBCValidateFiltersProposals(t *testing.T) {
	n := 7
	c := buildCluster(t, n, true, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 77)
	// Install a validator on every node that rejects replica 3's payload.
	for _, id := range c.members {
		c.nodes[id].inst.cfg.Validate = func(b types.ReplicaID, payload []byte) bool {
			return !bytes.Contains(payload, []byte("from-3"))
		}
	}
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	for _, id := range c.members {
		d := c.decided[id]
		if d == nil {
			t.Fatalf("replica %v undecided", id)
		}
		if d.Bits[3] {
			t.Fatalf("replica %v included the invalid proposal", id)
		}
	}
}

// TestSBCProposalPull: a replica whose reliable broadcast never delivers
// (all INIT/ECHO suppressed toward it) still completes the instance by
// pulling certified proposals after the binary decisions.
func TestSBCProposalPull(t *testing.T) {
	n := 7
	c := buildCluster(t, n, true, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 78)
	starved := types.ReplicaID(7)
	c.net.DropRule = func(from, to types.ReplicaID, msg simnet.Message) bool {
		if to != starved {
			return false
		}
		switch msg.(type) {
		case *rbc.Init, *rbc.Echo:
			return true
		}
		return false
	}
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	d := c.decided[starved]
	if d == nil {
		t.Fatal("starved replica never completed the instance")
	}
	ref := c.decided[c.members[0]]
	if d.Digest() != ref.Digest() {
		t.Fatal("starved replica decided a different superblock")
	}
	// Every 1-slot's payload was obtained (via READY-justified pulls).
	for slot, bit := range d.Bits {
		if bit {
			if _, ok := d.Proposals[slot]; !ok {
				t.Fatalf("slot %v decided 1 without payload", slot)
			}
		}
	}
}

// TestSBCPulledInitStatementsAreChecked: a replica that the reliable
// broadcasts never reach completes by pulling certified proposals, and each
// pull brings the broadcaster's signed INIT, so its decision carries the
// statements it never saw as messages. One slot's statement is re-valued in
// flight under the old signature: the proposal is kept, the statement is
// not, and nobody is accused.
func TestSBCPulledInitStatementsAreChecked(t *testing.T) {
	const n, starved, forgedSlot = 7, types.ReplicaID(7), types.ReplicaID(2)
	c := buildCluster(t, n, true, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 78)
	c.net.DeliverRule = func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		if to != starved {
			return msg
		}
		switch m := msg.(type) {
		case *rbc.Init, *rbc.Echo, *rbc.Ready:
			return nil
		case *ProposalResp:
			if m.Slot == forgedSlot && m.InitStmt != nil {
				forged := *m.InitStmt
				forged.Stmt.Value[0] ^= 0xa5
				cp := *m
				cp.InitStmt = &forged
				return &cp
			}
		}
		return msg
	}
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	d := c.decided[starved]
	if d == nil {
		t.Fatal("starved replica never completed the instance")
	}
	if d.Digest() != c.decided[c.members[0]].Digest() {
		t.Fatal("starved replica decided a different superblock")
	}
	if !d.Bits[forgedSlot] {
		t.Fatalf("slot %v was not selected: nothing was pulled for it", forgedSlot)
	}
	for slot, bit := range d.Bits {
		if !bit {
			continue
		}
		s := d.InitStmts[slot]
		switch {
		case slot == forgedSlot:
			if s != nil {
				t.Errorf("slot %v: the re-valued INIT statement was kept: %+v", slot, s)
			}
		case s == nil || s.Signer != slot || s.Stmt.Value != d.Proposals[slot].Digest || !s.Verify(c.signers[0]):
			t.Errorf("slot %v: pulled proposal came without its broadcaster's INIT statement: %+v", slot, s)
		}
	}
	if got := c.logs[starved].ProvenCount(); got != 0 {
		t.Fatalf("starved replica proved %d culprits on an honest run", got)
	}
}

// TestSBCPulledReadyCertificateRule: the ready certificate of a pulled
// proposal is held to the one certificate rule, counted at 2t+1. Exactly
// 2t+1 distinct signers deliver the proposal; one signer short, the same
// padded back to 2t+1 votes with a repeated signer, a full certificate
// padded with one, a forged vote, and no votes at all deliver nothing and
// record nothing.
func TestSBCPulledReadyCertificateRule(t *testing.T) {
	const n, seed = 7, 78
	lat := latency.Uniform(2*time.Millisecond, 15*time.Millisecond)
	done := buildCluster(t, n, true, lat, seed)
	done.proposeAll(nil)
	done.net.RunUntilQuiet(10 * time.Minute)
	slot := done.decided[1].OrderedProposals()[0].Broadcaster // any slot decided 1
	resp, ok := AnswerPull(&ProposalReq{Context: accountability.CtxMain, Instance: 1, Slot: slot}, func() *Decision { return done.decided[1] }).(*ProposalResp)
	if !ok || resp.Cert == nil {
		t.Fatal("the decision does not answer the pull with a certified proposal")
	}
	readyMin := 2*types.MaxClassicFaults(n) + 1
	if len(resp.Cert.Sigs) < readyMin {
		t.Fatalf("ready certificate of %d votes, want >= %d", len(resp.Cert.Sigs), readyMin)
	}
	with := func(sigs ...accountability.Signed) *ProposalResp {
		cp := *resp
		cp.Cert = &accountability.Certificate{Stmt: resp.Cert.Stmt, Sigs: sigs}
		return &cp
	}
	votes := func() []accountability.Signed {
		return append([]accountability.Signed(nil), resp.Cert.Sigs[:readyMin]...)
	}
	forged := votes()
	forged[1].Sig = append(crypto.Signature(nil), forged[1].Sig...)
	forged[1].Sig[0] ^= 0xff

	// The same keys, nothing run: replica 7 has seen no vote of the instance.
	fresh := buildCluster(t, n, true, lat, seed)
	inst, log := fresh.nodes[n].inst, fresh.logs[n]
	for name, bad := range map[string]*ProposalResp{
		"one signer short":  with(votes()[:readyMin-1]...),
		"short, padded":     with(append(votes()[:readyMin-1], resp.Cert.Sigs[0])...),
		"full, padded":      with(append(votes(), resp.Cert.Sigs[0])...),
		"forged vote":       with(forged...),
		"empty certificate": with(),
		"no certificate":    {Context: resp.Context, Instance: resp.Instance, Slot: slot, Payload: resp.Payload},
	} {
		inst.onProposalResp(1, bad)
		if _, delivered := inst.delivered[slot]; delivered || log.Statements() != 0 {
			t.Fatalf("%s: delivered = %v with %d statements recorded", name, delivered, log.Statements())
		}
	}
	inst.onProposalResp(1, with(votes()...))
	if _, delivered := inst.delivered[slot]; !delivered {
		t.Fatal("proposal under 2t+1 distinct readies not delivered")
	}
	// The 2t+1 readies and the broadcaster's INIT statement.
	if got, want := log.Statements(), readyMin+1; got != want {
		t.Fatalf("%d statements recorded, want %d", got, want)
	}
}

func TestSBCDecisionCertificatesCoverAllSlots(t *testing.T) {
	n := 7
	c := buildCluster(t, n, true, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 79)
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	d := c.decided[c.members[0]]
	for slot := range d.Bits {
		cert, ok := d.BinCerts[slot]
		if !ok || cert == nil {
			t.Fatalf("slot %v missing binary certificate", slot)
		}
		if cert.SignerCount(nil) < types.Quorum(n) {
			t.Fatalf("slot %v certificate below quorum", slot)
		}
	}
}

func TestSBCNonAccountableHasNoCerts(t *testing.T) {
	n := 7
	c := buildCluster(t, n, false, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 80)
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	d := c.decided[c.members[0]]
	if d == nil {
		t.Fatal("undecided")
	}
	for slot, cert := range d.BinCerts {
		if cert != nil {
			t.Fatalf("Red Belly mode produced a certificate for slot %v", slot)
		}
	}
}

func TestSBCSlotObserver(t *testing.T) {
	n := 4
	c := buildCluster(t, n, true, latency.Uniform(2*time.Millisecond, 15*time.Millisecond), 81)
	type obs struct {
		slot  types.ReplicaID
		value bool
	}
	var seen []obs
	c.nodes[1].inst.cfg.OnSlotDecide = func(slot types.ReplicaID, value bool, _ types.Digest) {
		seen = append(seen, obs{slot, value})
	}
	c.proposeAll(nil)
	c.net.RunUntilQuiet(10 * time.Minute)
	if len(seen) != n {
		t.Fatalf("observed %d slot decisions, want %d", len(seen), n)
	}
}

func TestContextInstanceOf(t *testing.T) {
	est := &Instance{} // just to reference package; real check below
	_ = est
	msgs := []simnet.Message{
		&ProposalReq{Context: 2, Instance: 9},
		&ProposalResp{Context: 3, Instance: 11},
		&bincon.DecideReq{Context: 1, Instance: 12},
	}
	for _, m := range msgs {
		ctx, inst, ok := ContextInstanceOf(m)
		if !ok || ctx == 0 || inst == 0 {
			t.Fatalf("extraction failed for %T", m)
		}
	}
	if _, _, ok := ContextInstanceOf("not-a-protocol-message"); ok {
		t.Fatal("non-protocol message extracted")
	}
}
