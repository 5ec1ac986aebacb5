package sbc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// testNode hosts one SBC instance on a simnet node.
type testNode struct {
	inst *Instance
}

func (n *testNode) OnMessage(from types.ReplicaID, msg simnet.Message) {
	n.inst.OnMessage(from, msg)
}

func (n *testNode) OnTimer(payload any) {
	if p, ok := payload.(bincon.TimerPayload); ok {
		n.inst.OnTimer(p)
	}
}

type cluster struct {
	net     *simnet.Network
	nodes   map[types.ReplicaID]*testNode
	signers []*crypto.Signer
	views   map[types.ReplicaID]*committee.View
	logs    map[types.ReplicaID]*accountability.Log
	members []types.ReplicaID
	tracer  *obs.Tracer
	// decided is written by every replica's OnDecide: mu orders those
	// writes whichever goroutine runs the callbacks. Tests read it after
	// the run has returned.
	mu      sync.Mutex
	decided map[types.ReplicaID]*Decision
}

// buildCluster wires n replicas running one SBC instance each.
func buildCluster(t *testing.T, n int, accountable bool, lat latency.Model, seed int64) *cluster {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, seed)
	if err != nil {
		t.Fatalf("generate cluster: %v", err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	c := &cluster{
		net:     simnet.New(simnet.Config{Latency: lat, Seed: seed}),
		nodes:   make(map[types.ReplicaID]*testNode),
		signers: signers,
		views:   make(map[types.ReplicaID]*committee.View),
		logs:    make(map[types.ReplicaID]*accountability.Log),
		decided: make(map[types.ReplicaID]*Decision),
		members: members,
		tracer:  obs.NewTracer(),
	}
	for i, id := range members {
		id := id
		signer := signers[i]
		c.net.AddNode(id, func(env simnet.Env) simnet.Handler {
			view := committee.NewView(members)
			c.views[id] = view
			log := accountability.NewLog(signer, nil)
			c.logs[id] = log
			node := &testNode{}
			node.inst = New(Config{
				Context:     accountability.CtxMain,
				Instance:    1,
				Self:        id,
				View:        view,
				Signer:      signer,
				Log:         log,
				Env:         env,
				Accountable: accountable,
				Tracer:      c.tracer.Node(id),
				OnDecide: func(d *Decision) {
					c.mu.Lock()
					c.decided[id] = d
					c.mu.Unlock()
				},
			})
			c.nodes[id] = node
			return node
		})
	}
	return c
}

func (c *cluster) proposeAll(skip map[types.ReplicaID]bool) {
	for _, id := range c.members {
		if skip[id] {
			continue
		}
		payload := []byte(fmt.Sprintf("proposal-from-%d", id))
		c.nodes[id].inst.Propose(payload, 0, 0)
	}
}

func TestSBCAllHonestAgree(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		for _, accountable := range []bool{true, false} {
			name := fmt.Sprintf("n=%d/accountable=%v", n, accountable)
			t.Run(name, func(t *testing.T) {
				c := buildCluster(t, n, accountable, latency.Uniform(5*time.Millisecond, 30*time.Millisecond), 42)
				c.proposeAll(nil)
				c.net.RunUntilQuiet(5 * time.Minute)
				if len(c.decided) != n {
					t.Fatalf("only %d of %d replicas decided", len(c.decided), n)
				}
				var ref types.Digest
				for i, id := range c.members {
					d := c.decided[id]
					if i == 0 {
						ref = d.Digest()
						continue
					}
					if d.Digest() != ref {
						t.Fatalf("replica %v decided %v, want %v (disagreement)", id, d.Digest(), ref)
					}
				}
				// Every replica proposed at once, so every proposal is
				// delivered long before n−t slots have decided 1: the
				// superblock holds n of n, each slot decided in one round.
				d := c.decided[c.members[0]]
				for _, id := range c.members {
					if !d.Bits[id] {
						t.Fatalf("proposal of %v left out of a symmetric instance: bits %v", id, d.Bits)
					}
					if cert := d.BinCerts[id]; accountable && cert.Stmt.Round != 0 {
						t.Fatalf("slot %v decided 1 at round %d, want round 0", id, cert.Stmt.Round)
					}
				}
				c.checkZeroVotesFollowOnes(t)
			})
		}
	}
}

func TestSBCToleratesCrashedProposers(t *testing.T) {
	n := 7
	c := buildCluster(t, n, true, latency.Uniform(5*time.Millisecond, 30*time.Millisecond), 7)
	// Two crashed replicas: never propose, never answer.
	crashed := map[types.ReplicaID]bool{6: true, 7: true}
	for id := range crashed {
		c.net.SetUp(id, false)
	}
	c.proposeAll(crashed)
	c.net.RunUntilQuiet(10 * time.Minute)
	live := 0
	var ref types.Digest
	for _, id := range c.members {
		if crashed[id] {
			continue
		}
		d, ok := c.decided[id]
		if !ok {
			t.Fatalf("live replica %v did not decide", id)
		}
		if live == 0 {
			ref = d.Digest()
		} else if d.Digest() != ref {
			t.Fatalf("disagreement at replica %v", id)
		}
		live++
		// Crashed proposers' slots must be decided 0: nobody has a 1 to
		// vote, so in the first round that favours 0.
		for cid := range crashed {
			if d.Bits[cid] {
				t.Fatalf("slot of crashed proposer %v decided 1", cid)
			}
			if r := d.BinCerts[cid].Stmt.Round; r != 1 {
				t.Fatalf("slot of crashed proposer %v decided 0 at round %d, want round 1", cid, r)
			}
		}
	}
	if zeros := c.checkZeroVotesFollowOnes(t); zeros != live*len(crashed) {
		t.Fatalf("%d zero votes cast, want one per live replica and crashed slot (%d)", zeros, live*len(crashed))
	}
}

// checkZeroVotesFollowOnes reads the reduction's rule off the trace: a
// replica enters a slot's binary consensus with 1 when it has delivered the
// slot's proposal and with 0 otherwise, and every 0 comes after n−t of its
// binary consensuses have decided 1. It returns the number of 0 inputs.
func (c *cluster) checkZeroVotesFollowOnes(t *testing.T) int {
	t.Helper()
	n := len(c.members)
	need := n - types.MaxClassicFaults(n)
	type slotAt struct {
		node types.ReplicaID
		slot uint32
	}
	delivered := make(map[slotAt]bool)
	ones := make(map[types.ReplicaID]int)
	zeros := 0
	for _, ev := range c.tracer.Events() { // per node, in the order recorded
		switch {
		case ev.Phase == obs.PhaseRBCDeliver:
			delivered[slotAt{ev.Node, ev.Slot}] = true
		case ev.Phase == obs.PhaseBinDecide && ev.ID == "1":
			ones[ev.Node]++
		case ev.Phase == obs.PhaseBinRound && ev.Round == 0 && !delivered[slotAt{ev.Node, ev.Slot}]:
			zeros++
			if ones[ev.Node] < need {
				t.Fatalf("replica %v voted 0 on slot %d after %d decisions of 1, before the %d the reduction waits for",
					ev.Node, ev.Slot, ones[ev.Node], need)
			}
		}
	}
	return zeros
}

// TestSBCLateProposalIsIncluded: a proposal delivered after n−t others
// have been, but before n−t slots have decided 1, is in the superblock.
// Ten milliseconds a hop: replicas 1–3 propose at 0 and deliver each
// other's proposals at 30 ms; their slots decide 1 at 60 ms (EST, COORD,
// AUX). Replica 4 proposes at 25 ms, delivered at 55 ms: a reduction that
// voted 0 at the n−t-th delivery would have dropped it at 30 ms.
func TestSBCLateProposalIsIncluded(t *testing.T) {
	c := buildCluster(t, 4, true, latency.Fixed(10*time.Millisecond), 1)
	c.proposeAll(map[types.ReplicaID]bool{4: true})
	c.net.Run(25 * time.Millisecond)
	c.nodes[4].inst.Propose([]byte("proposal-from-4"), 0, 0)
	c.net.RunUntilQuiet(time.Minute)
	var deliveredAt, firstOneAt time.Duration
	for _, ev := range c.tracer.Events() {
		if ev.Node != 1 {
			continue
		}
		if ev.Phase == obs.PhaseRBCDeliver && ev.Slot == 4 {
			deliveredAt = ev.At
		}
		if ev.Phase == obs.PhaseBinDecide && firstOneAt == 0 {
			firstOneAt = ev.At
		}
	}
	if deliveredAt <= 30*time.Millisecond || deliveredAt >= firstOneAt {
		t.Fatalf("slot 4 delivered at %v, first decision at %v: the schedule no longer puts the delivery between the n−t-th delivery (30ms) and the decisions", deliveredAt, firstOneAt)
	}
	for _, id := range c.members {
		d, ok := c.decided[id]
		if !ok {
			t.Fatalf("replica %v did not decide", id)
		}
		if !d.Bits[4] || len(d.Proposals) != 4 {
			t.Fatalf("replica %v: late proposal left out, bits %v", id, d.Bits)
		}
	}
	if zeros := c.checkZeroVotesFollowOnes(t); zeros != 0 {
		t.Fatalf("%d zero votes cast in an instance every proposal reached in time", zeros)
	}
}

func TestSBCDecisionDigestDetectsDifferences(t *testing.T) {
	d1 := &Decision{
		Instance: 3,
		Bits:     map[types.ReplicaID]bool{1: true, 2: false},
		Proposals: map[types.ReplicaID]ProposalInfo{
			1: {Broadcaster: 1, Digest: types.Hash([]byte("a"))},
		},
	}
	d2 := &Decision{
		Instance: 3,
		Bits:     map[types.ReplicaID]bool{1: true, 2: true},
		Proposals: map[types.ReplicaID]ProposalInfo{
			1: {Broadcaster: 1, Digest: types.Hash([]byte("a"))},
			2: {Broadcaster: 2, Digest: types.Hash([]byte("b"))},
		},
	}
	if d1.Digest() == d2.Digest() {
		t.Fatal("different decisions share a digest")
	}
	d3 := &Decision{
		Instance: 3,
		Bits:     map[types.ReplicaID]bool{1: true, 2: false},
		Proposals: map[types.ReplicaID]ProposalInfo{
			1: {Broadcaster: 1, Digest: types.Hash([]byte("a"))},
		},
	}
	if d1.Digest() != d3.Digest() {
		t.Fatal("equal decisions have different digests")
	}
}

func TestSBCOrderedProposalsSorted(t *testing.T) {
	d := &Decision{
		Proposals: map[types.ReplicaID]ProposalInfo{
			3: {Broadcaster: 3},
			1: {Broadcaster: 1},
			2: {Broadcaster: 2},
		},
	}
	got := d.OrderedProposals()
	for i := 1; i < len(got); i++ {
		if got[i-1].Broadcaster >= got[i].Broadcaster {
			t.Fatalf("proposals not sorted: %v", got)
		}
	}
}
