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
	// decided is written by OnDecide, which the simulator's parallel
	// windows call from several goroutines: mu orders those writes. Tests
	// read it after the run has returned.
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
				// SBC-Nontriviality-ish: with all honest, at least n−t
				// proposals must be included.
				d := c.decided[c.members[0]]
				included := 0
				for _, bit := range d.Bits {
					if bit {
						included++
					}
				}
				if min := n - types.MaxClassicFaults(n); included < min {
					t.Fatalf("only %d proposals included, want at least %d", included, min)
				}
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
		// Crashed proposers' slots must be decided 0.
		for cid := range crashed {
			if d.Bits[cid] {
				t.Fatalf("slot of crashed proposer %v decided 1", cid)
			}
		}
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
