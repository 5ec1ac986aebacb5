package rbc

import (
	"bytes"
	"fmt"
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

// rbcNode hosts one reliable-broadcast slot per replica.
type rbcNode struct {
	inst *Instance
}

func (n *rbcNode) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *Init:
		n.inst.OnInit(from, m)
	case *Echo:
		n.inst.OnEcho(from, m)
	case *Ready:
		n.inst.OnReady(from, m)
	case *PayloadReq:
		n.inst.OnPayloadReq(from, m)
	case *PayloadResp:
		n.inst.OnPayloadResp(from, m)
	}
}

func (n *rbcNode) OnTimer(any) {}

type rbcCluster struct {
	net     *simnet.Network
	nodes   map[types.ReplicaID]*rbcNode
	logs    map[types.ReplicaID]*accountability.Log
	members []types.ReplicaID
	// mu orders the writes of the callbacks below, which the simulator's
	// parallel windows run on several goroutines. Tests read after the run.
	mu        sync.Mutex
	delivered map[types.ReplicaID]Delivery
	pofs      map[types.ReplicaID][]accountability.PoF
}

func buildRBC(t *testing.T, n int, broadcaster types.ReplicaID, eq func(types.ReplicaID) *Equivocator) *rbcCluster {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	c := &rbcCluster{
		net:       simnet.New(simnet.Config{Latency: latency.Uniform(time.Millisecond, 10*time.Millisecond), Seed: 7}),
		nodes:     make(map[types.ReplicaID]*rbcNode),
		delivered: make(map[types.ReplicaID]Delivery),
		logs:      make(map[types.ReplicaID]*accountability.Log),
		pofs:      make(map[types.ReplicaID][]accountability.PoF),
		members:   members,
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
			c.logs[id] = log
			var e *Equivocator
			if eq != nil {
				e = eq(id)
			}
			node := &rbcNode{inst: New(Config{
				Context:     accountability.CtxMain,
				Instance:    1,
				Broadcaster: broadcaster,
				Self:        id,
				View:        committee.NewView(members),
				Signer:      signer,
				Log:         log,
				Env:         env,
				Accountable: true,
				Equivocator: e,
				OnDeliver: func(d Delivery) {
					c.mu.Lock()
					c.delivered[id] = d
					c.mu.Unlock()
				},
			})}
			c.nodes[id] = node
			return node
		})
	}
	return c
}

func TestRBCAllDeliverSamePayload(t *testing.T) {
	c := buildRBC(t, 7, 1, nil)
	payload := []byte("the proposal")
	c.nodes[1].inst.Broadcast(payload, 0, 0)
	c.net.RunUntilQuiet(time.Minute)
	if len(c.delivered) != 7 {
		t.Fatalf("delivered at %d of 7", len(c.delivered))
	}
	want := types.Hash(payload)
	for id, d := range c.delivered {
		if d.Digest != want {
			t.Fatalf("replica %v delivered %v", id, d.Digest)
		}
		if !bytes.Equal(d.Payload, payload) {
			t.Fatalf("replica %v payload mismatch", id)
		}
		if d.Cert == nil {
			t.Fatalf("replica %v missing delivery certificate", id)
		}
		if d.Cert.SignerCount(nil) < 2*types.MaxClassicFaults(7)+1 {
			t.Fatalf("replica %v cert below 2t+1", id)
		}
	}
}

func TestRBCRejectsWrongBroadcaster(t *testing.T) {
	c := buildRBC(t, 4, 1, nil)
	// Replica 2 pretends to broadcast in replica 1's slot.
	c.net.Inject(0, 2, "kick", 0)
	node2 := c.nodes[2]
	// Build a forged init claiming slot 1 signed by replica 2.
	stmt := accountability.Statement{
		Context: accountability.CtxMain, Kind: accountability.KindInit,
		Instance: 1, Slot: 1, Value: types.Hash([]byte("forged")),
	}
	_ = node2
	_ = stmt
	// Deliver it directly: OnInit must reject because from != broadcaster
	// is simulated by 'from' = 2.
	forged := &Init{Payload: []byte("forged")}
	c.nodes[3].inst.OnInit(2, forged)
	c.net.RunUntilQuiet(time.Minute)
	if len(c.delivered) != 0 {
		t.Fatal("forged broadcast delivered")
	}
}

// TestRBCEquivocatingBroadcasterSplitsPartitions drives the reliable
// broadcast attack at the rbc level: partition {2,3} receives variant A,
// partition {4,5} variant B, with deceitful replica 1 echoing each side
// its own variant. With n=7 and quorum 5, neither side can deliver alone,
// but evidence of the broadcaster's equivocation reaches the logs.
func TestRBCEquivocatingBroadcasterEvidence(t *testing.T) {
	payloadA := []byte("variant-A")
	payloadB := []byte("variant-B")
	digests := map[types.ReplicaID]types.Digest{}
	for _, id := range []types.ReplicaID{2, 3, 4} {
		digests[id] = types.Hash(payloadA)
	}
	for _, id := range []types.ReplicaID{5, 6, 7} {
		digests[id] = types.Hash(payloadB)
	}
	eq := func(id types.ReplicaID) *Equivocator {
		if id != 1 {
			return nil
		}
		return &Equivocator{
			InitFor: func(to types.ReplicaID) []byte {
				switch {
				case to == 1 || digests[to] == types.Hash(payloadA):
					return payloadA
				default:
					return payloadB
				}
			},
			EchoDigestFor: func(to types.ReplicaID, seen []types.Digest) (types.Digest, bool) {
				if want, ok := digests[to]; ok {
					for _, d := range seen {
						if d == want {
							return d, true
						}
					}
				}
				if len(seen) > 0 {
					return seen[0], true
				}
				return types.ZeroDigest, false
			},
		}
	}
	c := buildRBC(t, 7, 1, eq)
	c.nodes[1].inst.Broadcast(payloadA, 0, 0)
	c.net.RunUntilQuiet(time.Minute)

	// Echo evidence: honest replicas' logs hold the broadcaster's INIT or
	// the conflicting echoes once echoes circulate. Check that no two
	// honest replicas delivered different payloads without evidence; at
	// minimum, no delivery of both variants can be certified jointly.
	seen := map[types.Digest]bool{}
	for _, d := range c.delivered {
		seen[d.Digest] = true
	}
	if len(seen) > 1 {
		// A split delivery requires ≥ quorum echoes on each side: with a
		// single equivocator that is impossible at n=7.
		t.Fatalf("split delivery without quorum: %v", seen)
	}
}

func TestRBCLatePayloadPull(t *testing.T) {
	// A replica that missed the INIT (readies only) pulls the payload.
	c := buildRBC(t, 4, 1, nil)
	// Drop the INIT to replica 4 only.
	c.net.DropRule = func(from, to types.ReplicaID, msg simnet.Message) bool {
		_, isInit := msg.(*Init)
		return isInit && to == 4
	}
	payload := []byte("pull me")
	c.nodes[1].inst.Broadcast(payload, 0, 0)
	c.net.RunUntilQuiet(time.Minute)
	d, ok := c.delivered[4]
	if !ok {
		t.Fatal("replica 4 never delivered")
	}
	if !bytes.Equal(d.Payload, payload) {
		t.Fatal("pulled payload mismatch")
	}
	// The pull stands in for the INIT: the broadcaster's signed statement
	// came with it, checked, so replica 4's delivery carries it too.
	if d.InitStmt == nil || d.InitStmt.Signer != 1 || d.InitStmt.Stmt.Value != d.Digest || !d.InitStmt.Verify(c.nodes[4].inst.cfg.Signer) {
		t.Fatalf("replica 4 delivered without the broadcaster's INIT statement: %+v", d.InitStmt)
	}
}

// TestRBCPulledInitStatementIsChecked: an INIT statement riding on a
// PayloadResp is kept only if it is the broadcaster's, for that payload,
// and its signature verifies; a bad one costs the statement, not the
// payload, and accuses nobody.
func TestRBCPulledInitStatementIsChecked(t *testing.T) {
	payload := []byte("pull me")
	d := types.Hash(payload)
	c := buildRBC(t, 4, 1, nil)
	signer1 := c.nodes[1].inst.cfg.Signer
	sign := func(signer *crypto.Signer, value types.Digest) *accountability.Signed {
		s, err := accountability.SignStatement(signer, accountability.Statement{
			Context: accountability.CtxMain, Kind: accountability.KindInit, Instance: 1, Slot: 1, Value: value,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &s
	}
	revalued := *sign(signer1, d)
	revalued.Stmt.Value = types.Hash([]byte("another payload")) // signature no longer covers it
	unsigned := *sign(signer1, d)
	unsigned.Sig = append(crypto.Signature(nil), unsigned.Sig...)
	unsigned.Sig[0] ^= 0xff
	inst := c.nodes[4].inst
	for name, bad := range map[string]*accountability.Signed{
		"re-valued":       &revalued,
		"bad signature":   &unsigned,
		"not broadcaster": sign(c.nodes[2].inst.cfg.Signer, d),
		"other payload":   sign(signer1, types.Hash([]byte("another payload"))),
	} {
		inst.OnPayloadResp(2, &PayloadResp{Context: accountability.CtxMain, Instance: 1, Broadcaster: 1, Payload: payload, InitStmt: bad})
		if inst.initStmts[d] != nil {
			t.Fatalf("%s INIT statement kept", name)
		}
		if _, ok := inst.payloads[d]; !ok {
			t.Fatalf("%s INIT statement cost the payload", name)
		}
	}
	if got := c.logs[4].Statements(); got != 0 {
		t.Fatalf("%d rejected statements entered the log", got)
	}
	good := sign(signer1, d)
	inst.OnPayloadResp(2, &PayloadResp{Context: accountability.CtxMain, Instance: 1, Broadcaster: 1, Payload: payload, InitStmt: good})
	if inst.initStmts[d] != good {
		t.Fatal("genuine INIT statement not kept")
	}
	if len(c.pofs[4]) != 0 {
		t.Fatalf("replica 4 accused %v", c.pofs[4])
	}
}

func TestRBCClaimedSizesPropagate(t *testing.T) {
	c := buildRBC(t, 4, 1, nil)
	c.nodes[1].inst.Broadcast([]byte("x"), 4_000_000, 10_000)
	c.net.RunUntilQuiet(time.Minute)
	for id, d := range c.delivered {
		if d.ClaimedBytes != 4_000_000 || d.ClaimedSigs != 10_000 {
			t.Fatalf("replica %v claimed sizes %d/%d", id, d.ClaimedBytes, d.ClaimedSigs)
		}
	}
}

func TestRBCMessageMeters(t *testing.T) {
	init := &Init{Payload: make([]byte, 100)}
	if init.SimBytes() < 100 {
		t.Fatal("init smaller than payload")
	}
	initClaimed := &Init{Payload: []byte("x"), ClaimedBytes: 4_000_000}
	if initClaimed.SimBytes() < 4_000_000 {
		t.Fatal("claimed bytes ignored")
	}
	for _, m := range []simnet.Meter{&Echo{}, &Ready{}, &PayloadReq{}, &PayloadResp{}} {
		if m.SimBytes() <= 0 {
			t.Fatalf("%T reports non-positive size", m)
		}
	}
	if (&Echo{}).SimSigOps() != 1 || (&Ready{}).SimSigOps() != 1 || (&Ready{}).SimBytes() != (&Echo{}).SimBytes() {
		t.Fatal("ECHO and READY are one signed statement each")
	}
	with := &PayloadResp{Payload: make([]byte, 100), ClaimedSigs: 7, InitStmt: &accountability.Signed{}}
	without := &PayloadResp{Payload: make([]byte, 100), ClaimedSigs: 7}
	if with.SimSigOps() != without.SimSigOps()+1 || with.SimBytes() <= without.SimBytes() {
		t.Fatal("the INIT statement on a pull response costs one statement")
	}
}

func TestRBCNonMemberEchoIgnored(t *testing.T) {
	c := buildRBC(t, 4, 1, nil)
	stmt := accountability.Statement{
		Context: accountability.CtxMain, Kind: accountability.KindEcho,
		Instance: 1, Slot: 1, Value: types.Hash([]byte("p")),
	}
	outsider := accountability.Signed{Stmt: stmt, Signer: 99}
	c.nodes[2].inst.OnEcho(99, &Echo{Stmt: outsider})
	// No crash, no state corruption: the echo set stays empty.
	if len(c.nodes[2].inst.Digests()) != 0 {
		t.Fatal("outsider echo recorded")
	}
}

func TestRBCDeterministicDigestOrder(t *testing.T) {
	c := buildRBC(t, 4, 1, nil)
	inst := c.nodes[2].inst
	// Seed several payload digests out of order.
	for _, p := range []string{"zz", "aa", "mm"} {
		d := types.Hash([]byte(p))
		inst.payloads[d] = []byte(p)
	}
	got := inst.Digests()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("digests not sorted: %v", got)
		}
	}
}

func ExampleInstance() {
	fmt.Println("see TestRBCAllDeliverSamePayload for the canonical flow")
	// Output: see TestRBCAllDeliverSamePayload for the canonical flow
}
