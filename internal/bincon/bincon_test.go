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
		n.inst.OnDecide(from, m)
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
	// mu orders the writes of the callbacks below, which the simulator's
	// parallel windows run on several goroutines. Tests read after the run.
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
		if d.Cert == nil || d.Cert.SignerCount(nil) < types.Quorum(7) {
			t.Fatalf("replica %v decision cert invalid", id)
		}
	}
}

func TestBinConUnanimousFalseDecidesRoundZero(t *testing.T) {
	c := buildBin(t, 7, nil, 2)
	values := map[types.ReplicaID]bool{}
	c.propose(values) // all false
	c.net.RunUntilQuiet(time.Minute)
	for id, d := range c.decided {
		if d.Value {
			t.Fatalf("replica %v decided true on unanimous false", id)
		}
		if d.Round != 0 {
			t.Fatalf("replica %v decided at round %d; parity favors 0 at round 0", id, d.Round)
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
// value 1 to one partition and 0 to the other; whichever way it ends, the
// coalition's conflicting AUX signatures surface as PoFs when certificates
// circulate.
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
	values := map[types.ReplicaID]bool{5: true, 6: true} // honest A proposes 1, B proposes 0
	c.propose(values)
	c.net.RunUntilQuiet(5 * time.Minute)

	// All honest must eventually hold PoFs against the equivocators once
	// the decisions' certificates circulate (same round, both values).
	evidence := 0
	for id, pofs := range c.pofs {
		if deceitful[id] {
			continue
		}
		for _, p := range pofs {
			if !deceitful[p.Culprit] {
				t.Fatalf("honest replica %v accused honest %v", id, p.Culprit)
			}
			evidence++
		}
	}
	if evidence == 0 {
		t.Fatal("equivocation left no evidence at any honest replica")
	}
}

func TestBinConDecidePropagationAdoptsCert(t *testing.T) {
	c := buildBin(t, 4, nil, 6)
	values := map[types.ReplicaID]bool{1: true, 2: true, 3: true, 4: true}
	c.propose(values)
	c.net.RunUntilQuiet(time.Minute)
	d := c.decided[1]
	// A fresh instance adopting the decision via OnDecide must accept a
	// valid certificate and reject a truncated one.
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{Latency: latency.Fixed(time.Millisecond), Seed: 6})
	var fresh *Instance
	net.AddNode(9, func(env simnet.Env) simnet.Handler {
		fresh = New(Config{
			Context: accountability.CtxMain, Instance: 1, Slot: 3, Self: 9,
			View:   committee.NewView(c.members),
			Signer: signers[0], Env: env, Accountable: true,
		})
		return &binNode{inst: fresh}
	})
	fresh.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: d.Cert})
	if dec, ok := fresh.Decided(); !ok || dec.Value != d.Value {
		t.Fatal("valid decision certificate rejected")
	}
	// Truncated cert must be rejected by another fresh instance.
	var fresh2 *Instance
	net.AddNode(10, func(env simnet.Env) simnet.Handler {
		fresh2 = New(Config{
			Context: accountability.CtxMain, Instance: 1, Slot: 3, Self: 10,
			View:   committee.NewView(c.members),
			Signer: signers[1], Env: env, Accountable: true,
		})
		return &binNode{inst: fresh2}
	})
	bad := &accountability.Certificate{Stmt: d.Cert.Stmt, Sigs: d.Cert.Sigs[:1]}
	fresh2.OnDecide(1, &Decide{Context: accountability.CtxMain, Instance: 1, Slot: 3, Value: d.Value, Cert: bad})
	if _, ok := fresh2.Decided(); ok {
		t.Fatal("truncated certificate accepted")
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
	if d.SimSigOps() != 0 {
		t.Fatal("certless decide")
	}
}
