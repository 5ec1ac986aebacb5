package hotstuff

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

type cluster struct {
	net      *simnet.Network
	replicas map[types.ReplicaID]*Replica
	members  []types.ReplicaID
	// mu orders the writes of the callbacks below, which every replica
	// shares: the recorder does not rely on the simulator running them
	// on one goroutine. Tests read after the run.
	mu      sync.Mutex
	commits map[types.ReplicaID][]*Block
}

func build(t *testing.T, n int, crash map[types.ReplicaID]bool, seed int64, maxViews uint64) *cluster {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	c := &cluster{
		net:      simnet.New(simnet.Config{Latency: latency.Uniform(2*time.Millisecond, 12*time.Millisecond), Seed: seed}),
		replicas: make(map[types.ReplicaID]*Replica),
		members:  members,
		commits:  make(map[types.ReplicaID][]*Block),
	}
	for i, id := range members {
		id := id
		signer := signers[i]
		c.net.AddNode(id, func(env simnet.Env) simnet.Handler {
			r := New(Config{
				Self:   id,
				View:   committee.NewView(members),
				Signer: signer,
				Env:    env,
				BatchSource: func(view uint64) ([]byte, int, int) {
					return []byte(fmt.Sprintf("batch-%d-%v", view, id)), 0, 100
				},
				OnCommit: func(b *Block) {
					c.mu.Lock()
					c.commits[id] = append(c.commits[id], b)
					c.mu.Unlock()
				},
				BaseTimeout: 300 * time.Millisecond,
				MaxViews:    maxViews,
			})
			c.replicas[id] = r
			return r
		})
	}
	for id := range crash {
		c.net.SetUp(id, false)
	}
	return c
}

func (c *cluster) start(crash map[types.ReplicaID]bool) {
	for _, id := range c.members {
		if !crash[id] {
			c.replicas[id].Start()
		}
	}
}

func TestHotStuffCommitsAndAgrees(t *testing.T) {
	c := build(t, 4, nil, 11, 20)
	c.start(nil)
	c.net.RunUntilQuiet(5 * time.Minute)
	for _, id := range c.members {
		if len(c.commits[id]) == 0 {
			t.Fatalf("replica %v committed nothing", id)
		}
	}
	// Prefix agreement: every pair of commit sequences agrees on the
	// common prefix.
	ref := c.commits[c.members[0]]
	for _, id := range c.members[1:] {
		got := c.commits[id]
		n := len(ref)
		if len(got) < n {
			n = len(got)
		}
		for i := 0; i < n; i++ {
			if got[i].Digest() != ref[i].Digest() {
				t.Fatalf("replica %v commit %d diverges", id, i)
			}
		}
	}
	if got := len(ref); got < 10 {
		t.Fatalf("only %d commits over 20 views", got)
	}
}

func TestHotStuffSurvivesCrashedLeader(t *testing.T) {
	// Replica 1 leads views 1 % 7... crash replica 2 (leader of view 2 as
	// members[2%7]=r3? leader(v)=members[v mod n]); crash two replicas
	// (< n/3 of 7) and check progress.
	crash := map[types.ReplicaID]bool{2: true, 3: true}
	c := build(t, 7, crash, 13, 30)
	c.start(crash)
	c.net.RunUntilQuiet(10 * time.Minute)
	live := 0
	for _, id := range c.members {
		if crash[id] {
			continue
		}
		if len(c.commits[id]) > 0 {
			live++
		}
	}
	if live < 5 {
		t.Fatalf("only %d live replicas committed despite f < n/3 crashes", live)
	}
}

func TestHotStuffOneProposalPerView(t *testing.T) {
	// The paper's explanation for HotStuff's flat throughput: one
	// proposal per consensus instance. Commits must have strictly
	// increasing views.
	c := build(t, 4, nil, 17, 12)
	c.start(nil)
	c.net.RunUntilQuiet(5 * time.Minute)
	seq := c.commits[c.members[0]]
	for i := 1; i < len(seq); i++ {
		if seq[i].View <= seq[i-1].View {
			t.Fatalf("commit %d view %d not increasing", i, seq[i].View)
		}
	}
}

func TestQCVerification(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	members := []types.ReplicaID{1, 2, 3, 4}
	net := simnet.New(simnet.Config{Latency: latency.Fixed(time.Millisecond), Seed: 5})
	var r *Replica
	net.AddNode(1, func(env simnet.Env) simnet.Handler {
		r = New(Config{Self: 1, View: committee.NewView(members), Signer: signers[0], Env: env})
		return r
	})
	b := &Block{View: 1, Parent: r.genesis}
	d := b.Digest()
	qc := &QC{View: 1, Block: d}
	for i := 0; i < 3; i++ {
		sig, err := signers[i].Sign(r.stmtDigest(1, d))
		if err != nil {
			t.Fatal(err)
		}
		qc.Voters = append(qc.Voters, types.ReplicaID(i+1))
		qc.Sigs = append(qc.Sigs, sig)
	}
	if !r.verifyQC(qc) {
		t.Fatal("valid QC rejected")
	}
	// Below quorum.
	bad := &QC{View: 1, Block: d, Voters: qc.Voters[:2], Sigs: qc.Sigs[:2]}
	if r.verifyQC(bad) {
		t.Fatal("sub-quorum QC accepted")
	}
	// Duplicate voter.
	dup := &QC{View: 1, Block: d,
		Voters: []types.ReplicaID{1, 1, 2},
		Sigs:   []crypto.Signature{qc.Sigs[0], qc.Sigs[0], qc.Sigs[1]}}
	if r.verifyQC(dup) {
		t.Fatal("duplicate-voter QC accepted")
	}
	// Tampered signature.
	tampered := &QC{View: 1, Block: d, Voters: qc.Voters, Sigs: append([]crypto.Signature{}, qc.Sigs...)}
	tampered.Sigs[0] = append(crypto.Signature{}, tampered.Sigs[0]...)
	tampered.Sigs[0][0] ^= 0xff
	if r.verifyQC(tampered) {
		t.Fatal("tampered QC accepted")
	}
}
