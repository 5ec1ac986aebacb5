package asmr_test

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// TestEveryProposalCommits: on a cluster where every replica proposes to
// every instance, every superblock holds n of n proposals.
func TestEveryProposalCommits(t *testing.T) {
	const instances = 12
	for _, n := range []int{4, 7} {
		c := benignCluster(t, n, instances)
		c.Start()
		c.RunUntilQuiet(10 * time.Minute)
		for _, id := range c.Members {
			if got := len(c.Commits[id]); got != instances {
				t.Fatalf("n=%d: replica %v committed %d instances, want %d", n, id, got, instances)
			}
			for k, commit := range c.Commits[id] {
				if d := commit.Decision; len(d.Proposals) != n {
					t.Errorf("n=%d: replica %v committed %d of %d proposals in instance %d (bits %v)",
						n, id, len(d.Proposals), n, k, d.Bits)
				}
			}
		}
	}
}

// onlyBatch is an application whose replica 1 has one batch to propose, for
// instance 1, and nobody anything else.
type onlyBatch struct {
	id      types.ReplicaID
	payload []byte
	r       *asmr.Replica
}

func (a *onlyBatch) Bind(cfg *asmr.Config) {
	cfg.BatchSource = func(k uint64) asmr.Batch {
		if a.id == 1 && k == 1 {
			return asmr.Batch{Payload: a.payload}
		}
		return asmr.Batch{}
	}
}
func (a *onlyBatch) Attach(r *asmr.Replica) { a.r = r }
func (a *onlyBatch) Start()                 { a.r.Start() }
func (a *onlyBatch) Close() error           { return nil }

// TestIdleReplicasJoinTheInstanceAPeerStarted: under WaitForWork a replica
// with nothing to propose joins the instance it holds a peer's INIT for,
// with an empty proposal — so one replica's work commits without n−t pools
// having any, every slot decides 1 and nobody waits out the 0-votes — and
// nobody starts the instance after it, which no one has work for.
func TestIdleReplicasJoinTheInstanceAPeerStarted(t *testing.T) {
	work := []byte("the only batch")
	c, err := harness.New(harness.Options{
		App: func(id types.ReplicaID, _ simnet.Env) (harness.Application, error) {
			return &onlyBatch{id: id, payload: work}, nil
		},
		N:           4,
		Accountable: true,
		Recover:     true,
		WaitForWork: true,
		BaseLatency: latency.Uniform(time.Millisecond, 8*time.Millisecond),
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(time.Minute)
	for _, id := range c.Members {
		if len(c.Commits[id]) != 1 || c.Commits[id][1] == nil {
			t.Fatalf("replica %v committed %d instances, want the one with work in it", id, len(c.Commits[id]))
		}
		d := c.Commits[id][1].Decision
		if string(d.Proposals[1].Payload) != string(work) {
			t.Fatalf("replica %v: the proposal with work did not commit (bits %v)", id, d.Bits)
		}
		for slot, one := range d.Bits {
			if !one || d.BinCerts[slot].Stmt.Round != 0 {
				t.Errorf("replica %v: slot %v decided %v at round %d, want 1 at round 0: an empty proposal is still a proposal",
					id, slot, one, d.BinCerts[slot].Stmt.Round)
			}
		}
	}
}
