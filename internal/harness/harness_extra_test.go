package harness

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/types"
)

// TestAttackAfterBuildsCleanPrefix checks the AttackAfter option: the
// first instances run honestly (agreement), the attack begins at the
// configured index.
func TestAttackAfterBuildsCleanPrefix(t *testing.T) {
	c, err := New(Options{
		N:              9,
		Deceitful:      4,
		Attack:         adversary.AttackBinary,
		AttackAfter:    3, // instances 1-2 clean, attack from 3
		Accountable:    true,
		Recover:        true,
		MaxInstances:   4,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(3 * time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           8,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	byInst := c.DisagreementsByInstance()
	for k := uint64(1); k < 3; k++ {
		if byInst[k] != 0 {
			t.Fatalf("instance %d disagreed before AttackAfter", k)
		}
	}
	total := 0
	for _, d := range byInst {
		total += d
	}
	if total == 0 {
		t.Fatal("attack after the prefix produced no disagreement")
	}
}

// TestPartitionDelayWithoutAttackStillAgrees separates the network
// condition from the attack: honest replicas under partition delays are
// slow but safe.
func TestPartitionDelayWithoutAttackStillAgrees(t *testing.T) {
	c, err := New(Options{
		N:              9,
		Deceitful:      4, // coalition exists but runs AttackNone
		Attack:         adversary.AttackNone,
		Accountable:    true,
		Recover:        true,
		MaxInstances:   2,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("honest run disagreed %d times", got)
	}
	if got := c.AgreedInstances(); got != 2 {
		t.Fatalf("agreed on %d instances, want 2", got)
	}
	if _, detected := c.DetectionTime(); detected {
		t.Fatal("fraud detected in an honest run")
	}
}

// TestThroughputAccounting sanity-checks the Fig. 3 counters.
func TestThroughputAccounting(t *testing.T) {
	c, err := New(Options{
		N:            7,
		Accountable:  true,
		MaxInstances: 2,
		BatchTxs:     100,
		BatchBytes:   40_000,
		BaseLatency:  latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         10,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(10 * time.Minute)
	if tps := c.Throughput(); tps <= 0 {
		t.Fatalf("throughput = %v", tps)
	}
	if got := c.CommittedInstances(); got != 2 {
		t.Fatalf("committed %d instances", got)
	}
}

// TestDeterministicRuns: two clusters with identical options commit
// identical decisions — the property every experiment in EXPERIMENTS.md
// relies on.
func TestDeterministicRuns(t *testing.T) {
	run := func() map[uint64]string {
		c, err := New(Options{
			N:            7,
			Accountable:  true,
			Recover:      true,
			MaxInstances: 3,
			BaseLatency:  latency.Uniform(2*time.Millisecond, 20*time.Millisecond),
			CoordTimeout: fastCoordTimeout,
			Seed:         1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		c.RunUntilQuiet(10 * time.Minute)
		out := map[uint64]string{}
		for k, commit := range c.Commits[c.Members[0]] {
			out[k] = commit.Decision.Digest().Hex()
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different commit counts: %d vs %d", len(a), len(b))
	}
	for k, d := range a {
		if b[k] != d {
			t.Fatalf("instance %d digests differ across identical runs", k)
		}
	}
}

func TestHonestMembersExcludesBenign(t *testing.T) {
	c, err := New(Options{
		N:         9,
		Deceitful: 3,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	crashBenign(c, 2)
	honest := c.HonestMembers()
	if len(honest) != 4 { // 9 − 3 deceitful − 2 benign
		t.Fatalf("honest = %v", honest)
	}
	for _, id := range honest {
		if c.Coalition.IsDeceitful(id) {
			t.Fatalf("deceitful %v in honest set", id)
		}
	}
}

// TestZeroDecisionIgnoresLocalPayload: a slot decided 0 selects no
// proposal, so a replica that had the payload when it decided and one that
// had not reached the same outcome, whichever of them is read first. A
// slot decided both ways, or decided 1 for two payloads, still counts.
func TestZeroDecisionIgnoresLocalPayload(t *testing.T) {
	c, err := New(Options{N: 4, Accountable: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload, other := types.Hash([]byte("delivered")), types.Hash([]byte("another"))
	const slot = types.ReplicaID(3)
	set := func(k uint64, outcomes ...slotOutcome) {
		for i, oc := range outcomes {
			c.slotOutcomes[c.Members[i]][k] = map[types.ReplicaID]slotOutcome{slot: oc}
		}
	}
	set(1, slotOutcome{bit: false, digest: payload}, slotOutcome{bit: false})
	set(2, slotOutcome{bit: false}, slotOutcome{bit: false, digest: payload})
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("honest replicas on the same 0-decisions read as %d disagreements: %v", got, c.DisagreementsByInstance())
	}
	set(3, slotOutcome{bit: false, digest: payload}, slotOutcome{bit: true, digest: payload})
	set(4, slotOutcome{bit: true, digest: payload}, slotOutcome{bit: true, digest: other})
	if got := c.DisagreementsByInstance(); len(got) != 2 || got[3] != 1 || got[4] != 1 {
		t.Fatalf("disagreements by instance = %v, want one each at 3 and 4", got)
	}
}
