package harness

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/types"
)

func fastCoordTimeout(r types.Round) time.Duration {
	return 100 * time.Millisecond * time.Duration(r+1)
}

func TestHappyPathAgreement(t *testing.T) {
	c, err := New(Options{
		N:            7,
		Accountable:  true,
		Recover:      true,
		MaxInstances: 4,
		BaseLatency:  latency.Uniform(5*time.Millisecond, 25*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(10 * time.Minute)
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("disagreements = %d, want 0", got)
	}
	if got := c.AgreedInstances(); got != 4 {
		t.Fatalf("agreed instances = %d, want 4", got)
	}
	for _, id := range c.Members {
		if n := len(c.Commits[id]); n != 4 {
			t.Fatalf("replica %v committed %d instances, want 4", id, n)
		}
	}
}

func TestHappyPathFinality(t *testing.T) {
	c, err := New(Options{
		N:            7,
		Accountable:  true,
		Recover:      true,
		MaxInstances: 2,
		// δ̂ = 5/9: finality needs > (5/9+1/3)·7 ≈ 6.2 ⇒ all 7 confirmations.
		BaseLatency:  latency.Uniform(5*time.Millisecond, 25*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(10 * time.Minute)
	for _, id := range c.Members {
		for k := uint64(1); k <= 2; k++ {
			if _, ok := c.Finals[id][k]; !ok {
				t.Fatalf("replica %v never finalized instance %d", id, k)
			}
		}
	}
}

// TestBinaryConsensusAttackRecovery is the paper's headline scenario:
// d = ⌈5n/9⌉−1 deceitful replicas split the honest replicas into
// partitions, force a disagreement, get detected via certificate
// cross-checking, excluded by the exclusion consensus, replaced by pool
// replicas — after which consensus works again (Def. 3 Convergence).
func TestBinaryConsensusAttackRecovery(t *testing.T) {
	n := 9
	d := 4 // ⌈5·9/9⌉−1
	c, err := New(Options{
		N:              n,
		Deceitful:      d,
		Attack:         adversary.AttackBinary,
		Accountable:    true,
		Recover:        true,
		MaxInstances:   6,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(3 * time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)

	if got := c.Disagreements(); got == 0 {
		t.Fatal("attack produced no disagreement; partition delay should have allowed one")
	}
	if _, ok := c.DetectionTime(); !ok {
		t.Fatal("honest replicas never detected fd deceitful replicas")
	}
	culprits := c.CulpritsDetected()
	for _, id := range culprits {
		if !c.Coalition.IsDeceitful(id) {
			t.Fatalf("honest replica %v was proven deceitful: accountability unsound", id)
		}
	}
	// At least one membership change completed at every honest replica.
	for _, id := range c.HonestMembers() {
		if len(c.ChangeResults[id]) == 0 {
			t.Fatalf("honest replica %v completed no membership change", id)
		}
		res := c.ChangeResults[id][0]
		if len(res.Excluded) < types.FaultThreshold(n) {
			t.Fatalf("only %d replicas excluded, want ≥ %d", len(res.Excluded), types.FaultThreshold(n))
		}
		for _, ex := range res.Excluded {
			if !c.Coalition.IsDeceitful(ex) {
				t.Fatalf("honest replica %v was excluded", ex)
			}
		}
		if len(res.Included) != len(res.Excluded) {
			t.Fatalf("included %d ≠ excluded %d: committee size not restored",
				len(res.Included), len(res.Excluded))
		}
	}
	if !c.ConvergedAgreement() {
		t.Fatal("honest replicas did not converge to a common committee with δ < 1/3")
	}
}

// TestRBCastAttackRecovery drives the reliable broadcast attack: the
// deceitful proposers send different proposals to different partitions.
func TestRBCastAttackRecovery(t *testing.T) {
	n := 9
	d := 4
	c, err := New(Options{
		N:              n,
		Deceitful:      d,
		Attack:         adversary.AttackRBCast,
		Accountable:    true,
		Recover:        true,
		MaxInstances:   6,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(3 * time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)

	if got := c.Disagreements(); got == 0 {
		t.Fatal("rbcast attack produced no disagreement")
	}
	for _, id := range c.CulpritsDetected() {
		if !c.Coalition.IsDeceitful(id) {
			t.Fatalf("honest replica %v was proven deceitful", id)
		}
	}
	if _, ok := c.DetectionTime(); !ok {
		t.Fatal("rbcast attack was never detected")
	}
	if !c.ConvergedAgreement() {
		t.Fatal("no convergence after rbcast attack")
	}
}

// TestPolygraphBaselineDetectsButCannotRecover checks the Accountable-
// without-Recover mode: fraud is proven but no membership change runs.
func TestPolygraphBaselineDetectsButCannotRecover(t *testing.T) {
	c, err := New(Options{
		N:              9,
		Deceitful:      4,
		Attack:         adversary.AttackBinary,
		Accountable:    true,
		Recover:        false,
		MaxInstances:   4,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(3 * time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	if c.Disagreements() == 0 {
		t.Fatal("attack produced no disagreement")
	}
	for _, id := range c.HonestMembers() {
		if len(c.ChangeResults[id]) != 0 {
			t.Fatal("Polygraph baseline must not run membership changes")
		}
	}
}

// crashBenign takes the last q committee members down before the cluster
// starts, the paper's q benign replicas, the way the scenario engine takes
// a replica down: off the network and out of the honest readings.
func crashBenign(c *Cluster, q int) {
	for _, id := range c.Members[len(c.Members)-q:] {
		c.Net.SetUp(id, false)
		c.ExcludeFromMetrics(id)
	}
}

func TestBenignCrashesDoNotBlockConsensus(t *testing.T) {
	c, err := New(Options{
		N:            10,
		Accountable:  true,
		Recover:      true,
		MaxInstances: 3,
		BaseLatency:  latency.Uniform(5*time.Millisecond, 25*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	crashBenign(c, 2)
	c.Start()
	c.RunUntilQuiet(10 * time.Minute)
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("disagreements = %d, want 0", got)
	}
	if got := c.AgreedInstances(); got != 3 {
		t.Fatalf("agreed instances = %d, want 3", got)
	}
}
