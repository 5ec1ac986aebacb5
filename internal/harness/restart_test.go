package harness

import (
	"maps"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/types"
)

// TestCrashRestartFromDiskCatchesUp is the harness half of the
// crash-recovery arc: a replica is killed mid-run (its protocol state
// gone), the cluster keeps committing without it, and the restarted
// incarnation restores the chain it had committed — all the synthetic
// workload keeps — and catches the tail up via certificate-verified
// CatchupResp, ending in full digest agreement with the honest chain.
func TestCrashRestartFromDiskCatchesUp(t *testing.T) {
	victim := types.ReplicaID(7)
	c, err := New(Options{
		N:            7,
		Accountable:  true,
		Recover:      true,
		MaxInstances: 12,
		BaseLatency:  latency.Uniform(5*time.Millisecond, 25*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ExcludeFromMetrics(victim)
	c.Start()

	// Let some instances commit, then kill the victim mid-load.
	c.Run(2 * time.Second)
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	beforeCrash := len(c.Commits[victim])
	if beforeCrash == 0 {
		t.Fatal("victim committed nothing before the crash; test needs a longer warmup")
	}
	c.Run(6 * time.Second)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	// The fresh incarnation must have restored the chain of the old one.
	if got := c.Replicas[victim].CommittedCount(); got < beforeCrash {
		t.Fatalf("restored %d instances, want ≥ %d", got, beforeCrash)
	}
	c.RunUntilQuiet(20 * time.Minute)

	want := c.State(c.HonestMembers()[0]).Chain
	if got := c.State(victim).Chain; !maps.Equal(got, want) {
		t.Fatalf("restarted replica holds %d instances, the honest chain %d, and they differ", len(got), len(want))
	}
	if len(want) < 12 {
		t.Fatalf("honest chain reached %d instances, want 12", len(want))
	}
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("disagreements = %d, want 0", got)
	}
}
