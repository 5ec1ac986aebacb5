package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

func testCluster(t *testing.T, n int) *harness.Cluster {
	t.Helper()
	c, err := harness.New(harness.Options{
		N:           n,
		Accountable: true,
		Recover:     true,
		BaseLatency: latency.Fixed(10 * time.Millisecond),
		Seed:        1,
		PoolSize:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRuntimeFaultStack checks that armed predicates compose (OR for
// drops, sum for delays) and disarm cleanly.
func TestRuntimeFaultStack(t *testing.T) {
	c := testCluster(t, 4)
	rt := NewRuntime(c)

	drop12 := rt.AddDrop(func(from, to types.ReplicaID, _ simnet.Message) bool {
		return from == 1 && to == 2
	})
	rt.AddDrop(func(from, to types.ReplicaID, _ simnet.Message) bool {
		return from == 3
	})
	if !c.Net.DropRule(1, 2, nil) || !c.Net.DropRule(3, 4, nil) {
		t.Error("armed drop predicates must fire")
	}
	if c.Net.DropRule(2, 1, nil) {
		t.Error("unmatched traffic must pass")
	}
	rt.RemoveDrop(drop12)
	if c.Net.DropRule(1, 2, nil) {
		t.Error("disarmed predicate must not fire")
	}
	if !c.Net.DropRule(3, 1, nil) {
		t.Error("remaining predicate must survive removal of another")
	}

	d1 := rt.AddDelay(func(from, _ types.ReplicaID, _ simnet.Message) time.Duration {
		if from == 1 {
			return time.Second
		}
		return 0
	})
	rt.AddDelay(func(_, to types.ReplicaID, _ simnet.Message) time.Duration {
		if to == 2 {
			return time.Second
		}
		return 0
	})
	if got := c.Net.DelayRule(1, 2, nil); got != 2*time.Second {
		t.Errorf("stacked delays must sum: got %v", got)
	}
	rt.RemoveDelay(d1)
	if got := c.Net.DelayRule(1, 2, nil); got != time.Second {
		t.Errorf("after removal: got %v, want 1s", got)
	}
}

// TestPartitionFaultModes checks both partition flavours: Extra == 0
// drops cross-group traffic, Extra > 0 delays it, and in-group or
// unlisted traffic is never touched.
func TestPartitionFaultModes(t *testing.T) {
	c := testCluster(t, 5)
	rt := NewRuntime(c)

	drop := &Partition{Groups: [][]types.ReplicaID{{1, 2}, {3, 4}}}
	drop.Apply(rt)
	if !c.Net.DropRule(1, 3, nil) {
		t.Error("cross-group message must drop")
	}
	if c.Net.DropRule(1, 2, nil) || c.Net.DropRule(5, 1, nil) || c.Net.DropRule(3, 5, nil) {
		t.Error("in-group and unlisted traffic must pass")
	}
	drop.Revert(rt)
	if c.Net.DropRule(1, 3, nil) {
		t.Error("healed partition must pass traffic")
	}

	stall := &Partition{Groups: [][]types.ReplicaID{{1, 2}, {3, 4}}, Extra: 3 * time.Second}
	stall.Apply(rt)
	if got := c.Net.DelayRule(2, 4, nil); got != 3*time.Second {
		t.Errorf("cross-group delay %v, want 3s", got)
	}
	if got := c.Net.DelayRule(1, 2, nil); got != 0 {
		t.Errorf("in-group delay %v, want 0", got)
	}
	stall.Revert(rt)
	if got := c.Net.DelayRule(2, 4, nil); got != 0 {
		t.Errorf("healed delay %v, want 0", got)
	}
}

// TestSleepExcludesFromMetrics checks that slept replicas leave the
// honest metric set permanently (they may lag after waking) while crash
// keeps them down and excluded.
func TestSleepExcludesFromMetrics(t *testing.T) {
	c := testCluster(t, 4)
	rt := NewRuntime(c)
	before := len(c.HonestMembers())

	sleep := &Sleep{IDs: []types.ReplicaID{4}}
	sleep.Apply(rt)
	if got := len(c.HonestMembers()); got != before-1 {
		t.Errorf("honest count while asleep %d, want %d", got, before-1)
	}
	sleep.Revert(rt)
	if got := len(c.HonestMembers()); got != before-1 {
		t.Errorf("a woken sleeper must stay excluded from metrics, got %d honest", got)
	}

	crash := &Crash{IDs: []types.ReplicaID{3}}
	crash.Apply(rt)
	crash.Revert(rt)
	if got := len(c.HonestMembers()); got != before-2 {
		t.Errorf("honest count after crash %d, want %d", got, before-2)
	}
}

// TestRegistryBuildsAllCampaigns checks every registered campaign builds
// at both paper committee sizes with at least two phases, and that Build
// rejects unknown names.
func TestRegistryBuildsAllCampaigns(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("want >= 5 registered campaigns, have %d", len(names))
	}
	for _, n := range []int{9, 18} {
		for _, name := range names {
			s, err := Build(name, n, 42)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != name {
				t.Errorf("campaign %q builds scenario named %q", name, s.Name)
			}
			if len(s.Phases) < 2 {
				t.Errorf("campaign %q has %d phases, want >= 2", name, len(s.Phases))
			}
			if s.Opts.N != n {
				t.Errorf("campaign %q built with N=%d", name, s.Opts.N)
			}
		}
	}
	if _, err := Build("no-such-campaign", 9, 42); err == nil {
		t.Error("unknown campaign must error")
	}
}

// TestSubThresholdCoalitionCannotFork pins the partial-coalition sizing
// invariant: the chosen d is the largest that cannot sustain a second
// branch.
func TestSubThresholdCoalitionCannotFork(t *testing.T) {
	for _, n := range []int{4, 9, 18, 27} {
		d := subThresholdCoalition(n)
		if got := adversary.MaxBranches(n, d); got != 1 {
			t.Errorf("n=%d d=%d: MaxBranches=%d, want 1", n, d, got)
		}
		if next := adversary.MaxBranches(n, d+1); next == 1 {
			t.Errorf("n=%d: d=%d is not maximal (d+1 still cannot fork)", n, d)
		}
	}
}

// TestRunDeterministic runs the cheapest campaign twice and requires
// bit-identical formatted metrics — the engine-level reproducibility
// contract (the full per-campaign goldens live in the repository root's
// determinism_test.go).
func TestRunDeterministic(t *testing.T) {
	run := func() string {
		s, err := Build("partition-then-heal", 9, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two fixed-seed runs differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if !strings.Contains(a, "partitioned") {
		t.Errorf("formatted result misses phase table:\n%s", a)
	}
}

// TestAttackCampaignRecovers runs the flagship campaign end to end and
// asserts the paper's full arc: a fork appears, the coalition is
// detected, excluded, and the honest committees converge (Def. 3).
func TestAttackCampaignRecovers(t *testing.T) {
	s, err := Build("attack-detect-exclude-merge", 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disagreements == 0 {
		t.Error("fork phase must produce disagreements")
	}
	if res.Culprits == 0 {
		t.Error("detection must identify culprits")
	}
	if !res.Converged {
		t.Error("campaign must end converged (Def. 3)")
	}
	var sawDetect, sawExclude, sawInclude bool
	for _, p := range res.Phases {
		sawDetect = sawDetect || p.DetectSec >= 0
		sawExclude = sawExclude || p.ExcludeSec >= 0
		sawInclude = sawInclude || p.IncludeSec >= 0
	}
	if !sawDetect || !sawExclude || !sawInclude {
		t.Errorf("missing arc events: detect=%v exclude=%v include=%v", sawDetect, sawExclude, sawInclude)
	}
}

// TestRegisteredCampaignsKeepInvariants runs every registered campaign at
// n=9, seed 42 — the goldens' size and seed — and requires the paper's
// four invariants to hold on each: the fork campaigns merge with ≥ ⌈n/3⌉
// proven culprits and nobody honest accused, the crash-recover campaign's
// restarted replica is never accused, the benign ones stay in agreement.
func TestRegisteredCampaignsKeepInvariants(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, 9, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s: invariant violations:\n%s", name, res.Format())
		}
	}
}

// TestCheckInvariantsFlagsHonestAccusation verifies the checker itself:
// a PoF planted against a replica outside the corrupt set must surface as
// a violation of invariant (d), and the same PoF inside the corrupt set
// must not.
func TestCheckInvariantsFlagsHonestAccusation(t *testing.T) {
	c := testCluster(t, 4)
	victim := c.Members[0]
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindAux,
		Instance: 1, Slot: 2, Round: 0,
		Value: accountability.BoolDigest(false),
	}
	a, err := accountability.SignStatement(c.Signers[victim], stmt)
	if err != nil {
		t.Fatal(err)
	}
	stmt.Value = accountability.BoolDigest(true)
	b, err := accountability.SignStatement(c.Signers[victim], stmt)
	if err != nil {
		t.Fatal(err)
	}
	pof, err := accountability.NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	holder := c.Members[1]
	if !c.Replicas[holder].Log().AddPoF(pof) {
		t.Fatal("planted PoF not accepted")
	}

	violations := checkInvariants(c, nil)
	foundD := false
	for _, v := range violations {
		if v.Invariant == "d" {
			foundD = true
		}
	}
	if !foundD {
		t.Errorf("accusation against %v outside the corrupt set not flagged: %v", victim, violations)
	}
	if vs := checkInvariants(c, map[types.ReplicaID]bool{victim: true}); len(vs) != 0 {
		t.Errorf("accusation inside the corrupt set flagged: %v", vs)
	}
}
