package scenario

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/load"
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
// drops, sum for delays) and disarm cleanly, and that SlowReplica and
// SlowReader delay what one replica sends and what it is sent.
func TestRuntimeFaultStack(t *testing.T) {
	c := testCluster(t, 4)

	drop12 := c.AddDrop(func(from, to types.ReplicaID, _ simnet.Message) bool {
		return from == 1 && to == 2
	})
	c.AddDrop(func(from, to types.ReplicaID, _ simnet.Message) bool {
		return from == 3
	})
	if !c.Net.DropRule(1, 2, nil) || !c.Net.DropRule(3, 4, nil) {
		t.Error("armed drop predicates must fire")
	}
	if c.Net.DropRule(2, 1, nil) {
		t.Error("unmatched traffic must pass")
	}
	drop12()
	if c.Net.DropRule(1, 2, nil) {
		t.Error("disarmed predicate must not fire")
	}
	if !c.Net.DropRule(3, 1, nil) {
		t.Error("remaining predicate must survive removal of another")
	}

	d1 := c.AddDelay(func(from, _ types.ReplicaID, _ simnet.Message) time.Duration {
		if from == 1 {
			return time.Second
		}
		return 0
	})
	c.AddDelay(func(_, to types.ReplicaID, _ simnet.Message) time.Duration {
		if to == 2 {
			return time.Second
		}
		return 0
	})
	if got := c.Net.DelayRule(1, 2, nil); got != 2*time.Second {
		t.Errorf("stacked delays must sum: got %v", got)
	}
	d1()
	if got := c.Net.DelayRule(1, 2, nil); got != time.Second {
		t.Errorf("after removal: got %v, want 1s", got)
	}

	// SlowReplica delays what 3 sends, SlowReader what 4 is sent; both
	// sum with the stack underneath (to 2: +1s).
	writer := &SlowReplica{ID: 3, Extra: 100 * time.Millisecond}
	reader := &SlowReader{ID: 4, Extra: 10 * time.Millisecond}
	writer.Apply(c)
	reader.Apply(c)
	for _, tc := range [][3]time.Duration{{3, 1, 100 * time.Millisecond}, {1, 4, 10 * time.Millisecond}, {3, 4, 110 * time.Millisecond}, {4, 3, 0}, {3, 2, time.Second + 100*time.Millisecond}} {
		if got := c.Net.DelayRule(types.ReplicaID(tc[0]), types.ReplicaID(tc[1]), nil); got != tc[2] {
			t.Errorf("%d→%d delayed %v, want %v", tc[0], tc[1], got, tc[2])
		}
	}
	reader.Revert(c)
	if c.Net.DelayRule(1, 4, nil) != 0 || c.Net.DelayRule(3, 1, nil) != 100*time.Millisecond {
		t.Error("reverting SlowReader must lift it and only it")
	}
}

// TestPartitionFaultModes checks both partition flavours: Extra == 0
// drops cross-group traffic, Extra > 0 delays it, and in-group or
// unlisted traffic is never touched.
func TestPartitionFaultModes(t *testing.T) {
	c := testCluster(t, 5)

	drop := &Partition{Groups: [][]types.ReplicaID{{1, 2}, {3, 4}}}
	drop.Apply(c)
	if !c.Net.DropRule(1, 3, nil) {
		t.Error("cross-group message must drop")
	}
	if c.Net.DropRule(1, 2, nil) || c.Net.DropRule(5, 1, nil) || c.Net.DropRule(3, 5, nil) {
		t.Error("in-group and unlisted traffic must pass")
	}
	drop.Revert(c)
	if c.Net.DropRule(1, 3, nil) {
		t.Error("healed partition must pass traffic")
	}

	stall := &Partition{Groups: [][]types.ReplicaID{{1, 2}, {3, 4}}, Extra: 3 * time.Second}
	stall.Apply(c)
	if got := c.Net.DelayRule(2, 4, nil); got != 3*time.Second {
		t.Errorf("cross-group delay %v, want 3s", got)
	}
	if got := c.Net.DelayRule(1, 2, nil); got != 0 {
		t.Errorf("in-group delay %v, want 0", got)
	}
	stall.Revert(c)
	if got := c.Net.DelayRule(2, 4, nil); got != 0 {
		t.Errorf("healed delay %v, want 0", got)
	}
}

// TestSleepExcludesFromMetrics checks that slept replicas leave the
// honest metric set permanently (they may lag after waking) while crash
// keeps them down and excluded.
func TestSleepExcludesFromMetrics(t *testing.T) {
	c := testCluster(t, 4)
	before := len(c.HonestMembers())

	sleep := &Sleep{IDs: []types.ReplicaID{4}}
	sleep.Apply(c)
	if got := len(c.HonestMembers()); got != before-1 {
		t.Errorf("honest count while asleep %d, want %d", got, before-1)
	}
	sleep.Revert(c)
	if got := len(c.HonestMembers()); got != before-1 {
		t.Errorf("a woken sleeper must stay excluded from metrics, got %d honest", got)
	}

	crash := &Crash{IDs: []types.ReplicaID{3}}
	crash.Apply(c)
	crash.Revert(c)
	if got := len(c.HonestMembers()); got != before-2 {
		t.Errorf("honest count after crash %d, want %d", got, before-2)
	}
}

// TestRegistryBuildsAllCampaigns checks that registration names are
// unique, that every registered campaign builds at the TCP committee
// sizes (5 and 9) and at both paper sizes with at least two phases, and
// that Build rejects unknown names.
func TestRegistryBuildsAllCampaigns(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("want >= 5 registered campaigns, have %d", len(names))
	}
	if all := append(Names(), WorkloadNames()...); len(slices.Compact(slices.Sorted(slices.Values(all)))) != len(all) {
		t.Errorf("a campaign name is registered twice: %v", all)
	}
	for _, n := range []int{5, 9, 18} {
		for _, name := range names {
			s, err := Build(name, n, 42)
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != name || s.Description == "" {
				t.Errorf("campaign %q builds scenario named %q, description %q", name, s.Name, s.Description)
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

// TestRunOnRefusesSimOnly pins the one substrate check: on a substrate
// other than the simulator, RunOn refuses a coalition, a payment
// workload and a SimOnly fault (plain or held from the start), naming
// it, before it builds anything (the build below would fail the test);
// link-level faults are accepted.
func TestRunOnRefusesSimOnly(t *testing.T) {
	refused := map[string]func(*Scenario){
		"coalition": func(s *Scenario) { s.Opts.Deceitful = 1 },
		"Workload":  func(s *Scenario) { s.Workload = &load.Workload{} },
		"*scenario.CoalitionPartition": func(s *Scenario) {
			s.Phases[0].Faults = []Fault{&CoalitionPartition{}}
		},
		"phase late: *scenario.CoalitionPartition": func(s *Scenario) {
			s.Phases = append(s.Phases, Phase{Name: "late", Faults: []Fault{&FromStart{&CoalitionPartition{}}}})
		},
	}
	for want, mutate := range refused {
		s := Scenario{Name: "refusal", Phases: []Phase{{Name: "p"}}}
		mutate(&s)
		_, err := RunOn(s, func(Scenario) (Runtime, error) {
			t.Errorf("%s: the substrate was built before the refusal", want)
			return nil, errors.New("built")
		})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "simulator only") {
			t.Errorf("RunOn returned %v, want a refusal naming %s", err, want)
		}
	}
	links := Scenario{Phases: []Phase{{Faults: []Fault{&Sleep{}, &Partition{}, &SlowReplica{}, &SlowReader{}, &CrashRestart{}, &Crash{}}}}}
	if err := Refusal(links); err != nil {
		t.Errorf("link-level faults refused: %v", err)
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
// restarted replica is never accused, the benign ones and the payment
// workloads stay in agreement.
func TestRegisteredCampaignsKeepInvariants(t *testing.T) {
	for _, name := range append(Names(), WorkloadNames()...) {
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

	violations := checkInvariants(c, 4, nil)
	foundD := false
	for _, v := range violations {
		if v.Invariant == "d" {
			foundD = true
		}
	}
	if !foundD {
		t.Errorf("accusation against %v outside the corrupt set not flagged: %v", victim, violations)
	}
	if vs := checkInvariants(c, 4, map[types.ReplicaID]bool{victim: true}); len(vs) != 0 {
		t.Errorf("accusation inside the corrupt set flagged: %v", vs)
	}
}

// TestWorkloadRefusesCrashRestart pins that a payment workload does not
// run beside a CrashRestart fault, listed plainly or held from the start:
// the harness would restart the replica behind zlb.Cluster, whose
// Submit would keep feeding the dead replica's pool.
func TestWorkloadRefusesCrashRestart(t *testing.T) {
	for _, fault := range []Fault{
		&CrashRestart{IDs: []types.ReplicaID{4}},
		&FromStart{&CrashRestart{IDs: []types.ReplicaID{4}}},
	} {
		s := Scenario{
			Name:   "crash-under-load",
			Opts:   paymentOpts(4, 1),
			Phases: []Phase{{Name: "crashed", Duration: time.Second, Faults: []Fault{fault}}},
			Workload: &load.Workload{
				Classes: []load.Class{{Name: "a", Accounts: 1, Fee: 1}},
				Rates:   [][]float64{{10}},
			},
		}
		if _, err := Run(s); err == nil || !strings.Contains(err.Error(), "CrashRestart") {
			t.Errorf("%T: Run returned %v, want a refusal", fault, err)
		}
	}
}
