package scenario

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Builder constructs a registered campaign for a committee size and seed.
type Builder struct {
	Name        string
	Description string
	Build       func(n int, seed int64) Scenario
}

// builders is the ordered registry; Names preserves
// registration order so reports are deterministic.
var builders = []Builder{
	{
		Name: "attack-detect-exclude-merge",
		Description: "binary consensus attack behind a staged honest partition: " +
			"fork, heal, detect, exclude the coalition, merge the branches",
		Build: buildAttackDetectExcludeMerge(adversary.AttackBinary),
	},
	{
		Name: "rbcast-fork-merge",
		Description: "reliable-broadcast equivocation behind a staged partition, " +
			"then the same detect/exclude/merge recovery arc",
		Build: buildAttackDetectExcludeMerge(adversary.AttackRBCast),
	},
	{
		Name: "partial-coalition",
		Description: "a coalition too small to sustain two branches attacks " +
			"behind a partition and achieves nothing: no disagreement, no fork",
		Build: buildPartialCoalition,
	},
	{
		Name: "churn-under-load",
		Description: "waves of benign crash/wake churn while the chain keeps " +
			"committing: throughput dips, no safety impact",
		Build: buildChurnUnderLoad,
	},
	{
		Name: "partition-then-heal",
		Description: "an honest network split stalls both halves below quorum, " +
			"then heals: liveness pauses and recovers, safety holds",
		Build: buildPartitionThenHeal,
	},
	{
		Name: "slow-proposer",
		Description: "one correct replica delivers everything a second late: " +
			"rounds stretch but consensus proceeds without it",
		Build: buildSlowProposer,
	},
	{
		Name: "crash-recover-catchup",
		Description: "a replica is killed mid-load, restarts on the chain it " +
			"had committed and catches up to the honest chain digest",
		Build: buildCrashRecoverCatchup,
	},
}

// Names lists the registered campaigns in registration order.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.Name
	}
	return out
}

// Build constructs a registered campaign by name, stamping the
// registry description onto the scenario.
func Build(name string, n int, seed int64) (Scenario, error) {
	for _, b := range builders {
		if b.Name == name {
			s := b.Build(n, seed)
			if s.Description == "" {
				s.Description = b.Description
			}
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown campaign %q (have %v)", name, Names())
}

// ScenarioBatchTxs is the claimed per-proposal batch used by every
// campaign: large enough that the cost model's signature verification
// shapes round times, small enough that long multi-phase runs stay fast.
const ScenarioBatchTxs = 1000

// baseOpts is the cluster configuration shared by every campaign: the
// attack regime (harness.AttackRegime) with the scenario batch.
func baseOpts(n int, seed int64) harness.Options {
	opts := harness.AttackRegime(n, seed)
	opts.BatchTxs = ScenarioBatchTxs
	opts.BatchBytes = 400 * ScenarioBatchTxs
	return opts
}

// subThresholdCoalition is the largest d that cannot sustain a fork
// (adversary.MaxBranches == 1): the "partial coalition" below the
// forking threshold.
func subThresholdCoalition(n int) int {
	d := 1
	for x := 1; x < n; x++ {
		if adversary.MaxBranches(n, x) != 1 {
			break
		}
		d = x
	}
	return d
}

// buildAttackDetectExcludeMerge stages the full Fig. 2 arc for either
// coalition attack: the honest partition is a fault of the first phase
// only, so healing it is what lets cross-partition evidence flow.
func buildAttackDetectExcludeMerge(attack adversary.Attack) func(n int, seed int64) Scenario {
	return func(n int, seed int64) Scenario {
		opts := baseOpts(n, seed)
		opts.Deceitful = adversary.DeceitfulCount(n)
		opts.Attack = attack
		opts.MaxInstances = 4
		// A 5 s stall (§5.3's catastrophic delay) keeps each partition
		// deciding alone for the whole fork phase; healing it is what
		// lets the conflicting certificates cross.
		partition := &CoalitionPartition{Extra: 5 * time.Second}
		name := "attack-detect-exclude-merge"
		if attack == adversary.AttackRBCast {
			name = "rbcast-fork-merge"
		}
		return Scenario{
			Name: name,
			Opts: opts,
			Phases: []Phase{
				{Name: "fork", Duration: 6 * time.Second, Faults: []Fault{partition}},
				{Name: "heal-detect", Duration: 6 * time.Second},
				{Name: "exclude-include", Duration: 12 * time.Second},
			},
			Drain: 10 * time.Minute,
		}
	}
}

// buildPartialCoalition attacks with a coalition below the forking
// threshold: MaxBranches is 1, so the equivocation degenerates into
// consistent votes — no disagreement, no PoFs, the chain just commits.
// The coalition plan has a single honest partition (CoalitionPartition
// would be a no-op), so the attack phase stalls an explicit honest
// split instead: even with the network genuinely degraded, a
// sub-threshold coalition cannot fork.
func buildPartialCoalition(n int, seed int64) Scenario {
	opts := baseOpts(n, seed)
	opts.Deceitful = subThresholdCoalition(n)
	opts.Attack = adversary.AttackBinary
	opts.MaxInstances = 20
	opts.PoolSize = 1 // no membership change can trigger
	partition := &Partition{Groups: simnet.HonestHalves(n, opts.Deceitful), Extra: 800 * time.Millisecond}
	return Scenario{
		Name: "partial-coalition",
		Opts: opts,
		Phases: []Phase{
			{Name: "attack", Duration: 12 * time.Second, Faults: []Fault{partition}},
			{Name: "steady", Duration: 12 * time.Second},
		},
		Drain: 2 * time.Minute,
	}
}

// buildChurnUnderLoad sleeps two successive waves of benign replicas
// under continuous load. A replica that slept through an instance stays
// behind after waking (a plain sleeper never requests catch-up — that
// is wired for pool joiners and disk-recovered replicas, see
// crash-recover-catchup), so the waves are sized to keep
// sleepers-plus-laggards within the quorum margin n − ⌈2n/3⌉ and
// commits continue throughout.
func buildChurnUnderLoad(n int, seed int64) Scenario {
	opts := baseOpts(n, seed)
	opts.MaxInstances = 24
	opts.CoordTimeout = harness.SteadyRounds
	opts.PoolSize = 1
	wave := (n - types.Quorum(n)) / 2
	if wave < 1 {
		wave = 1
	}
	waveA := make([]types.ReplicaID, 0, wave)
	waveB := make([]types.ReplicaID, 0, wave)
	for i := 0; i < wave; i++ {
		waveA = append(waveA, types.ReplicaID(n-i))
		waveB = append(waveB, types.ReplicaID(n-wave-i))
	}
	return Scenario{
		Name: "churn-under-load",
		Opts: opts,
		Phases: []Phase{
			{Name: "warmup", Duration: 8 * time.Second},
			{Name: "churn-a", Duration: 10 * time.Second, Faults: []Fault{&Sleep{IDs: waveA}}},
			{Name: "churn-b", Duration: 10 * time.Second, Faults: []Fault{&Sleep{IDs: waveB}}},
			{Name: "recover", Duration: 12 * time.Second},
		},
	}
}

// buildPartitionThenHeal splits the honest committee in half with a 3 s
// stall: neither half reaches the ⌈2n/3⌉ quorum, so commits pause until
// the stalled traffic lands after the heal.
func buildPartitionThenHeal(n int, seed int64) Scenario {
	opts := baseOpts(n, seed)
	opts.MaxInstances = 24
	opts.CoordTimeout = harness.SteadyRounds
	opts.PoolSize = 1
	split := &Partition{Groups: simnet.HonestHalves(n, 0), Extra: 3 * time.Second}
	return Scenario{
		Name: "partition-then-heal",
		Opts: opts,
		Phases: []Phase{
			{Name: "healthy", Duration: 8 * time.Second},
			{Name: "partitioned", Duration: 12 * time.Second, Faults: []Fault{split}},
			{Name: "healed", Duration: 12 * time.Second},
		},
	}
}

// buildCrashRecoverCatchup kills the highest-ID replica mid-load —
// process down, in-memory consensus state gone — and restarts it one
// phase later: the new incarnation restores the chain it had committed
// (the synthetic workload's whole state, harness.Cluster.Restart),
// rejoins, and pulls the instances it missed through
// certificate-verified catch-up. The
// golden pins that it ends in full digest agreement with the honest
// chain and that the recovery produces zero disagreements.
func buildCrashRecoverCatchup(n int, seed int64) Scenario {
	opts := baseOpts(n, seed)
	opts.MaxInstances = 24
	opts.CoordTimeout = harness.SteadyRounds
	opts.PoolSize = 1
	victim := types.ReplicaID(n)
	return Scenario{
		Name:         "crash-recover-catchup",
		Opts:         opts,
		VerifyChains: []types.ReplicaID{victim},
		Phases: []Phase{
			{Name: "warmup", Duration: 6 * time.Second},
			{Name: "crashed", Duration: 10 * time.Second, Faults: []Fault{&CrashRestart{IDs: []types.ReplicaID{victim}}}},
			{Name: "catchup", Duration: 10 * time.Second},
		},
		// Long enough at n=18, where the restarted replica verifies sixteen
		// blocks of seventeen proposals before it is level (150 s).
		Drain: 3 * time.Minute,
	}
}

// buildSlowProposer delays everything the highest-ID replica sends by one
// second: its slot times out or decides late, the rest of the committee
// carries on.
func buildSlowProposer(n int, seed int64) Scenario {
	opts := baseOpts(n, seed)
	opts.MaxInstances = 24
	opts.CoordTimeout = harness.SteadyRounds
	opts.PoolSize = 1
	slow := &SlowReplica{ID: types.ReplicaID(n), Extra: time.Second}
	return Scenario{
		Name: "slow-proposer",
		Opts: opts,
		Phases: []Phase{
			{Name: "healthy", Duration: 8 * time.Second},
			{Name: "slow", Duration: 12 * time.Second, Faults: []Fault{slow}},
			{Name: "recovered", Duration: 10 * time.Second},
		},
	}
}
