package scenario

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/load"
	"github.com/zeroloss/zlb/internal/mempool"
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
	{
		Name: "flapping-peer",
		Description: "one replica's links go down and come back three times: " +
			"the rest commit without it, and each time it returns it catches up",
		Build: buildFlappingPeer,
	},
	{
		Name: "slow-reader-starvation",
		Description: "everything sent to one replica arrives late: the quorum " +
			"keeps committing, the reader lags, and it converges once the fault lifts",
		Build: buildSlowReaderStarvation,
	},
	{
		Name: "restart-storm",
		Description: "two replicas are killed and restarted in turn: each recovers " +
			"its chain, catches up the missed tail, and the chain never forks",
		Build: buildRestartStorm,
	},
}

// workloads is the ordered registry of the open-loop payment campaigns:
// each runs a Workload and reports submit-to-commit latency. A baseline
// registration reruns its campaign's schedule with no admission policy
// under the campaign's name, so that the two reports print together.
var workloads = []Builder{
	{
		Name:        "sybil-spam-flood",
		Description: "Sybil accounts flood the ingress at minimum fee while honest users keep paying; admission control must bound the honest tail",
		Build:       sybilSpamFlood(sybilAdmission()),
	},
	{
		Name:        "sybil-spam-flood-baseline",
		Description: "sybil-spam-flood's schedule with arrival-order pools: the tail admission control is measured against",
		Build:       sybilSpamFlood(mempool.Policy{}),
	},
	{
		Name:        "fee-squeeze",
		Description: "retail traffic over-subscribes a small pool while priority payers bid above it; fee-rate ordering must keep the priority tail flat",
		Build:       feeSqueeze,
	},
	{
		Name:        "partition-exhaustion",
		Description: "a stalled partition fills the bounded pool; eviction sheds the low-fee backlog and the cluster recovers after healing",
		Build:       partitionExhaustion,
	},
}

// Names lists the registered fault campaigns in registration order.
func Names() []string { return names(builders) }

// WorkloadNames lists the registered payment-workload campaigns in
// registration order.
func WorkloadNames() []string { return names(workloads) }

func names(bs []Builder) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// Build constructs a registered campaign by name, stamping the registry
// name and description onto the scenario where it sets none.
func Build(name string, n int, seed int64) (Scenario, error) {
	for _, bs := range [][]Builder{builders, workloads} {
		for _, b := range bs {
			if b.Name == name {
				s := b.Build(n, seed)
				if s.Name == "" {
					s.Name = b.Name
				}
				if s.Description == "" {
					s.Description = b.Description
				}
				return s, nil
			}
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown campaign %q (have %v and %v)", name, Names(), WorkloadNames())
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
		return Scenario{
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
	opts := steadyOpts(n, seed)
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
	opts := steadyOpts(n, seed)
	split := &Partition{Groups: simnet.HonestHalves(n, 0), Extra: 3 * time.Second}
	return Scenario{
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
	opts := steadyOpts(n, seed)
	victim := types.ReplicaID(n)
	return Scenario{
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
	opts := steadyOpts(n, seed)
	slow := &SlowReplica{ID: types.ReplicaID(n), Extra: time.Second}
	return Scenario{
		Opts: opts,
		Phases: []Phase{
			{Name: "healthy", Duration: 8 * time.Second},
			{Name: "slow", Duration: 12 * time.Second, Faults: []Fault{slow}},
			{Name: "recovered", Duration: 10 * time.Second},
		},
	}
}

// steadyOpts is the configuration of the benign campaigns: no coalition,
// steady rounds, and no standby to include.
func steadyOpts(n int, seed int64) harness.Options {
	opts := baseOpts(n, seed)
	opts.MaxInstances = 24
	opts.CoordTimeout = harness.SteadyRounds
	opts.PoolSize = 1
	return opts
}

// buildFlappingPeer takes the highest-ID replica's links down for three
// short windows under load. The rest hold the quorum and commit through
// each window; each time the links come back the replica catches up.
func buildFlappingPeer(n int, seed int64) Scenario {
	victim := []types.ReplicaID{types.ReplicaID(n)}
	phases := []Phase{{Name: "warmup", Duration: 3 * time.Second}}
	for i := 1; i <= 3; i++ {
		phases = append(phases,
			Phase{Name: fmt.Sprintf("down-%d", i), Duration: 2 * time.Second, Faults: []Fault{&Sleep{IDs: victim}}},
			Phase{Name: fmt.Sprintf("up-%d", i), Duration: 2 * time.Second})
	}
	return Scenario{Opts: steadyOpts(n, seed), Phases: phases}
}

// buildSlowReaderStarvation delays everything sent to replica 2 by a
// second: the others keep the quorum and commit without waiting for it,
// and once the fault lifts its backlog lands and it converges.
func buildSlowReaderStarvation(n int, seed int64) Scenario {
	return Scenario{
		Opts: steadyOpts(n, seed),
		Phases: []Phase{
			{Name: "warmup", Duration: 3 * time.Second},
			{Name: "starved", Duration: 4 * time.Second, Faults: []Fault{&SlowReader{ID: 2, Extra: time.Second}}},
			{Name: "drained", Duration: 4 * time.Second},
		},
	}
}

// buildRestartStorm kills and restarts the two highest-ID replicas in
// turn, with a phase between for the first to rejoin: each restarted
// replica restores its chain and catches up through certificate-verified
// catch-up, and both end on the honest chain.
func buildRestartStorm(n int, seed int64) Scenario {
	a, b := types.ReplicaID(n), types.ReplicaID(n-1)
	return Scenario{
		Opts:         steadyOpts(n, seed),
		VerifyChains: []types.ReplicaID{a, b},
		Phases: []Phase{
			{Name: "warmup", Duration: 3 * time.Second},
			{Name: "restart-a", Duration: 3 * time.Second, Faults: []Fault{&CrashRestart{IDs: []types.ReplicaID{a}}}},
			{Name: "rejoin-a", Duration: 3 * time.Second},
			{Name: "restart-b", Duration: 3 * time.Second, Faults: []Fault{&CrashRestart{IDs: []types.ReplicaID{b}}}},
			{Name: "rejoin-b", Duration: 3 * time.Second},
		},
		Drain: 3 * time.Minute,
	}
}

// paymentOpts is a workload campaign's cluster configuration: the payment
// cluster takes only the committee size, the seed and the chain bound
// from it, and the chain is effectively unbounded at campaign scale.
func paymentOpts(n int, seed int64) harness.Options {
	return harness.Options{N: n, Seed: seed, MaxInstances: 1 << 16}
}

// sybilAdmission is the policy the spam-flood campaign defends with:
// fee-rate ordering plus per-account caps and rate limits. Sybil
// accounts pay the floor fee, so honest transactions always outrank
// them, and no single Sybil account can hold more than a sliver of the
// pool.
func sybilAdmission() mempool.Policy {
	return mempool.Policy{
		MaxTxs:         1200,
		MaxPerAccount:  10,
		RatePerAccount: 15,
		RateWindow:     time.Second,
		MinFee:         1,
		ReplaceBumpPct: 10,
		PriorityOrder:  true,
	}
}

// sybilSpamFlood: honest users at a steady 30 tx/s while 30 Sybil
// accounts flood 600 tx/s at the minimum fee for six seconds. The
// admission run and the arrival-order baseline run the identical
// schedule; the acceptance criterion is the honest class's bounded p99
// under admission while the baseline tail degrades.
func sybilSpamFlood(policy mempool.Policy) func(n int, seed int64) Scenario {
	return func(n int, seed int64) Scenario {
		return Scenario{
			Name: "sybil-spam-flood",
			Opts: paymentOpts(n, seed),
			Phases: []Phase{
				{Name: "warmup", Duration: 2 * time.Second},
				{Name: "flood", Duration: 6 * time.Second},
				{Name: "cooldown", Duration: 2 * time.Second},
			},
			Drain: 20 * time.Second,
			Workload: &load.Workload{
				Classes: []load.Class{
					{Name: "honest", Accounts: 6, Fee: 20},
					{Name: "sybil", Accounts: 30, Fee: 1},
				},
				Rates:  [][]float64{{30, 0}, {30, 600}, {30, 0}},
				Policy: policy,
				// Small proposals (~340 tx/s of commit capacity at this
				// committee size: 8.6 blocks a second since an instance is
				// one binary round) put the 630 tx/s flood firmly past
				// saturation: the baseline's arrival-order backlog is what
				// degrades the honest tail.
				BatchTxs: 40,
			},
		}
	}
}

// feeSqueeze: a small bounded pool, retail traffic over-subscribing it
// at fee 2 while a few priority payers bid fee 40. Fee-rate ordering
// plus eviction keeps the priority class's tail flat at the retail
// class's expense.
func feeSqueeze(n int, seed int64) Scenario {
	return Scenario{
		Opts: paymentOpts(n, seed),
		Phases: []Phase{
			{Name: "calm", Duration: 2 * time.Second},
			{Name: "squeeze", Duration: 6 * time.Second},
			{Name: "settle", Duration: 2 * time.Second},
		},
		Drain: 20 * time.Second,
		Workload: &load.Workload{
			Classes: []load.Class{
				{Name: "retail", Accounts: 10, Fee: 2},
				{Name: "priority", Accounts: 4, Fee: 40},
			},
			Rates: [][]float64{{40, 8}, {300, 40}, {40, 8}},
			Policy: mempool.Policy{
				MaxTxs:         600,
				MinFee:         1,
				ReplaceBumpPct: 10,
				PriorityOrder:  true,
			},
			// ~220 tx/s of commit capacity (8.6 blocks a second) against
			// 340 tx/s offered during the squeeze: the bounded pool must
			// arbitrate by fee rate.
			BatchTxs: 25,
		},
	}
}

// partitionExhaustion: steady mixed-fee traffic, then a partition stalls
// commits for four seconds while arrivals keep coming — the bounded pool
// fills, evicts the bulk class's low-fee backlog in favor of the vip
// class, and drains after the partition heals.
func partitionExhaustion(n int, seed int64) Scenario {
	half := n/2 + 1
	groups := [][]types.ReplicaID{{}, {}}
	for id := 1; id <= n; id++ {
		g := 0
		if id > half {
			g = 1
		}
		groups[g] = append(groups[g], types.ReplicaID(id))
	}
	stall := &Partition{Groups: groups, Extra: 2 * time.Second}
	return Scenario{
		Opts: paymentOpts(n, seed),
		Phases: []Phase{
			{Name: "steady", Duration: 2 * time.Second},
			{Name: "partitioned", Duration: 4 * time.Second, Faults: []Fault{stall}},
			{Name: "healed", Duration: 4 * time.Second},
		},
		Drain: 20 * time.Second,
		Workload: &load.Workload{
			Classes: []load.Class{
				{Name: "bulk", Accounts: 8, Fee: 2},
				{Name: "vip", Accounts: 3, Fee: 30},
			},
			Rates: [][]float64{{80, 10}, {80, 10}, {80, 10}},
			Policy: mempool.Policy{
				MaxTxs:         300,
				MinFee:         1,
				ReplaceBumpPct: 10,
				PriorityOrder:  true,
			},
			BatchTxs: 150,
		},
	}
}
