// Command scenarios is a walkthrough of the staged-scenario engine
// (internal/scenario). It first replays a registered campaign — the
// paper's full attack → detection → exclusion → merge arc — and then
// composes a custom campaign from the fault primitives: a coalition
// attack in phase one, benign churn in phase two, and a clean recovery
// window, all over deterministic virtual time.
//
//	go run ./examples/scenarios            # registered + custom campaign
//	go run ./examples/scenarios -n 18      # bigger committee
//	go run ./examples/scenarios -seed 7    # different deterministic run
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

func main() {
	n := flag.Int("n", 9, "committee size")
	seed := flag.Int64("seed", 42, "simulation seed (same seed => identical output)")
	flag.Parse()

	// --- 1. A registered campaign -----------------------------------
	//
	// The registry (scenario.Names) holds the named campaigns that
	// `zlb-bench -experiment scenarios` runs and determinism_test.go
	// pins. Build parameterizes one by committee size and seed.
	fmt.Println("== registered campaign: attack-detect-exclude-merge ==")
	s, err := scenario.Build("attack-detect-exclude-merge", *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	res, err := scenario.Run(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())

	// --- 2. A custom campaign from fault primitives ------------------
	//
	// A Scenario is just harness options plus phases; each phase lists
	// the faults active during its window of virtual time. The options
	// start from the attack regime every registered attack campaign uses. Here a
	// sub-threshold coalition attacks behind a stalled partition while
	// the committee also loses a replica to benign churn — a mixed-fault
	// regime none of the canned experiments covers.
	fmt.Println("\n== custom campaign: partial attack + churn ==")
	opts := harness.AttackRegime(*n, *seed)
	opts.Deceitful = 2
	opts.Attack = adversary.AttackBinary
	opts.BatchTxs = scenario.ScenarioBatchTxs
	opts.BatchBytes = 400 * scenario.ScenarioBatchTxs
	opts.MaxInstances = 16
	opts.PoolSize = 1
	custom := scenario.Scenario{
		Name: "custom-mixed-faults",
		Opts: opts,
		Phases: []scenario.Phase{
			{Name: "calm", Duration: 6 * time.Second},
			{
				Name:     "attack+churn",
				Duration: 10 * time.Second,
				Faults: []scenario.Fault{
					// Honest traffic across an explicit half/half split
					// stalls by 800 ms while the (too small) coalition
					// equivocates. (A sub-threshold coalition's own plan
					// has a single honest partition, so this split is
					// staged directly; CoalitionPartition is the right
					// fault when the coalition can actually fork.)
					&scenario.Partition{
						Groups: simnet.HonestHalves(*n, opts.Deceitful),
						Extra:  800 * time.Millisecond,
					},
					// And the highest-ID honest replica naps.
					&scenario.Sleep{IDs: []types.ReplicaID{types.ReplicaID(*n)}},
				},
			},
			{Name: "recover", Duration: 10 * time.Second},
		},
	}
	cres, err := scenario.Run(custom)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cres.Format())

	fmt.Println("\nBoth tables are deterministic: rerun with the same -n and -seed")
	fmt.Println("and every number reproduces bit for bit.")
}
