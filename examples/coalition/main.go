// Command coalition runs the paper's headline experiment at example
// scale: a coalition of d = ⌈5n/9⌉−1 deceitful replicas — a majority
// larger than any classic BFT system tolerates — executes the binary
// consensus attack, forks the chain across partitions of honest replicas,
// and ZLB recovers: detection through certificate cross-checks, exclusion
// consensus, inclusion of standby replicas, and convergence back to a
// committee with a deceitful minority (Def. 3).
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/zeroloss/zlb"
)

func main() {
	const n = 9
	deceitful := (5*n+8)/9 - 1 // d = ⌈5n/9⌉−1

	fmt.Printf("ZLB coalition-attack demo: n=%d replicas, d=%d deceitful (%.0f%%)\n",
		n, deceitful, 100*float64(deceitful)/float64(n))
	fmt.Printf("classic BFT tolerates at most %d — this coalition exceeds it\n\n", (n-1)/3)

	start := time.Now()
	var changes int
	cluster, err := zlb.NewCluster(zlb.Config{
		N:                n,
		Deceitful:        deceitful,
		Attack:           zlb.BinaryConsensusAttack,
		PartitionDelayMs: 3000,
		Seed:             3,
		MaxBlocks:        8,
		OnCommittedBatch: func(k uint64, txs []*zlb.Transaction, _ time.Duration) {
			fmt.Printf("  block %d committed (%d txs)\n", k, len(txs))
		},
		OnFraud: func(culprit zlb.ReplicaID) {
			fmt.Printf("  fraud proven: replica %v\n", culprit)
		},
		OnMembershipChange: func(ex, in []zlb.ReplicaID) {
			changes++
			fmt.Printf("  membership change #%d: −%v +%v\n", changes, ex, in)
		},
	})
	if err != nil {
		log.Fatalf("building cluster: %v", err)
	}

	alice, err := cluster.WalletFor(0)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := cluster.WalletFor(1)
	if err != nil {
		log.Fatal(err)
	}

	cluster.Start()
	// Drive the chain with a stream of payments; the coalition attacks
	// every instance.
	for i := 0; i < 6; i++ {
		tx, err := cluster.Pay(alice, bob.Address(), zlb.Amount(1000+i))
		if err != nil {
			log.Fatal(err)
		}
		cluster.Submit(tx)
		cluster.Run(3 * time.Second)
	}
	cluster.RunUntilQuiet(60 * time.Minute)

	fmt.Println()
	fmt.Printf("virtual time elapsed:   %v\n", cluster.Now().Round(time.Millisecond))
	fmt.Printf("wall time elapsed:      %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("disagreements (forks):  %d\n", cluster.Disagreements())
	fmt.Printf("culprits pending:       %v (cleared after exclusion)\n", cluster.Culprits())
	fmt.Printf("final committee:        %v\n", cluster.Members())
	fmt.Printf("membership changes:     %d\n", changes)
	fmt.Printf("converged per Def. 3:   %v\n", cluster.Converged())

	if !cluster.Converged() {
		fmt.Println("\nNOTE: convergence incomplete on this seed — increase MaxBlocks or rerun.")
	}
}
