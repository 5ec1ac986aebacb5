// Command quickstart spins up an in-process ZLB deployment of 7 honest
// replicas, submits a handful of payments, and prints the committed
// blocks and resulting balances — the fastest way to see the system run.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/zeroloss/zlb"
)

func main() {
	cluster, err := zlb.NewCluster(zlb.Config{
		N:         7,
		Seed:      42,
		MaxBlocks: 10,
		OnCommittedBatch: func(k uint64, txs []*zlb.Transaction, _ time.Duration) {
			fmt.Printf("block %-3d committed with %d transaction(s)\n", k, len(txs))
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
	carol, err := cluster.WalletFor(2)
	if err != nil {
		log.Fatal(err)
	}

	cluster.Start()

	// Submit a few payments, advancing virtual time between them so they
	// land in different blocks.
	for i, transfer := range []struct {
		to     zlb.Address
		amount zlb.Amount
	}{
		{bob.Address(), 25_000},
		{carol.Address(), 10_000},
		{bob.Address(), 5_000},
	} {
		tx, err := cluster.Pay(alice, transfer.to, transfer.amount)
		if err != nil {
			log.Fatalf("payment %d: %v", i, err)
		}
		cluster.Submit(tx)
		cluster.Run(2 * time.Second) // virtual time
	}
	cluster.RunUntilQuiet(5 * time.Minute)

	fmt.Println()
	fmt.Printf("chain height:  %d blocks\n", cluster.Height())
	fmt.Printf("alice balance: %d\n", cluster.Balance(alice.Address()))
	fmt.Printf("bob balance:   %d\n", cluster.Balance(bob.Address()))
	fmt.Printf("carol balance: %d\n", cluster.Balance(carol.Address()))
	fmt.Printf("virtual time:  %v\n", cluster.Now().Round(time.Millisecond))
}
