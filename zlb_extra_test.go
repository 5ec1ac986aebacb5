package zlb

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
)

// rbcastDoubleSpend runs the reliable broadcast attack of a d = 4
// coalition on n = 9 against an explicit double spend — alice pays bob and
// carol from the same inputs — until the cluster is quiet.
func rbcastDoubleSpend(t *testing.T, seed int64, onFraud func(ReplicaID)) (c *Cluster, bob, carol *Wallet) {
	t.Helper()
	c, err := NewCluster(Config{
		N:                9,
		Deceitful:        4,
		Attack:           ReliableBroadcastAttack,
		PartitionDelayMs: 3000,
		Seed:             seed,
		MaxBlocks:        6,
		OnFraud:          onFraud,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := c.WalletFor(0)
	bob, _ = c.WalletFor(1)
	carol, _ = c.WalletFor(2)
	c.Start()
	for _, to := range []*Wallet{bob, carol} {
		tx, err := c.Pay(alice, to.Address(), 500_000)
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(tx)
	}
	c.RunUntilQuiet(60 * time.Minute)
	return c, bob, carol
}

// attackSeeds is the sweep the attack tests run: what they assert is what
// the paper promises on every schedule, not what one seed happens to do.
const attackSeeds = 16

// TestZeroLossUnderRBCastAttack mirrors TestZeroLossUnderAttack for the
// reliable broadcast attack: the coalition forks the proposal itself
// (conflicting batches per partition); merging funds the difference. The
// paper's promise, on every seed: a disagreement proves at least ⌈n/3⌉
// replicas deceitful and none of them is honest, the deceitful that
// survive the membership change are fewer than a third of the committee,
// the honest replicas converge, and nobody loses funds. (It does not
// promise the whole coalition gone: a member whose equivocation reached no
// honest log in time stays, outnumbered.)
func TestZeroLossUnderRBCastAttack(t *testing.T) {
	for seed := int64(1); seed <= attackSeeds; seed++ {
		var culprits []ReplicaID
		c, bob, carol := rbcastDoubleSpend(t, seed, func(id ReplicaID) { culprits = append(culprits, id) })
		if !c.Converged() {
			t.Fatalf("seed %d: no convergence after rbcast attack", seed)
		}
		if c.Disagreements() > 0 && len(culprits) < 3 {
			t.Fatalf("seed %d: %d disagreements proved only %v deceitful, want ⌈n/3⌉ = 3", seed, c.Disagreements(), culprits)
		}
		for _, id := range culprits {
			if id > 4 {
				t.Fatalf("seed %d: honest replica %v proven deceitful", seed, id)
			}
		}
		members, surviving := c.Members(), 0
		for _, id := range members {
			if id <= 4 {
				surviving++
			}
		}
		if 3*surviving >= len(members) {
			t.Fatalf("seed %d: %d deceitful replicas survive in committee %v", seed, surviving, members)
		}
		// Zero loss: every recipient of a committed payment keeps it. At
		// minimum nobody is below their genesis balance minus what they
		// willingly spent.
		bobGain := c.Balance(bob.Address()) - 1_000_000
		carolGain := c.Balance(carol.Address()) - 1_000_000
		if bobGain < 0 || carolGain < 0 {
			t.Fatalf("seed %d: funds lost: bob %+d, carol %+d", seed, bobGain, carolGain)
		}
		if bobGain == 0 && carolGain == 0 {
			t.Fatalf("seed %d: neither payment committed", seed)
		}
	}
}

func TestHonestReplicasShareLedgersAfterAttack(t *testing.T) {
	c, err := NewCluster(Config{
		N:                9,
		Deceitful:        4,
		Attack:           BinaryConsensusAttack,
		PartitionDelayMs: 3000,
		Seed:             3,
		MaxBlocks:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := c.WalletFor(0)
	bob, _ := c.WalletFor(1)
	c.Start()
	tx, err := c.Pay(alice, bob.Address(), 777)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(tx)
	c.RunUntilQuiet(60 * time.Minute)

	// After reconciliation, every original honest replica that saw the
	// payment agrees on bob's balance.
	want := c.Balance(bob.Address())
	for _, id := range c.inner.HonestMembers() {
		if got := c.BalanceAt(id, bob.Address()); got != want {
			t.Fatalf("replica %v sees bob=%d, observer sees %d", id, got, want)
		}
	}
}

func TestNewWalletPreFundsGenesis(t *testing.T) {
	c, err := NewCluster(Config{N: 4, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.NewWallet(42_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Balance(w.Address()); got != 42_000 {
		t.Fatalf("fresh wallet balance %d, want 42000", got)
	}
}

func TestPayInsufficientFunds(t *testing.T) {
	c, err := NewCluster(Config{N: 4, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := c.WalletFor(0)
	bob, _ := c.WalletFor(1)
	if _, err := c.Pay(alice, bob.Address(), 10_000_000); err == nil {
		t.Fatal("overdraft accepted")
	}
}

func TestDepositPoolStakedUpFront(t *testing.T) {
	c, err := NewCluster(Config{N: 9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want := c.PerReplicaStake() * Amount(9)
	if got := c.Deposit(); got != want {
		t.Fatalf("deposit pool %d, want %d (n × per-replica stake)", got, want)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	c, err := NewCluster(Config{N: 4, Seed: 22, MaxBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := c.WalletFor(0)
	bob, _ := c.WalletFor(1)
	c.Start()
	tx, err := c.Pay(alice, bob.Address(), 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(tx)
	c.Submit(tx) // duplicate
	c.Submit(tx)
	c.RunUntilQuiet(10 * time.Minute)
	if got := c.Balance(bob.Address()); got != 1_000_100 {
		t.Fatalf("bob = %d after duplicate submits, want exactly one transfer", got)
	}
}

// TestRBCastVariantPayloadsMerge regression-tests the wire codec against
// the reliable-broadcast attack's forked proposals: the coalition's
// variant payloads carry a trailing partition tag, and the reconciliation
// merge must still decode and merge their transactions (a codec that
// rejects the variant silently drops the conflicting branch — the exact
// loss Alg. 2 exists to prevent).
func TestRBCastVariantPayloadsMerge(t *testing.T) {
	forked, merged := 0, 0
	for seed := int64(1); seed <= attackSeeds; seed++ {
		c, _, _ := rbcastDoubleSpend(t, seed, nil)
		if c.Disagreements() == 0 {
			continue
		}
		forked++
		for _, n := range c.nodes {
			merged += n.Ledger().MergedTxs
		}
	}
	if forked == 0 {
		t.Fatalf("no seed in 1..%d forked: the attack lost its bite", attackSeeds)
	}
	if merged == 0 {
		t.Fatalf("%d seeds forked and no replica merged any transaction from a forked branch: variant payloads are not decoding", forked)
	}
}

// TestStatusBoundedOverLongRun reads the node status of a simulated
// replica — the objects a deployed node serves at /status — after every
// block of a 100-block run: the instances holding protocol state stay
// within the retention window plus what is in flight, everything older
// is retired to its compact record, with its decision's payloads moved
// from the retained bytes to the history's, and the memory and pipeline
// objects follow the chain.
func TestStatusBoundedOverLongRun(t *testing.T) {
	const blocks = 100
	c, err := NewCluster(Config{N: 4, Seed: 3, MaxBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := c.WalletFor(0)
	bob, _ := c.WalletFor(1)
	c.Start()
	const window = asmr.RetainDepth + 2
	for b := 1; b <= blocks; b++ {
		tx, err := c.Pay(alice, bob.Address(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
		c.RunUntilQuiet(c.Now() + time.Minute)
		st := c.Status()
		if st.Height != int64(b) || st.BlocksCommitted != uint64(b) {
			t.Fatalf("after payment %d: height %d, %d blocks committed", b, st.Height, st.BlocksCommitted)
		}
		if live := st.Replica.LiveInstances; live < 1 || live > window {
			t.Fatalf("block %d: %d live instances, want 1..%d", b, live, window)
		}
	}
	st := c.Status()
	if st.Replica.CompactedInstances < blocks-window || st.Replica.UnfinalInstances != 0 {
		t.Errorf("replica %+v after %d blocks, want >= %d compacted and none unfinal", st.Replica, blocks, blocks-window)
	}
	// Every committed payload is held, the retired ones in the history.
	if m := st.Memory; m.LedgerBlocks != blocks || m.CommittedTxIDs != blocks || m.BatchCacheEntries < 1 ||
		m.RetainedPayloadBytes+m.HistoryBytes < 200*blocks || m.RetainedPayloadBytes >= m.HistoryBytes || m.HistoryErrors != 0 {
		t.Errorf("memory %+v after %d one-payment blocks", m, blocks)
	}
	if p := st.Pipeline; st.TxsApplied != blocks || p.ProposalsCommitted < blocks || p.ProposalsDelivered < p.ProposalsCommitted {
		t.Errorf("%d payments applied, pipeline %+v after %d blocks", st.TxsApplied, p, blocks)
	}
	if st.Mempool.Admitted != blocks || st.Mempool.Pending != 0 {
		t.Errorf("mempool %+v after %d payments", st.Mempool, blocks)
	}
}
