package zlb_test

import (
	"reflect"
	"testing"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
)

// runPersistedScenario drives the fixed-seed workload of
// determinism_test.go on a cluster persisting to dir.
func runPersistedScenario(t *testing.T, dir string, checkpointEvery uint64) (*zlb.Cluster, zlb.Config, [3]*zlb.Wallet) {
	t.Helper()
	cfg := zlb.Config{N: 7, Seed: 42, WalletCount: 3, DataDir: dir, CheckpointEvery: checkpointEvery}
	cluster, err := zlb.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ws [3]*zlb.Wallet
	for i := range ws {
		w, err := cluster.WalletFor(i)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	for i := 0; i < 10; i++ {
		tx, err := cluster.Pay(ws[0], ws[1].Address(), zlb.Amount(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cluster.Submit(tx)
	}
	cluster.Start()
	cluster.RunUntilQuiet(5 * time.Minute)
	return cluster, cfg, ws
}

// TestPersistedClusterRecoverChain is the durable-store integration
// test at the public API: a cluster runs with DataDir set, shuts down,
// and RecoverChain reads every replica's chain and UTXO state back from
// disk — digests, balances and deposit identical to the live run.
func TestPersistedClusterRecoverChain(t *testing.T) {
	dir := t.TempDir()
	cluster, cfg, ws := runPersistedScenario(t, dir, 0)

	liveDigests := cluster.BlockDigests()
	if len(liveDigests) == 0 {
		t.Fatal("no blocks committed")
	}
	liveDeposit := cluster.Deposit()
	var liveBalances [3]zlb.Amount
	for i := range ws {
		liveBalances[i] = cluster.Balance(ws[i].Address())
	}
	if err := cluster.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, id := range cluster.Members() {
		rec, err := zlb.RecoverChain(cfg, id)
		if err != nil {
			t.Fatalf("recover replica %v: %v", id, err)
		}
		if len(rec.Digests) != len(liveDigests) {
			t.Fatalf("replica %v recovered %d blocks, want %d", id, len(rec.Digests), len(liveDigests))
		}
		for k, d := range liveDigests {
			if rec.Digests[k] != d {
				t.Errorf("replica %v block %d digest mismatch", id, k)
			}
		}
		if rec.Deposit != liveDeposit {
			t.Errorf("replica %v deposit %d, want %d", id, rec.Deposit, liveDeposit)
		}
		for i := range ws {
			if got := rec.Balance(ws[i].Address()); got != liveBalances[i] {
				t.Errorf("replica %v wallet %d balance %d, want %d", id, i, got, liveBalances[i])
			}
		}
	}
}

// TestPersistedClusterCheckpointRecovery forces a checkpoint after every
// block: recovery then starts from the snapshot (pruned bodies) instead
// of replaying the full log, and must land on the identical state.
func TestPersistedClusterCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	cluster, cfg, ws := runPersistedScenario(t, dir, 1)
	liveDigests := cluster.BlockDigests()
	liveBalance := cluster.Balance(ws[1].Address())
	if err := cluster.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	id := cluster.Members()[0]
	rec, err := zlb.RecoverChain(cfg, id)
	if err != nil {
		t.Fatal(err)
	}
	for k, d := range liveDigests {
		if rec.Digests[k] != d {
			t.Errorf("block %d digest mismatch after checkpointed recovery", k)
		}
	}
	if got := rec.Balance(ws[1].Address()); got != liveBalance {
		t.Errorf("recovered balance %d, want %d", got, liveBalance)
	}
}

// TestNewClusterRefusesUsedDataDir pins that a data directory already
// holding a chain cannot be reused by a fresh cluster: the new run
// would interleave a second chain into the same log.
func TestNewClusterRefusesUsedDataDir(t *testing.T) {
	dir := t.TempDir()
	cluster, cfg, _ := runPersistedScenario(t, dir, 0)
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := zlb.NewCluster(cfg); err == nil {
		t.Fatal("NewCluster accepted a data dir that already holds a chain")
	}
}

// restartOutcome is what TestClusterRestartRecoversFromStore compares
// across simulator modes.
type restartOutcome struct {
	digests  map[uint64]zlb.Digest
	balances [3]zlb.Amount
}

// runRestartScenario crashes replica 4 of a durable four-replica payment
// cluster between rounds of payments and restarts it on its directory:
// the sequence a deployed node runs — recover the chain, restore the
// instances, catch up, commit further blocks onto the recovered ledger.
func runRestartScenario(t *testing.T, sequentialSim bool) restartOutcome {
	t.Helper()
	simnet.SequentialSim = sequentialSim
	defer func() { simnet.SequentialSim = false }()
	const victim = zlb.ReplicaID(4)
	cfg := zlb.Config{N: 4, Seed: 11, WalletCount: 3, DataDir: t.TempDir(), CheckpointEvery: 2}
	c, err := zlb.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ws [3]*zlb.Wallet
	for i := range ws {
		if ws[i], err = c.WalletFor(i); err != nil {
			t.Fatal(err)
		}
	}
	// payRound has every wallet pay the next one and runs the cluster
	// until the payments have committed.
	payRound := func(amount zlb.Amount) {
		t.Helper()
		for i, w := range ws {
			tx, err := c.Pay(w, ws[(i+1)%len(ws)].Address(), amount+zlb.Amount(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(tx); err != nil {
				t.Fatal(err)
			}
		}
		c.RunUntilQuiet(c.Now() + 5*time.Minute)
	}
	victimBalances := func() (b [3]zlb.Amount) {
		for i, w := range ws {
			b[i] = c.BalanceAt(victim, w.Address())
		}
		return b
	}
	genesis := victimBalances()

	c.Start()
	payRound(100)
	payRound(200)
	beforeCrash := victimBalances()
	if beforeCrash == genesis {
		t.Fatal("the victim committed nothing before the crash")
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	payRound(300)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if got := victimBalances(); got != beforeCrash {
		t.Fatalf("balances recovered from the store %v, want those at the crash %v", got, beforeCrash)
	}
	payRound(400)

	out := restartOutcome{digests: c.BlockDigests()}
	for i, w := range ws {
		out.balances[i] = c.Balance(w.Address())
	}
	if got := victimBalances(); got != out.balances {
		t.Errorf("restarted replica's balances %v, observer's %v", got, out.balances)
	}
	if out.balances == beforeCrash {
		t.Fatal("nothing committed after the restart")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, err := zlb.RecoverChain(cfg, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Digests, out.digests) {
		t.Errorf("restarted replica's store holds digests %v, the observer committed %v", rec.Digests, out.digests)
	}
	for i, w := range ws {
		if got := rec.Balance(w.Address()); got != out.balances[i] {
			t.Errorf("wallet %d: balance %d in the restarted replica's store, want %d", i, got, out.balances[i])
		}
	}
	return out
}

// TestClusterRestartRecoversFromStore runs the shipping restart path
// (internal/node, as cmd/zlb-node assembles it) under the simulator: the
// restarted replica ends on the observer's ledger, live and on disk, in
// both simulator modes alike.
func TestClusterRestartRecoversFromStore(t *testing.T) {
	parallel := runRestartScenario(t, false)
	sequential := runRestartScenario(t, true)
	if !reflect.DeepEqual(parallel, sequential) {
		t.Errorf("simulator modes differ:\nparallel   %+v\nsequential %+v", parallel, sequential)
	}
}

// TestRestartOnLongChainHoldsNoOldState restarts a replica on a chain of
// more than 200 persisted blocks. The blocks it recovers from disk never
// run here again, so they come back as bare records: right after the
// restart the replica holds protocol state for the instance it resumes at
// and nothing else, and at the end of the run for the retention window
// plus the few instances it caught up on (which never become final here,
// see ARCHITECTURE.md).
func TestRestartOnLongChainHoldsNoOldState(t *testing.T) {
	const total, crashAt = 260, 200
	c, err := harness.New(harness.Options{
		N:            4,
		Accountable:  true,
		Recover:      true,
		MaxInstances: total,
		BaseLatency:  latency.Uniform(time.Millisecond, 8*time.Millisecond),
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Members[3]
	c.ExcludeFromMetrics(victim)
	c.Start()
	for c.Replicas[victim].CommittedCount() < crashAt {
		if c.Net.Now() > 10*time.Minute {
			t.Fatalf("victim decided %d instances in 10 virtual minutes", c.Replicas[victim].CommittedCount())
		}
		c.Run(c.Net.Now() + 50*time.Millisecond)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	c.Run(c.Net.Now() + 200*time.Millisecond) // the others move on
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	r := c.Replicas[victim]
	restored := r.CommittedCount()
	if restored < crashAt {
		t.Fatalf("restored %d instances, want >= %d from disk", restored, crashAt)
	}
	if s := r.Stats(); s.LiveInstances > 1 {
		t.Fatalf("%d live instances right after restoring %d blocks, want the one it resumes at", s.LiveInstances, restored)
	}

	c.RunUntilQuiet(20 * time.Minute)
	// The instance the others were deciding during the restart can stay a
	// gap (its DECIDEs went to the dead incarnation and the restart's one
	// catch-up request came too early for it); a second request fills it.
	r.RequestCatchup()
	c.RunUntilQuiet(20 * time.Minute)
	if match, have, want := c.ChainAgreement(victim); !match || want != total {
		t.Fatalf("restarted replica agrees on %d/%d instances, want %d", have, want, total)
	}
	s := r.Stats()
	if s.LiveInstances-s.UnfinalInstances > asmr.RetainDepth+2 {
		t.Errorf("%d live instances (%d of them unfinal) at the end, want <= %d in the window", s.LiveInstances, s.UnfinalInstances, asmr.RetainDepth+2)
	}
	if s.UnfinalInstances > total-restored {
		t.Errorf("%d unfinal instances, but only %d were decided after the restart", s.UnfinalInstances, total-restored)
	}
}
