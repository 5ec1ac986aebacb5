package main

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/chaos"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// nodeState reads a replica's chain state on its event loop.
type nodeState struct {
	Height  int
	LastK   uint64
	Digests map[uint64]types.Digest
	Faucet  types.Amount
}

func (rn *replicaNode) state() nodeState {
	ch := make(chan nodeState, 1)
	rn.node.Do(func() {
		ch <- nodeState{
			Height:  rn.app.Ledger().Height(),
			LastK:   rn.app.Ledger().LastK(),
			Digests: rn.app.Ledger().BlockDigests(),
			Faucet:  rn.app.Ledger().Table().Balance(rn.faucet),
		}
	})
	return <-ch
}

// freeAddrs reserves n distinct localhost ports below the kernel's
// ephemeral range (chaos.Listen) and releases them for the nodes to claim:
// no outbound connection can take one in between.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := chaos.Listen()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// startCluster boots an n-replica cluster without data directories on
// free localhost ports and closes it when the test ends; tweak, when
// set, adjusts replica i's configuration before it starts.
func startCluster(t *testing.T, n int, seed int64, tweak func(i int, cfg *nodeConfig)) ([]*replicaNode, []string) {
	t.Helper()
	addrs := freeAddrs(t, n)
	nodes := make([]*replicaNode, n)
	for i := range nodes {
		cfg := nodeConfig{
			Self:   types.ReplicaID(i + 1),
			N:      n,
			Listen: addrs[i],
			Peers:  addrs,
			Seed:   seed,
			Logf:   t.Logf,
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		rn, err := newReplicaNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = rn
		go rn.Serve()
		t.Cleanup(rn.Close)
	}
	return nodes, addrs
}

// testClient chains faucet payments exactly like cmd/zlb-client.
type testClient struct {
	t      *testing.T
	faucet *utxo.Wallet
	prev   utxo.Input
	addrs  []string
}

func newTestClient(t *testing.T, seed int64, addrs []string) *testClient {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed ^ 0xFA0CE7))
	if err != nil {
		t.Fatal(err)
	}
	return &testClient{
		t:      t,
		faucet: utxo.NewWallet(kp, scheme),
		prev:   utxo.Input{Prev: utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: 0}, Value: 1_000_000_000},
		addrs:  addrs,
	}
}

type clientEnvelope struct {
	From types.ReplicaID
	Msg  any
}

// submit pays amount to a throwaway recipient, broadcasting to the given
// replica subset (indices into addrs). Delivery to every listed replica
// is retried until it succeeds, as real clients broadcast with retries
// (§4.2): a test that kills a replica next counts on the others holding
// the transaction.
func (c *testClient) submit(amount types.Amount, to ...int) {
	c.t.Helper()
	c.send(c.pay(amount), to...)
}

// pay signs the next payment of the chain without sending it.
func (c *testClient) pay(amount types.Amount) *utxo.Transaction {
	c.t.Helper()
	tx, err := c.faucet.Pay([]utxo.Input{c.prev},
		[]utxo.Output{{Account: utxo.Address(types.Hash([]byte("sink"))), Value: amount}})
	if err != nil {
		c.t.Fatal(err)
	}
	changeIdx := uint32(len(tx.Outputs) - 1)
	c.prev = utxo.Input{
		Prev:  utxo.Outpoint{TxID: tx.ID(), Index: changeIdx},
		Value: tx.Outputs[changeIdx].Value,
	}
	return tx
}

// send delivers tx to the given replica subset, as submit describes.
func (c *testClient) send(tx *utxo.Transaction, to ...int) {
	c.t.Helper()
	for _, i := range to {
		delivered := false
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			conn, err := net.DialTimeout("tcp", c.addrs[i], 2*time.Second)
			if err == nil {
				enc := gob.NewEncoder(conn)
				err = enc.Encode(clientEnvelope{From: 0, Msg: &transport.SubmitTx{Tx: tx}})
				conn.Close()
				if err == nil {
					delivered = true
					break
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !delivered {
			c.t.Fatalf("transaction never reached replica %d", i+1)
		}
	}
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTransactionSubmittedToOneReplicaCommits: a payment only replica 1
// has heard of is applied by all four. The three idle replicas join the
// instance replica 1 starts with empty proposals, so the block commits
// without n−t pools holding traffic, every slot decides 1 in one round, and
// nobody starts a second instance no one has work for.
func TestTransactionSubmittedToOneReplicaCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	nodes, addrs := startCluster(t, n, 31, nil)
	client := newTestClient(t, 31, addrs)
	before := nodes[0].state().Faucet
	client.submit(700, 0)
	waitFor(t, 30*time.Second, "the payment applied on all replicas", func() bool {
		for _, rn := range nodes {
			if rn.state().Faucet != before-700 {
				return false
			}
		}
		return true
	})
	for i, rn := range nodes {
		p := rn.app.Status().Pipeline
		if st := rn.state(); st.Height != 1 || p.BinconSlotsOne != n || p.BinconSlotsZero != 0 || p.BinconRounds != n {
			t.Errorf("replica %d: height %d, slots decided 1/0 = %d/%d in %d rounds; want one block of %d proposals, a round each",
				i+1, st.Height, p.BinconSlotsOne, p.BinconSlotsZero, p.BinconRounds, n)
		}
	}
}

// TestNodeKillRestartRecovers is the acceptance integration test: a
// 4-replica TCP cluster commits payments, replica 4 is killed mid-run,
// the survivors keep committing, and replica 4 restarted with the same
// -data-dir recovers its persisted chain and UTXO state from disk, then
// catches the missed tail up from its peers until its ledger digests
// match the survivors' bit for bit.
func TestNodeKillRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(7)
	addrs := freeAddrs(t, n)
	dataDirs := make([]string, n)
	for i := range dataDirs {
		dataDirs[i] = t.TempDir()
	}

	mkNode := func(i int) *replicaNode {
		rn, err := newReplicaNode(nodeConfig{
			Self:            types.ReplicaID(i + 1),
			N:               n,
			Listen:          addrs[i],
			Peers:           addrs,
			Seed:            seed,
			DataDir:         dataDirs[i],
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		go rn.Serve()
		return rn
	}
	nodes := make([]*replicaNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = mkNode(i)
	}
	defer func() {
		for _, rn := range nodes {
			if rn != nil {
				rn.Close()
			}
		}
	}()

	client := newTestClient(t, seed, addrs)
	// Commit a few blocks with everyone up.
	for b := 0; b < 3; b++ {
		client.submit(types.Amount(1000+b), 0, 1, 2, 3)
		want := b + 1
		waitFor(t, 30*time.Second, fmt.Sprintf("block %d on all replicas", want), func() bool {
			for i := 0; i < n; i++ {
				if nodes[i].state().Height < want {
					return false
				}
			}
			return true
		})
	}
	killedState := nodes[3].state()
	if killedState.Height < 3 {
		t.Fatalf("replica 4 height %d before kill, want ≥ 3", killedState.Height)
	}

	// Kill replica 4; the remaining 3 (the exact ⌈2n/3⌉ quorum) continue.
	nodes[3].Close()
	nodes[3] = nil
	for b := 3; b < 5; b++ {
		client.submit(types.Amount(2000+b), 0, 1, 2)
		want := b + 1
		waitFor(t, 60*time.Second, fmt.Sprintf("block %d on the survivors", want), func() bool {
			for i := 0; i < 3; i++ {
				if nodes[i].state().Height < want {
					return false
				}
			}
			return true
		})
	}

	// Restart replica 4 from its data directory.
	nodes[3] = mkNode(3)
	restored := nodes[3].state()
	if restored.Height < killedState.Height {
		t.Fatalf("restart recovered height %d from disk, want ≥ %d", restored.Height, killedState.Height)
	}
	for k, d := range killedState.Digests {
		if restored.Digests[k] != d {
			t.Fatalf("recovered block %d digest differs from pre-kill state", k)
		}
	}

	// It must converge to the survivors' chain (catch-up of the missed
	// tail), including the recovered UTXO state.
	waitFor(t, 60*time.Second, "replica 4 catching up to the honest chain", func() bool {
		ref := nodes[0].state()
		got := nodes[3].state()
		if got.LastK < ref.LastK || got.Faucet != ref.Faucet {
			return false
		}
		for k, d := range ref.Digests {
			if got.Digests[k] != d {
				return false
			}
		}
		return true
	})
}

// TestNodeCleanSignalShutdown is the clean-signal counterpart of the
// kill/restart test: replica 4 is shut down via SIGTERM through the same
// handler main installs. The shutdown must stop accepting, drain the
// event loop and close the store before Close returns (rn.served), the
// survivors keep committing, and a restart from the same data directory
// recovers the full pre-shutdown chain — the graceful path must be at
// least as safe as the abrupt one.
func TestNodeCleanSignalShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(13)
	addrs := freeAddrs(t, n)
	dataDirs := make([]string, n)
	for i := range dataDirs {
		dataDirs[i] = t.TempDir()
	}

	mkNode := func(i int) *replicaNode {
		rn, err := newReplicaNode(nodeConfig{
			Self:            types.ReplicaID(i + 1),
			N:               n,
			Listen:          addrs[i],
			Peers:           addrs,
			Seed:            seed,
			DataDir:         dataDirs[i],
			CheckpointEvery: 2,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		go rn.Serve()
		return rn
	}
	nodes := make([]*replicaNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = mkNode(i)
	}
	defer func() {
		for _, rn := range nodes {
			if rn != nil {
				rn.Close()
			}
		}
	}()

	client := newTestClient(t, seed, addrs)
	for b := 0; b < 2; b++ {
		client.submit(types.Amount(700+b), 0, 1, 2, 3)
		want := b + 1
		waitFor(t, 30*time.Second, fmt.Sprintf("block %d on all replicas", want), func() bool {
			for i := 0; i < n; i++ {
				if nodes[i].state().Height < want {
					return false
				}
			}
			return true
		})
	}
	preShutdown := nodes[3].state()
	if preShutdown.Height < 2 {
		t.Fatalf("replica 4 height %d before shutdown, want ≥ 2", preShutdown.Height)
	}

	// Arm the same handler main() installs and deliver a real SIGTERM.
	stop := shutdownOnSignal(nodes[3], obs.NewLogger(t.Logf, obs.LevelDebug))
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-nodes[3].served: // Serve exited and the store is closed
	case <-time.After(30 * time.Second):
		t.Fatal("signal shutdown did not drain within 30s")
	}
	stop()
	nodes[3] = nil

	// The survivors (exact quorum) keep committing.
	client.submit(types.Amount(900), 0, 1, 2)
	waitFor(t, 60*time.Second, "block 3 on the survivors", func() bool {
		for i := 0; i < 3; i++ {
			if nodes[i].state().Height < 3 {
				return false
			}
		}
		return true
	})

	// Restart from the cleanly-closed store: the full pre-shutdown chain
	// must be on disk, and the node must converge with its peers.
	nodes[3] = mkNode(3)
	restored := nodes[3].state()
	if restored.Height < preShutdown.Height {
		t.Fatalf("restart recovered height %d, want ≥ %d", restored.Height, preShutdown.Height)
	}
	for k, d := range preShutdown.Digests {
		if restored.Digests[k] != d {
			t.Fatalf("recovered block %d digest differs from pre-shutdown state", k)
		}
	}
	waitFor(t, 60*time.Second, "replica 4 rejoining after clean shutdown", func() bool {
		ref := nodes[0].state()
		got := nodes[3].state()
		if got.LastK < ref.LastK || got.Faucet != ref.Faucet {
			return false
		}
		for k, d := range ref.Digests {
			if got.Digests[k] != d {
				return false
			}
		}
		return true
	})
}

// TestNodeSyncBootstrap exercises the standby catch-up path: a node with
// an empty data directory and -sync asks its peers for their checkpoint
// + log tail, cross-checks the responses, and installs the chain before
// joining consensus.
func TestNodeSyncBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(11)
	addrs := freeAddrs(t, n)
	dataDirs := make([]string, n)
	for i := range dataDirs {
		dataDirs[i] = t.TempDir()
	}

	mkNode := func(i int, sync bool) *replicaNode {
		rn, err := newReplicaNode(nodeConfig{
			Self:            types.ReplicaID(i + 1),
			N:               n,
			Listen:          addrs[i],
			Peers:           addrs,
			Seed:            seed,
			DataDir:         dataDirs[i],
			CheckpointEvery: 2,
			Sync:            sync,
			SyncTimeout:     10 * time.Second,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		go rn.Serve()
		return rn
	}
	nodes := make([]*replicaNode, n)
	for i := 0; i < 3; i++ {
		nodes[i] = mkNode(i, false)
	}
	defer func() {
		for _, rn := range nodes {
			if rn != nil {
				rn.Close()
			}
		}
	}()

	client := newTestClient(t, seed, addrs)
	for b := 0; b < 4; b++ {
		client.submit(types.Amount(500+b), 0, 1, 2)
		want := b + 1
		waitFor(t, 60*time.Second, fmt.Sprintf("block %d on the initial trio", want), func() bool {
			for i := 0; i < 3; i++ {
				if nodes[i].state().Height < want {
					return false
				}
			}
			return true
		})
	}

	// Replica 4 joins late with an empty store and -sync: it bootstraps
	// the chain from its peers' stores.
	nodes[3] = mkNode(3, true)
	waitFor(t, 60*time.Second, "standby bootstrapping the chain", func() bool {
		ref := nodes[0].state()
		got := nodes[3].state()
		if got.LastK < ref.LastK || got.Faucet != ref.Faucet {
			return false
		}
		for k, d := range ref.Digests {
			if got.Digests[k] != d {
				return false
			}
		}
		return true
	})
}

// TestStorelessNodeTrimsCommittedSet checks the dedup set of a node
// without -data-dir: no checkpoint will ever bound it, so the node trims
// it every CheckpointEvery blocks. Before the trim a resubmitted committed
// transaction is refused by the mempool; after it the mempool admits it
// and the ledger, which knows every applied ID, skips it.
func TestStorelessNodeTrimsCommittedSet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(13)
	nodes, addrs := startCluster(t, n, seed, func(_ int, cfg *nodeConfig) { cfg.CheckpointEvery = 2 })
	all := []int{0, 1, 2, 3}
	waitHeight := func(want int) {
		t.Helper()
		waitFor(t, 30*time.Second, fmt.Sprintf("block %d on all replicas", want), func() bool {
			for _, rn := range nodes {
				if rn.state().Height < want {
					return false
				}
			}
			return true
		})
	}
	refusedCommitted := func() uint64 {
		var sum uint64
		for _, rn := range nodes {
			sum += rn.app.Pool().Stats().Rejects["committed"]
		}
		return sum
	}

	client := newTestClient(t, seed, addrs)
	first := client.pay(500)
	client.send(first, all...)
	waitHeight(1)
	// A replica the first submit reached only after block 1 committed
	// refused it already: wait for every replica to settle it, and count
	// from there.
	waitFor(t, 10*time.Second, "every replica to admit or refuse the first submit", func() bool {
		for _, rn := range nodes {
			if st := rn.app.Pool().Stats(); st.Admitted+st.Rejects["committed"] == 0 {
				return false
			}
		}
		return true
	})
	early := refusedCommitted()
	client.send(first, all...) // block 1 of 2: the dedup set still holds it
	waitFor(t, 10*time.Second, "the early resubmission to be refused everywhere", func() bool {
		return refusedCommitted() == early+n
	})

	client.submit(501, all...)
	waitHeight(2) // the second block trims
	applied := nodes[0].app.Status().TxsApplied
	faucet := nodes[0].state().Faucet
	client.send(first, all...)
	waitHeight(3) // admitted again, proposed, committed as an empty block
	if got := refusedCommitted(); got != early+n {
		t.Errorf("%d committed-refusals after the trim, want the %d from before it", got, early+n)
	}
	for i, rn := range nodes {
		if got := rn.app.Status().TxsApplied; got != applied {
			t.Errorf("replica %d applied %d transactions, want %d: the ledger let a committed transaction through", i+1, got, applied)
		}
	}
	if got := nodes[0].state().Faucet; got != faucet {
		t.Errorf("faucet balance moved from %d to %d on a resubmitted transaction", faucet, got)
	}
}
