package main

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
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
	rn.node.Do(func() { ch <- rn.stateNow() })
	return <-ch
}

// stateNow reads the state; call it on the event loop.
func (rn *replicaNode) stateNow() nodeState {
	return nodeState{
		Height:  rn.app.Ledger().Height(),
		LastK:   rn.app.Ledger().LastK(),
		Digests: rn.app.Ledger().BlockDigests(),
		Faucet:  rn.app.Ledger().Table().Balance(rn.faucet),
	}
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

// startDurable boots replica i+1 of a cluster on addrs with the data
// directory dirs[i], checkpointing every two blocks, and closes it when
// the test ends; calling it again after Close is a restart. tweak, when
// set, adjusts the configuration.
func startDurable(t *testing.T, addrs, dirs []string, i int, seed int64, tweak func(*nodeConfig)) *replicaNode {
	t.Helper()
	cfg := nodeConfig{Self: types.ReplicaID(i + 1), N: len(addrs), Listen: addrs[i], Peers: addrs, Seed: seed, DataDir: dirs[i], CheckpointEvery: 2}
	if tweak != nil {
		tweak(&cfg)
	}
	rn, err := newReplicaNode(cfg)
	if err != nil {
		t.Fatalf("replica %d: %v", i+1, err)
	}
	go rn.Serve()
	t.Cleanup(rn.Close)
	return rn
}

// tempDirs is one fresh directory per replica.
func tempDirs(t *testing.T, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	return dirs
}

// caughtUp reports whether got holds ref's chain and balances.
func caughtUp(got, ref nodeState) bool {
	if got.LastK < ref.LastK || got.Faucet != ref.Faucet {
		return false
	}
	for k, d := range ref.Digests {
		if got.Digests[k] != d {
			return false
		}
	}
	return true
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
			if c.offer(tx, i) == nil {
				delivered = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !delivered {
			c.t.Fatalf("transaction never reached replica %d", i+1)
		}
	}
}

// offer makes one attempt to deliver tx to replica i+1.
func (c *testClient) offer(tx *utxo.Transaction, i int) error {
	conn, err := net.DialTimeout("tcp", c.addrs[i], 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	return gob.NewEncoder(conn).Encode(clientEnvelope{From: 0, Msg: &transport.SubmitTx{Tx: tx}})
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

// waitHeight waits until every listed replica has committed height blocks.
func waitHeight(t *testing.T, timeout time.Duration, height int, nodes ...*replicaNode) {
	t.Helper()
	waitFor(t, timeout, fmt.Sprintf("block %d on %d replicas", height, len(nodes)), func() bool {
		return !slices.ContainsFunc(nodes, func(rn *replicaNode) bool { return rn.state().Height < height })
	})
}

// TestTransactionSubmittedToOneReplicaCommits: a payment only replica 1
// has heard of is applied by all four. The three idle replicas join the
// instance replica 1 starts with empty proposals, so the block commits
// without n−t pools holding traffic, and every replica delivers every
// proposal of every instance. Which slots decide 1 is a race the
// protocol allows: a replica that saw n−t slots decide 1 before a
// proposal arrived votes 0 for that slot, and when the slot carrying the
// payment decides 0 the payment commits one block later.
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
	waitFor(t, 30*time.Second, "every replica to deliver every proposal at one height", func() bool {
		height := nodes[0].state().Height
		for _, rn := range nodes {
			if rn.state().Height != height || rn.app.Status().Pipeline.ProposalsDelivered != uint64(n*height) {
				return false
			}
		}
		return true
	})
	ref := nodes[0].state()
	for i, rn := range nodes[1:] {
		got := rn.state()
		for k, d := range ref.Digests {
			if got.Digests[k] != d {
				t.Errorf("replica %d: block %d digest %v, replica 1 has %v", i+2, k, got.Digests[k], d)
			}
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
	addrs, dataDirs := freeAddrs(t, n), tempDirs(t, n)
	mkNode := func(i int) *replicaNode { return startDurable(t, addrs, dataDirs, i, seed, nil) }
	nodes := make([]*replicaNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = mkNode(i)
	}

	client := newTestClient(t, seed, addrs)
	// Commit a few blocks with everyone up.
	for b := 0; b < 3; b++ {
		client.submit(types.Amount(1000+b), 0, 1, 2, 3)
		want := b + 1
		waitHeight(t, 30*time.Second, want, nodes...)
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
		waitHeight(t, 60*time.Second, want, nodes[:3]...)
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
		return caughtUp(nodes[3].state(), nodes[0].state())
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
	addrs, dataDirs := freeAddrs(t, n), tempDirs(t, n)
	mkNode := func(i int) *replicaNode { return startDurable(t, addrs, dataDirs, i, seed, nil) }
	nodes := make([]*replicaNode, n)
	for i := 0; i < n; i++ {
		nodes[i] = mkNode(i)
	}

	client := newTestClient(t, seed, addrs)
	for b := 0; b < 2; b++ {
		client.submit(types.Amount(700+b), 0, 1, 2, 3)
		want := b + 1
		waitHeight(t, 30*time.Second, want, nodes...)
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
	waitHeight(t, 60*time.Second, 3, nodes[:3]...)

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
		return caughtUp(nodes[3].state(), nodes[0].state())
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
	addrs, dataDirs := freeAddrs(t, n), tempDirs(t, n)
	mkNode := func(i int, sync bool) *replicaNode {
		return startDurable(t, addrs, dataDirs, i, seed, func(cfg *nodeConfig) { cfg.Sync, cfg.SyncTimeout = sync, 10*time.Second })
	}
	nodes := make([]*replicaNode, n)
	for i := 0; i < 3; i++ {
		nodes[i] = mkNode(i, false)
	}

	client := newTestClient(t, seed, addrs)
	for b := 0; b < 4; b++ {
		client.submit(types.Amount(500+b), 0, 1, 2)
		want := b + 1
		waitHeight(t, 60*time.Second, want, nodes[:3]...)
	}

	// Replica 4 joins late with an empty store and -sync: it bootstraps
	// the chain from its peers' stores.
	nodes[3] = mkNode(3, true)
	waitFor(t, 60*time.Second, "standby bootstrapping the chain", func() bool {
		return caughtUp(nodes[3].state(), nodes[0].state())
	})
}

// TestCommittedTransactionRefusedAcrossTheCut resubmits a committed
// transaction to two replicas without a store and two with one, all four
// configured to checkpoint every two blocks: once at height 1, before
// the durable replicas' cut, and once at height 2, after it. The
// ledger's ID set is the node's one replay guard and nothing trims it,
// so each replica refuses the transaction both times as committed, with
// one "committed" reject each, and no block commits for it.
func TestCommittedTransactionRefusedAcrossTheCut(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(13)
	dirs := tempDirs(t, n)
	nodes, addrs := startCluster(t, n, seed, func(i int, cfg *nodeConfig) {
		cfg.CheckpointEvery = 2
		if i >= n/2 {
			cfg.DataDir = dirs[i]
		}
	})
	all := []int{0, 1, 2, 3}
	refused := func() []uint64 {
		out := make([]uint64, n)
		for i, rn := range nodes {
			out[i] = rn.app.Pool().Stats().Rejects["committed"]
		}
		return out
	}

	client := newTestClient(t, seed, addrs)
	first := client.pay(500)
	client.send(first, all...)
	waitHeight(t, 30*time.Second, 1, nodes...)
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
	resubmit := func(when string) {
		t.Helper()
		before := refused()
		client.send(first, all...)
		waitFor(t, 10*time.Second, "the resubmission "+when+" to be refused everywhere", func() bool {
			now := refused()
			for i := range now {
				if now[i] == before[i] {
					return false
				}
			}
			return true
		})
		for i, got := range refused() {
			if got != before[i]+1 {
				t.Errorf("%s: replica %d counts %d committed rejects, want %d", when, i+1, got, before[i]+1)
			}
		}
	}

	resubmit("before the cut")
	client.submit(501, all...)
	waitHeight(t, 30*time.Second, 2, nodes...)
	// The cut block 2 starts is written on the store's goroutine: its file
	// appears a moment after the block commits.
	waitFor(t, 10*time.Second, "the checkpoint cut at block 2", func() bool {
		for _, dir := range dirs[n/2:] {
			if _, err := os.Stat(filepath.Join(dir, "checkpoint.ckpt")); err != nil {
				return false
			}
		}
		return true
	})
	applied := nodes[0].app.Status().TxsApplied
	resubmit("after the cut")
	// A transaction the pool admitted would be proposed and commit within
	// milliseconds here, as an empty block the ledger skips it in.
	time.Sleep(time.Second)
	for i, rn := range nodes {
		if st := rn.state(); st.Height != 2 {
			t.Errorf("replica %d at height %d after the resubmissions, want 2", i+1, st.Height)
		}
		if got := rn.app.Status().TxsApplied; got != applied {
			t.Errorf("replica %d applied %d transactions, want %d", i+1, got, applied)
		}
		if got := rn.app.Pool().Len(); got != 0 {
			t.Errorf("replica %d holds %d pending transactions, want 0", i+1, got)
		}
	}
}

// TestNodeOpensNoFileOutsideDataDir runs three nodes without a store and
// one with -data-dir past the retirement depth, with $TMPDIR an empty
// directory. The store-less nodes drop their retired decisions and the
// durable one keeps them in its store: the directory stays empty, and
// every file the process holds open while they run lies under the
// durable node's data directory.
func TestNodeOpensNoFileOutsideDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n, seed, blocks = 4, int64(17), asmr.RetainDepth + 8
	tmp, dataDir := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	before := openFiles()
	seen := make(map[string]bool)
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			for path := range openFiles() {
				if !before[path] {
					seen[path] = true
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()

	nodes, addrs := startCluster(t, n, seed, func(i int, cfg *nodeConfig) {
		if i == n-1 {
			cfg.DataDir, cfg.CheckpointEvery = dataDir, 4
		}
	})
	client := newTestClient(t, seed, addrs)
	for b := 1; b <= blocks; b++ {
		client.submit(types.Amount(500+b), 0, 1, 2, 3)
		waitHeight(t, 30*time.Second, b, nodes...)
	}
	close(stop)
	<-sampled

	if retired := nodes[0].app.Status().Replica.CompactedInstances; retired == 0 {
		t.Fatalf("no instance retired after %d blocks", blocks)
	}
	inData, real := 0, realPath(t, dataDir)
	for path := range seen {
		if path == real || strings.HasPrefix(path, real+string(os.PathSeparator)) {
			inData++
		} else {
			t.Errorf("a node opened %s, outside the durable node's data directory %s", path, real)
		}
	}
	if inData == 0 {
		t.Errorf("no file seen open under the durable node's data directory")
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("$TMPDIR holds %v (%v), want nothing", left, err)
	}
}

// realPath is path as /proc/self/fd names a file under it: absolute and
// with every symlink resolved, whatever form $TMPDIR gave t.TempDir.
func realPath(t *testing.T, path string) string {
	t.Helper()
	abs, err := filepath.Abs(path)
	if err == nil {
		abs, err = filepath.EvalSymlinks(abs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// openFiles lists the files the process holds open (/proc/self/fd), by
// path: not sockets, pipes or devices. A deleted file reads as its last
// path with " (deleted)" after it.
func openFiles() map[string]bool {
	paths := make(map[string]bool)
	fds, _ := os.ReadDir("/proc/self/fd")
	for _, fd := range fds {
		path, err := os.Readlink("/proc/self/fd/" + fd.Name())
		if err == nil && strings.HasPrefix(path, "/") && !strings.HasPrefix(path, "/dev/") && !strings.HasPrefix(path, "/proc/") {
			paths[path] = true
		}
	}
	return paths
}

// TestRefusedSubmitsWarnOncePerSecond: a burst of submits the mempool
// refuses is one warning line a second, carrying the count, not a line
// each.
func TestRefusedSubmitsWarnOncePerSecond(t *testing.T) {
	var lines []string
	rn := &replicaNode{log: obs.NewLogger(func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}, obs.LevelInfo)}
	tx := &utxo.Transaction{Nonce: 1}
	refused := fmt.Errorf("refused")
	for range 100 {
		rn.warnRejected(tx, refused)
	}
	if len(lines) != 1 {
		t.Fatalf("100 refusals logged %d lines, want 1", len(lines))
	}
	rn.rejectLogged = rn.rejectLogged.Add(-time.Second)
	rn.warnRejected(tx, refused)
	if len(lines) != 2 || !strings.Contains(lines[1], "(100 rejected since") {
		t.Fatalf("a second later: %q, want a line counting the 100 since the first", lines)
	}
}
