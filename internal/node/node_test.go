package node

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

const faucetFunds = 1_000_000_000

// payer chains payments from one account, each spending the change of the
// one before, like cmd/zlb-client.
type payer struct {
	t      *testing.T
	wallet *utxo.Wallet
	prev   utxo.Input
}

func newPayer(t *testing.T, scheme crypto.Scheme, seed int64) *payer {
	t.Helper()
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &payer{t: t, wallet: utxo.NewWallet(kp, scheme)}
}

// pay signs the next payment of the chain.
func (p *payer) pay(amount types.Amount) *utxo.Transaction {
	p.t.Helper()
	tx, err := p.wallet.Pay([]utxo.Input{p.prev},
		[]utxo.Output{{Account: utxo.Address(types.Hash([]byte("sink"))), Value: amount}})
	if err != nil {
		p.t.Fatal(err)
	}
	change := uint32(len(tx.Outputs) - 1)
	p.prev = utxo.Input{Prev: utxo.Outpoint{TxID: tx.ID(), Index: change}, Value: tx.Outputs[change].Value}
	return tx
}

// fixture is a node under test with the faucet its genesis funds.
type fixture struct {
	*Node
	scheme crypto.Scheme
	faucet *payer
}

// newFixture builds a node on env whose genesis is one faucet account;
// tweak, when set, adjusts the options first.
func newFixture(t *testing.T, env simnet.Env, batches *wire.BatchCache, tweak func(*Options)) *fixture {
	t.Helper()
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, crypto.NewRegistry(crypto.SchemeEd25519))
	if err != nil {
		t.Fatal(err)
	}
	faucet := newPayer(t, scheme, 0xFA0CE7)
	faucet.prev = utxo.Input{Prev: utxo.Outpoint{TxID: types.Hash([]byte("genesis"))}, Value: faucetFunds}
	opts := Options{
		Env:    env,
		Scheme: scheme,
		Genesis: func(l *bm.Ledger) {
			l.Genesis(map[utxo.Address]types.Amount{faucet.wallet.Address(): faucetFunds})
		},
		BatchTxs:     2000,
		Batches:      batches,
		OnStoreError: func(err error) { t.Errorf("store: %v", err) },
	}
	if tweak != nil {
		tweak(&opts)
	}
	n, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &fixture{Node: n, scheme: scheme, faucet: faucet}
}

// splitFaucet signs the payment dividing the faucet between n new payers
// and returns them ready to spend their share once it commits.
func (f *fixture) splitFaucet(t *testing.T, n int) ([]*payer, *utxo.Transaction) {
	t.Helper()
	payers := make([]*payer, n)
	outs := make([]utxo.Output, n)
	for s := range payers {
		payers[s] = newPayer(t, f.scheme, int64(100+s))
		outs[s] = utxo.Output{Account: payers[s].wallet.Address(), Value: 1_000_000}
	}
	split, err := f.faucet.wallet.Pay([]utxo.Input{f.faucet.prev}, outs)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range payers {
		p.prev = utxo.Input{Prev: utxo.Outpoint{TxID: split.ID(), Index: uint32(s)}, Value: outs[s].Value}
	}
	return payers, split
}

// saturatedPool is a worker pool in the state of a saturated node's: its
// one worker is held until t ends and its queue is full, so every TryDo
// is dropped and a Map runs on its caller.
func saturatedPool(t *testing.T) *pipeline.Pool {
	p := pipeline.NewPool(1)
	held, release := make(chan struct{}), make(chan struct{})
	p.TryDo(func() { close(held); <-release })
	<-held
	for p.TryDo(func() { <-release }) {
	}
	t.Cleanup(func() { close(release) })
	return p
}

// tcpEnv is the environment of a deployed node: a transport.Node, which
// opens no socket before Serve.
func tcpEnv(self types.ReplicaID) simnet.Env {
	return transport.NewNode(transport.Config{Self: self})
}

// simEnv is the environment the simulator hands a node.
func simEnv(self types.ReplicaID) simnet.Env {
	var env simnet.Env
	simnet.New(simnet.Config{Seed: 1}).AddNode(self, func(e simnet.Env) simnet.Handler {
		env = e
		return nil
	})
	return env
}

// decide builds the decision selecting the given proposals.
func decide(k uint64, payloads map[types.ReplicaID][]byte) *sbc.Decision {
	d := &sbc.Decision{
		Instance:  types.Instance(k),
		Bits:      make(map[types.ReplicaID]bool, len(payloads)),
		Proposals: make(map[types.ReplicaID]sbc.ProposalInfo, len(payloads)),
	}
	for id, p := range payloads {
		d.Bits[id] = true
		d.Proposals[id] = sbc.ProposalInfo{Broadcaster: id, Payload: p, Digest: types.Hash(p)}
	}
	return d
}

func encode(t *testing.T, txs ...*utxo.Transaction) []byte {
	t.Helper()
	payload, err := wire.EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// heapInUse is the heap in use once a full collection has run.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestMergePrunesMempool reconciles a fork whose remote branch carries
// transactions this node still has pending: the merge commits them, so
// they must leave the pool — proposing them again would only have the
// ledger skip them — and a client's retry must be refused as committed.
func TestMergePrunesMempool(t *testing.T) {
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), nil)
	local := f.faucet.pay(1)
	f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: encode(t, local)}))

	// The other branch spent the same change another way.
	pending := []*utxo.Transaction{f.faucet.pay(2), f.faucet.pay(3), f.faucet.pay(4)}
	for _, tx := range pending {
		if err := f.Pool().Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	var merged int
	f.opts.OnMerged = func(_ uint64, n int) { merged = n }
	f.Merge(1, nil, decide(1, map[types.ReplicaID][]byte{2: encode(t, pending...)}))

	if merged != len(pending) {
		t.Fatalf("merged %d transactions, want %d", merged, len(pending))
	}
	if got := f.Pool().Len(); got != 0 {
		t.Errorf("%d merged transactions still pending: the node would propose them again", got)
	}
	if err := f.Pool().Add(pending[0]); !errors.Is(err, mempool.ErrCommitted) {
		t.Errorf("resubmitting a merged transaction: %v, want %v", err, mempool.ErrCommitted)
	}
	if st := f.Status(); st.BlocksMerged != 1 || st.Memory.CommittedTxIDs != int64(1+len(pending)) {
		t.Errorf("status after the merge: %+v", st)
	}
}

// TestRecoversPersistedChain runs the store sequence without a socket:
// blocks and a merge write through, a checkpoint is cut on the way, and a
// node opened on the same directory comes back with the same chain,
// balances and block coordinates for its replica to restore.
func TestRecoversPersistedChain(t *testing.T) {
	durable := func(o *Options) { o.DataDir, o.CheckpointEvery = t.TempDir(), 2 }
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable)
	dir := f.opts.DataDir
	if f.Restored() {
		t.Fatal("an empty directory restored a chain")
	}
	for k := uint64(1); k <= 3; k++ {
		f.Commit(k, 0, decide(k, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(types.Amount(k)))}))
	}
	f.Merge(3, nil, decide(3, map[types.ReplicaID][]byte{2: encode(t, f.faucet.pay(9))}))
	digests := f.Ledger().BlockDigests()
	balance := f.Ledger().Table().Balance(f.faucet.wallet.Address())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) { o.DataDir, o.CheckpointEvery = dir, 2 })
	if !g.Restored() {
		t.Fatal("the reopened directory restored nothing")
	}
	if got := g.Ledger().BlockDigests(); !reflect.DeepEqual(got, digests) {
		t.Errorf("recovered digests %v, want %v", got, digests)
	}
	if got := g.Ledger().Table().Balance(g.faucet.wallet.Address()); got != balance {
		t.Errorf("recovered faucet balance %d, want %d", got, balance)
	}
	if got := len(g.restoredBlocks()); got != 3 {
		t.Errorf("%d block records to restore, want 3", got)
	}
}

// TestFailedCutReportedOnceOnTheLoop: a checkpoint cut whose write fails
// in the background is reported to OnStoreError once, by the commit that
// installs it — on the event loop, never from the store's goroutine — and
// the block records are flushed all the same: the directory reopens to
// every committed block.
func TestFailedCutReportedOnceOnTheLoop(t *testing.T) {
	dir := t.TempDir()
	var reports []bool // per report: whether a Commit call was running
	committing := false
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) {
		o.DataDir, o.CheckpointEvery = dir, 2
		o.OnStoreError = func(error) { reports = append(reports, committing) }
	})
	// A directory where a cut's temp file goes: every cut's write fails.
	if err := os.Mkdir(filepath.Join(dir, "checkpoint.ckpt.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	commit := func(k uint64) {
		committing = true
		f.Commit(k, 0, decide(k, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(types.Amount(k)))}))
		committing = false
	}
	commit(1)
	commit(2) // starts the cut at 2, whose write fails
	time.Sleep(50 * time.Millisecond)
	if len(reports) != 0 {
		t.Fatalf("%d reports before the failed cut's install", len(reports))
	}
	commit(3)
	commit(4) // installs the cut at 2: its failure is reported
	time.Sleep(50 * time.Millisecond)
	if len(reports) != 1 || !reports[0] {
		t.Fatalf("reports %v, want one, made inside a commit", reports)
	}
	digests := f.Ledger().BlockDigests()
	if err := f.Close(); err == nil { // installs the cut at 4, which failed too
		t.Error("Close reported no failed cut")
	}
	if len(reports) != 1 {
		t.Errorf("reports %v after Close, want the one", reports)
	}
	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) { o.DataDir = dir })
	if got := g.Ledger().BlockDigests(); !reflect.DeepEqual(got, digests) {
		t.Errorf("reopened to digests %v, want %v", got, digests)
	}
}

// TestReopenedNodeRefusesCommittedTransactions: the ledger's ID set is the
// node's one record of what it applied, so a retry of a transaction it
// committed is refused however the ledger came back — from a checkpoint
// that folded the block in, or from the log after it — and whether the
// node stopped in between or not.
func TestReopenedNodeRefusesCommittedTransactions(t *testing.T) {
	durable := func(dir string) func(*Options) {
		return func(o *Options) { o.DataDir, o.CheckpointEvery = dir, 2 }
	}
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(t.TempDir()))
	var paid []*utxo.Transaction // blocks 1 and 2 under the cut, 3 after it
	for k := uint64(1); k <= 3; k++ {
		tx := f.faucet.pay(types.Amount(k))
		paid = append(paid, tx)
		f.Commit(k, 0, decide(k, map[types.ReplicaID][]byte{1: encode(t, tx)}))
	}
	refused := func(n *Node, tx *utxo.Transaction, when string) {
		t.Helper()
		if err := n.Pool().Add(tx); !errors.Is(err, mempool.ErrCommitted) {
			t.Errorf("%s: resubmitting a committed transaction: %v, want %v", when, err, mempool.ErrCommitted)
		}
	}
	refused(f.Node, paid[0], "after the cut")
	if err := f.Close(); err != nil { // installs the cut at block 2
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(f.opts.DataDir, "checkpoint.ckpt")); err != nil {
		t.Fatalf("no checkpoint cut at block 2: %v", err)
	}

	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(f.opts.DataDir))
	refused(g.Node, paid[0], "reopened, folded into the checkpoint")
	refused(g.Node, paid[2], "reopened, in the log after the checkpoint")
	if st := g.Pool().Stats(); st.Rejects["committed"] != 2 || st.Pending != 0 {
		t.Errorf("reopened pool: %d committed rejects and %d pending, want 2 and 0", st.Rejects["committed"], st.Pending)
	}
}

// TestRestoredInstanceKeepsItsDecisionDigest: a node commits decision d,
// stops and reopens its store, and its replica restores instance 1 under
// d's digest, the one peers' confirmations carry, and serves d from the
// store — whether the store gives the digest from its tail or, below a
// checkpoint, from the checkpoint.
func TestRestoredInstanceKeepsItsDecisionDigest(t *testing.T) {
	for _, c := range []struct {
		name   string
		every  uint64
		blocks uint64
	}{{"tail", 0, 1}, {"checkpoint", 2, 3}} {
		t.Run(c.name, func(t *testing.T) {
			durable := func(dir string) func(*Options) {
				return func(o *Options) { o.DataDir, o.CheckpointEvery = dir, c.every }
			}
			f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(t.TempDir()))
			var first *sbc.Decision
			for k := uint64(1); k <= c.blocks; k++ {
				d := decide(k, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(types.Amount(k)))})
				f.Commit(k, 0, d)
				if k == 1 {
					first = d
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(f.opts.DataDir))
			if _, err := os.Stat(filepath.Join(f.opts.DataDir, "checkpoint.ckpt")); (err == nil) != (c.every > 0) {
				t.Fatalf("checkpoint file: %v, want one: %v", err, c.every > 0)
			}
			r := g.attachReplica(t)
			if got := r.ChainDigests()[1]; got != first.Digest() {
				t.Fatalf("restored instance 1 under digest %v, want the decision's %v", got, first.Digest())
			}
			if got, ok := r.Committed(1); !ok || got == nil || got.Digest() != first.Digest() {
				t.Fatalf("restored instance 1 serves %+v, want the committed decision", got)
			}
		})
	}
}

// TestRestoredBlockCoordinates: a reopened node restores every block its
// ledger holds, the first at each index, under the attempt it was
// decided in and its decision's digest. Below the checkpoint's cut the
// attempt is 0, since the snapshot keeps none; above it the store's record
// gives it. A merged sibling, below the cut or above it, changes neither.
func TestRestoredBlockCoordinates(t *testing.T) {
	durable := func(dir string) func(*Options) {
		return func(o *Options) { o.DataDir, o.CheckpointEvery = dir, 4 }
	}
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(t.TempDir()))
	committed := make(map[uint64]types.Digest)
	commit := func(k uint64, attempt uint32) {
		d := decide(k, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(types.Amount(k)))})
		f.Commit(k, attempt, d)
		committed[k] = d.Digest()
	}
	merge := func(k uint64) {
		f.Merge(k, nil, decide(k, map[types.ReplicaID][]byte{2: encode(t, f.faucet.pay(100+types.Amount(k)))}))
	}
	// Four appends, the merge among them, cut the checkpoint at block 3.
	commit(1, 1)
	commit(2, 2)
	merge(2)
	commit(3, 3)
	commit(4, 4)
	merge(4)
	commit(5, 5)
	if err := f.Close(); err != nil { // installs the cut at block 3
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(f.opts.DataDir, "checkpoint.ckpt")); err != nil {
		t.Fatalf("no checkpoint cut at block 3: %v", err)
	}

	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(f.opts.DataDir))
	want := []asmr.RestoredBlock{
		{K: 1, Attempt: 0, Digest: committed[1]},
		{K: 2, Attempt: 0, Digest: committed[2]},
		{K: 3, Attempt: 0, Digest: committed[3]},
		{K: 4, Attempt: 4, Digest: committed[4]},
		{K: 5, Attempt: 5, Digest: committed[5]},
	}
	if got := g.restoredBlocks(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored blocks\n%+v\nwant\n%+v", got, want)
	}
	if h := g.Ledger().Height(); h != 7 {
		t.Errorf("recovered %d blocks, want 5 and 2 merged siblings", h)
	}
}

// TestRestoredBranchIsNotMerged: a restored instance keeps the digest of
// the decision it committed (TestRestoredInstanceKeepsItsDecisionDigest),
// so a peer's block that agrees with it stops in the replica and never
// reaches Merge. What does reach it is a branch that differs, and that
// still merges on a restarted node.
func TestRestoredBranchIsNotMerged(t *testing.T) {
	durable := func(dir string) func(*Options) {
		return func(o *Options) { o.DataDir = dir }
	}
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(t.TempDir()))
	f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(1))}))
	other := decide(1, map[types.ReplicaID][]byte{2: encode(t, f.faucet.pay(2))})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	merges := 0
	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) {
		durable(f.opts.DataDir)(o)
		o.OnMerged = func(uint64, int) { merges++ }
	})
	r := g.attachReplica(t)
	if _, restored := r.Committed(1); !restored {
		t.Fatal("the replica did not restore instance 1")
	}
	g.Merge(1, nil, other)
	if st := g.Status(); st.BlocksMerged != 1 || merges != 1 {
		t.Fatalf("merging a branch that differs: %d blocks merged, %d reported; want 1 and 1", st.BlocksMerged, merges)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if h := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(f.opts.DataDir)); h.Ledger().Height() != 2 {
		t.Fatalf("the store recovers %d blocks, want the committed one and the merged one", h.Ledger().Height())
	}
}

// attachReplica gives the node a replica of a four-member committee on its
// environment, with no peer to reach.
func (f *fixture) attachReplica(t *testing.T) *asmr.Replica {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := asmr.NewReplica(asmr.Config{Self: 1, Signer: signers[0], Env: f.opts.Env, InitialCommittee: []types.ReplicaID{1, 2, 3, 4}, Accountable: true,
		History: HistoryOf(f.store)})
	f.Attach(r)
	return r
}

// TestLedgerAppliesBlocksInChainOrder: a replica back from a crash or a
// cut decides the instances its peers are running before catch-up brings
// the ones it missed. Applied first, a later block's payments would spend
// outputs the ledger does not hold yet and be skipped for good, and the
// replica's balances would part from its peers' under the same digests.
// The block waits for the gap to fill.
func TestLedgerAppliesBlocksInChainOrder(t *testing.T) {
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), nil)
	f.attachReplica(t)
	first, second := f.faucet.pay(1), f.faucet.pay(2)
	f.Commit(2, 0, decide(2, map[types.ReplicaID][]byte{1: encode(t, second)}))
	if got := f.Ledger().LastK(); got != 0 {
		t.Fatalf("block 2 applied ahead of block 1: last block %d", got)
	}
	f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: encode(t, first)}))
	if last, bal := f.Ledger().LastK(), f.Ledger().Table().Balance(f.faucet.wallet.Address()); last != 2 || bal != faucetFunds-3 {
		t.Errorf("after the gap filled: last block %d, faucet %d; want 2 and %d", last, bal, faucetFunds-3)
	}
}

// TestStoreHistoryRefusesABlockAheadOfAGap: a durable node's history
// keeps nothing itself, the store's record of a committed block is what
// Get reads back. A decision held ahead of a gap has no record yet, so
// Put refuses it and the replica keeps the decision; once the gap fills
// and the block commits, Put takes it and Get reads it back.
func TestStoreHistoryRefusesABlockAheadOfAGap(t *testing.T) {
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) { o.DataDir = t.TempDir() })
	f.attachReplica(t)
	h := HistoryOf(f.store)
	first := decide(1, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(1))})
	second := decide(2, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(2))})
	f.Commit(2, 0, second)
	if err := h.Put(2, second); err == nil {
		t.Fatal("Put took block 2, held ahead of the gap at 1, with no record of it in the store")
	}
	f.Commit(1, 0, first)
	for k, d := range map[uint64]*sbc.Decision{1: first, 2: second} {
		if err := h.Put(k, d); err != nil {
			t.Fatalf("Put(%d) after the gap filled: %v", k, err)
		}
		if got, err := h.Get(k); err != nil || got.Digest() != d.Digest() {
			t.Fatalf("Get(%d) = %v, %v; want the committed decision", k, got, err)
		}
	}
}

// TestRestoredReplicaWaitsToProposeWhereItStopped: a replica restored
// from disk may have proposed in the instance it stopped in, from a pool
// it no longer has. It proposes nothing there, so its peers, which may
// hold that proposal, get no second one to convict it of, and proposes
// as before in the instances after.
func TestRestoredReplicaWaitsToProposeWhereItStopped(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) { o.DataDir = dir })
	f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(1))}))
	pending := f.faucet.pay(2)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), func(o *Options) { o.DataDir = dir })
	g.attachReplica(t)
	g.Start()
	if err := g.Pool().Add(pending); err != nil {
		t.Fatal(err)
	}
	if b := g.Propose(2); len(b.Payload) != 0 {
		t.Errorf("the restored replica proposed %d bytes in the instance it stopped in", len(b.Payload))
	}
	if b := g.Propose(3); b.ClaimedSigs != 1 {
		t.Errorf("the proposal after it claims %d transactions, want 1", b.ClaimedSigs)
	}
}

// hostedRun drives one decision sequence through a node on env, the way
// its replica would: client submissions, its own proposal and three
// foreign ones per instance, one of the four dropped in rotation and
// proposed again, and a fork merged at the end.
func hostedRun(t *testing.T, env simnet.Env, batches *wire.BatchCache) (*fixture, []int) {
	t.Helper()
	const n, rounds, perProposal = 4, 8, 5
	var applied []int
	f := newFixture(t, env, batches, func(o *Options) {
		o.OnCommitted = func(_ uint64, _ *bm.Block, a int) { applied = append(applied, a) }
	})
	// Every speculation dropped, as on a saturated node: it would decode
	// on the worker pool, whenever that got to it, and the status compared
	// below counts decodes.
	f.txv = pipeline.NewTxVerifier(saturatedPool(t), f.scheme)
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	members := []types.ReplicaID{1, 2, 3, 4}
	f.Attach(asmr.NewReplica(asmr.Config{Self: 1, Signer: signers[0], Env: env, InitialCommittee: members, Accountable: true}))

	// Block 1 splits the faucet between four payers, one per proposer.
	payers, split := f.splitFaucet(t, n)
	if err := f.Pool().Add(split); err != nil {
		t.Fatal(err)
	}
	first := f.Propose(1)
	f.Prevalidate(first.Payload)
	f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: first.Payload}))

	var carried []*utxo.Transaction // what the proposer dropped last round proposes again
	for r := 0; r < rounds; r++ {
		k, dropped := uint64(r+2), r%n
		for i := 0; i < perProposal; i++ {
			if err := f.Pool().Add(payers[0].pay(1)); err != nil {
				t.Fatal(err)
			}
		}
		payloads := map[types.ReplicaID][]byte{1: f.Propose(k).Payload}
		var next []*utxo.Transaction
		for s := 1; s < n; s++ {
			var txs []*utxo.Transaction
			if s == (r+n-1)%n {
				txs = append(txs, carried...)
			}
			for i := 0; i < perProposal; i++ {
				txs = append(txs, payers[s].pay(1))
			}
			payloads[types.ReplicaID(s+1)] = encode(t, txs...)
			if s == dropped {
				next = txs
			}
		}
		carried = next
		for _, id := range members {
			f.Prevalidate(payloads[id])
			// What the speculation would have done, the dropped proposal
			// included.
			if _, err := batches.Decode(payloads[id]); err != nil {
				t.Fatal(err)
			}
		}
		delete(payloads, types.ReplicaID(dropped+1))
		f.Commit(k, 0, decide(k, payloads))
	}
	f.Merge(rounds+1, nil, decide(rounds+1, map[types.ReplicaID][]byte{3: encode(t, payers[2].pay(7))}))
	f.Publish()
	return f, applied
}

// TestSimAndTransportHostsAgree is the sim-vs-TCP differential: the same
// decisions through a node hosted on the simulator, with a cluster-sized
// batch cache, and through one hosted on a transport.Node, with the 2n
// cache of a deployed node, leave identical chains, balances, applied
// counts and status objects.
func TestSimAndTransportHostsAgree(t *testing.T) {
	sim, simApplied := hostedRun(t, simEnv(1), wire.NewBatchCache(0))
	tcp, tcpApplied := hostedRun(t, tcpEnv(1), wire.NewBatchCache(2*4))

	if a, b := sim.Ledger().BlockDigests(), tcp.Ledger().BlockDigests(); len(a) != 9 || !reflect.DeepEqual(a, b) {
		t.Errorf("block digests differ:\nsim %v\ntcp %v", a, b)
	}
	if !reflect.DeepEqual(simApplied, tcpApplied) {
		t.Errorf("applied per block: sim %v, tcp %v", simApplied, tcpApplied)
	}
	sink := utxo.Address(types.Hash([]byte("sink")))
	for _, addr := range []utxo.Address{sim.faucet.wallet.Address(), sink} {
		if a, b := sim.Ledger().Table().Balance(addr), tcp.Ledger().Table().Balance(addr); a == 0 || a != b {
			t.Errorf("balance of %v: sim %d, tcp %d", addr, a, b)
		}
	}
	a, b := sim.Status(), tcp.Status()
	// How many batches a cache holds is its size, the one thing the hosts
	// were given differently.
	if a.Memory.BatchCacheEntries <= 2*4 || b.Memory.BatchCacheEntries != 2*4 {
		t.Errorf("cached batches: sim %d, tcp %d, want every payload and 2n", a.Memory.BatchCacheEntries, b.Memory.BatchCacheEntries)
	}
	a.Memory.BatchCacheEntries, b.Memory.BatchCacheEntries = 0, 0
	// Which check of a wallet key finds its cached table depends on how
	// the worker pool interleaves the checks, so the hits and misses are
	// not compared; the tables held and built are.
	if a.WalletKeys.Tables == 0 || a.WalletKeys.Hits == 0 || b.WalletKeys.Hits == 0 {
		t.Errorf("wallet-key cache: sim %+v, tcp %+v, want tables and hits", a.WalletKeys, b.WalletKeys)
	}
	a.WalletKeys.Hits, b.WalletKeys.Hits = 0, 0
	a.WalletKeys.Misses, b.WalletKeys.Misses = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("status differs:\nsim %+v\ntcp %+v", a, b)
	}
	// The split, then eight rounds of 3×5 fresh payments from the foreign
	// proposers and 5 from the pool, all applied but the last dropped
	// proposal's; the merged payment is not one a committed block applied.
	if want := uint64(1 + 8*20 - 5); a.TxsApplied != want || a.BlocksCommitted != 9 || a.BlocksMerged != 1 {
		t.Errorf("status %+v, want %d payments applied in 9 blocks and 1 merge", a, want)
	}
	if a.Pipeline.ProposalsDelivered != 1+8*4 || a.Pipeline.ProposalsCommitted != 1+8*3 || a.Pipeline.BatchTxsReused == 0 {
		t.Errorf("pipeline %+v, want 33 proposals delivered, 25 committed and the re-proposed transactions reused", a.Pipeline)
	}
}

// TestStatusReadBesideCommits scrapes the status and the series from
// another goroutine while blocks commit, as the HTTP endpoint of a
// deployed node does beside its event loop (run under -race).
func TestStatusReadBesideCommits(t *testing.T) {
	const blocks = 50
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), nil)
	done := make(chan struct{})
	scraped := make(chan uint64)
	go func() {
		var last uint64
		for {
			select {
			case <-done:
				scraped <- last
				return
			default:
			}
			if err := f.Metrics().WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			if got := f.Status().BlocksCommitted; got < last {
				t.Errorf("blocks committed went from %d to %d", last, got)
			} else {
				last = got
			}
		}
	}()
	for k := uint64(1); k <= blocks; k++ {
		payload := encode(t, f.faucet.pay(1))
		f.Prevalidate(payload)
		f.Commit(k, 0, decide(k, map[types.ReplicaID][]byte{1: payload}))
	}
	close(done)
	if last := <-scraped; last > blocks {
		t.Errorf("scraped %d committed blocks of %d", last, blocks)
	}
	if st := f.Status(); st.BlocksCommitted != blocks || st.TxsApplied != blocks || st.Height != blocks {
		t.Errorf("status %+v after %d one-payment blocks", st, blocks)
	}
}
