package node

import (
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

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
	if got := len(restoredBlocks(g.store)); got != 3 {
		t.Errorf("%d block records to restore, want 3", got)
	}
}

// TestRestoredBranchIsNotMerged hands a restarted node, as the "remote"
// branch of an instance it restored, the decision it committed before the
// restart — what an agreeing peer's late Confirm leads to, since a
// restored instance keeps the ledger digest and not the decision's (see
// ROADMAP item 1(a)). That is no fork: nothing is merged, written or
// reported. A branch that does differ still merges.
func TestRestoredBranchIsNotMerged(t *testing.T) {
	durable := func(dir string) func(*Options) {
		return func(o *Options) { o.DataDir = dir }
	}
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(8), durable(t.TempDir()))
	committed := decide(1, map[types.ReplicaID][]byte{1: encode(t, f.faucet.pay(1))})
	f.Commit(1, 0, committed)
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

	g.Merge(1, nil, committed)
	if st := g.Status(); st.BlocksMerged != 0 || merges != 0 || len(g.store.Tail()) != 1 {
		t.Fatalf("merging the branch the node holds: %d blocks merged, %d reported, %d store records; want 0, 0 and 1",
			st.BlocksMerged, merges, len(g.store.Tail()))
	}
	g.Merge(1, nil, other)
	if st := g.Status(); st.BlocksMerged != 1 || merges != 1 || len(g.store.Tail()) != 2 {
		t.Fatalf("merging a branch that differs: %d blocks merged, %d reported, %d store records; want 1, 1 and 2",
			st.BlocksMerged, merges, len(g.store.Tail()))
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
	r := asmr.NewReplica(asmr.Config{Self: 1, Signer: signers[0], Env: f.opts.Env, InitialCommittee: []types.ReplicaID{1, 2, 3, 4}, Accountable: true})
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
