// Package node is the payment-replica runtime: the one place where a
// decided superblock becomes ledger, store and mempool state (§4.1 ⑤ of
// the paper; the blockchain manager of Red Belly). A Node owns a
// replica's mempool, ledger and optional durable store, binds itself
// into the configuration its replica is built from — batch source,
// speculative pre-validation, commit, fork merge — runs the store's open,
// recover, Restore and catch-up sequence, and produces the node's metric
// series and status objects. The simulated cluster (package zlb) and the
// TCP binary (cmd/zlb-node) are shells over it: they differ in the
// simnet.Env the node runs on, the batch cache it is given, how genesis
// is seeded, and what their observers do with a commit.
package node

import (
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// Options is what differs between the substrates a Node runs on.
type Options struct {
	// Env is the replica's environment: a simnet node in the simulator,
	// the transport.Node over TCP. The node reads its clock.
	Env simnet.Env
	// Scheme verifies transaction signatures.
	Scheme crypto.Scheme
	// Genesis seeds a fresh ledger: the initial allocation and, where
	// replicas stake, their deposits. Recovery replays the chain on top.
	Genesis func(*bm.Ledger)
	// Mempool is the admission policy of the node's pool.
	Mempool mempool.Policy
	// BatchTxs caps the transactions of one proposal.
	BatchTxs int
	// Batches decodes proposal payloads: shared by a simulated cluster,
	// whose replicas commit the same payloads, and sized 2n on a TCP node
	// (the instance committing and the one in flight).
	Batches *wire.BatchCache
	// DataDir, when set, persists the chain to a durable store there and
	// recovers it on the next start.
	DataDir string
	// CheckpointEvery is the number of blocks between UTXO checkpoints of
	// the store, and between trims of the mempool's committed-ID set on a
	// node without one. Zero cuts no checkpoint and never trims.
	CheckpointEvery uint64
	// OnStoreError receives a failed append, checkpoint or rollback. A
	// deployed node must not run on past one; a simulation records it.
	OnStoreError func(error)
	// OnCommitted and OnMerged, when set, are told what the node did, once
	// the ledger, store and mempool reflect it: block k and how many of
	// its transactions applied; a fork at k reconciled and how many
	// transactions of the remote branch were merged.
	OnCommitted func(k uint64, b *bm.Block, applied int)
	OnMerged    func(k uint64, merged int)
}

// Node is one replica's payment application. Apart from Pool, Status and
// Metrics, every method runs on the replica's event loop.
type Node struct {
	opts    Options
	pool    *mempool.Pool
	ledger  *bm.Ledger
	store   *store.Store // nil without Options.DataDir
	replica *asmr.Replica
	txv     *pipeline.TxVerifier // Prevalidate's, on the shared worker pool
	// restored reports that the ledger came from disk or from a peer's
	// store: the replica then restores those instances instead of running
	// them, and catches up on what it missed.
	restored bool
	// proposedAt is when this node proposed for an instance still
	// undecided, for the commit latency histogram.
	proposedAt map[uint64]time.Duration
	// early holds decided blocks whose predecessors have not committed
	// here yet: a replica back from a crash or a cut decides the instances
	// its peers are running before catch-up brings the ones it missed,
	// and the ledger applies blocks in chain order only.
	early map[uint64]decided
	// resumeK is the instance a restored replica was in when it stopped.
	// It may have proposed there, and a second proposal, from a pool that
	// holds other transactions now, would be an equivocation its peers
	// convict it of; so until resumeBy it proposes nothing there, and its
	// peers' catch-up answer moves it past the instance.
	resumeK  uint64
	resumeBy time.Duration

	// Observability (status.go). The event loop is the only writer of
	// status and held, under mu; scrapes read them under mu.
	series    *obs.Metrics
	commitLat *obs.Histogram
	mu        sync.Mutex
	status    Status
	held      asmr.Stats // what the replica holds in memory, as last published
}

// New builds the node: pool, ledger and, under Options.DataDir, the store
// with the chain it holds recovered into the ledger.
func New(opts Options) (*Node, error) {
	n := &Node{
		opts:       opts,
		pool:       mempool.NewWithPolicy(opts.Mempool),
		txv:        pipeline.NewTxVerifier(pipeline.Shared(), opts.Scheme),
		proposedAt: make(map[uint64]time.Duration),
		early:      make(map[uint64]decided),
	}
	n.pool.SetClock(opts.Env.Now)
	n.registerSeries()
	if opts.DataDir != "" {
		if err := n.openStore(); err != nil {
			return nil, err
		}
		if _, hasBlocks := n.store.LastK(); hasBlocks {
			ledger, err := n.store.Recover(opts.Scheme, opts.Genesis)
			if err != nil {
				n.store.Close()
				return nil, fmt.Errorf("recovering chain: %w", err)
			}
			n.adopt(ledger)
		}
	}
	if n.ledger == nil {
		n.Reseed()
	}
	return n, nil
}

func (n *Node) openStore() error {
	st, err := store.Open(n.opts.DataDir, store.Options{CheckpointEvery: n.opts.CheckpointEvery, Fsync: true})
	n.store = st
	return err
}

// adopt installs a ledger rebuilt from stored blocks.
func (n *Node) adopt(l *bm.Ledger) {
	n.ledger, n.restored = l, true
	l.SetParallel(pipeline.Shared())
}

// Reseed replaces the ledger by a fresh one seeded by Options.Genesis —
// for a deployment whose genesis allocation changes before it starts.
func (n *Node) Reseed() {
	n.ledger = bm.NewLedger(n.opts.Scheme)
	n.ledger.SetParallel(pipeline.Shared())
	n.opts.Genesis(n.ledger)
}

// Bind adds the node to a replica configuration under construction: it
// is the batch source, the proposal, commit and fork-merge callbacks, and
// it counts proofs of fraud and membership changes after whatever
// observers the configuration already has.
func (n *Node) Bind(cfg *asmr.Config) {
	cfg.BatchSource = n.Propose
	cfg.OnProposal = n.Prevalidate
	cfg.OnCommit = n.Commit
	cfg.OnDisagreement = n.Merge
	cfg.OnPoF = after(cfg.OnPoF, func(accountability.PoF) {
		n.update(func(s *Status) { s.ProvenCulprits++ })
	})
	cfg.OnMembershipChange = after(cfg.OnMembershipChange, func(res *membership.Result) {
		n.update(func(s *Status) { s.Epoch = int64(res.Epoch) })
	})
}

// after returns the observer that runs first, when there is one, and then
// next.
func after[T any](first, next func(T)) func(T) {
	if first == nil {
		return next
	}
	return func(v T) {
		first(v)
		next(v)
	}
}

// Attach gives the node the replica built from the configuration it was
// bound to, before that replica starts, and restores into it the
// instances a recovered chain already decided.
func (n *Node) Attach(r *asmr.Replica) {
	n.replica = r
	if n.restored {
		r.Restore(restoredBlocks(n.store))
	}
}

// resumeHold bounds how long a restored replica waits for its peers'
// catch-up answer before it proposes in the instance it stopped in: a
// committee restarted whole has no peer further on to answer, and no
// peer that kept its earlier proposal either.
const resumeHold = 5 * time.Second

// Start launches consensus. A replica whose chain was restored, from disk
// or from its peers' stores, asks them for the instances decided since.
func (n *Node) Start() {
	if n.restored {
		n.resumeK, n.resumeBy = n.ledger.LastK()+1, n.opts.Env.Now()+resumeHold
	}
	n.replica.Start()
	if n.restored {
		n.replica.RequestCatchup()
	}
}

// restoredBlocks lists the coordinates of every block a store holds, in
// the form asmr.Replica.Restore takes.
func restoredBlocks(st *store.Store) []asmr.RestoredBlock {
	recs := st.BlockRecords()
	out := make([]asmr.RestoredBlock, len(recs))
	for i, rec := range recs {
		out[i] = asmr.RestoredBlock{K: rec.K, Attempt: rec.Attempt, Digest: rec.Digest}
	}
	return out
}

// Restored reports whether the chain was recovered from disk or installed
// from a peer, so that the replica should ask for what it missed since.
func (n *Node) Restored() bool { return n.restored }

// Ledger is the node's chain and UTXO state.
func (n *Node) Ledger() *bm.Ledger { return n.ledger }

// Pool is the node's mempool, where clients' transactions are submitted.
func (n *Node) Pool() *mempool.Pool { return n.pool }

// Propose is the batch source: up to BatchTxs pending transactions,
// encoded. An empty pool yields an empty batch, which defers the instance
// (Fig. 2: instances start only when requests are enqueued).
func (n *Node) Propose(k uint64) asmr.Batch {
	if k == n.resumeK && n.opts.Env.Now() < n.resumeBy {
		return asmr.Batch{}
	}
	txs := n.pool.Take(n.opts.BatchTxs)
	if len(txs) == 0 {
		return asmr.Batch{}
	}
	payload, err := wire.EncodeBatch(txs)
	if err != nil {
		return asmr.Batch{}
	}
	// The proposal comes back through Prevalidate and Commit: let both
	// find the pool's own objects, so each is verified once.
	n.opts.Batches.Seed(payload, txs)
	if _, ok := n.proposedAt[k]; !ok {
		n.proposedAt[k] = n.opts.Env.Now()
	}
	return asmr.Batch{Payload: payload, ClaimedSigs: len(txs)}
}

// Prevalidate decodes a delivered proposal and verifies its transaction
// signatures on the worker pool while the binary consensus is still
// deciding whether it commits: the node's one speculation point. Verdicts
// land in the batch cache's transactions, so the decided batch commits
// without verifying anything again.
func (n *Node) Prevalidate(payload []byte) {
	n.update(func(s *Status) { s.Pipeline.ProposalsDelivered++ })
	n.txv.SpeculateBatch(payload, n.opts.Batches)
}

// decided is a decision the ledger is not ready for yet.
type decided struct {
	attempt uint32
	d       *sbc.Decision
}

// Commit applies decided superblock k, and then every early block it
// was the last gap before. A block decided ahead of a gap waits in
// early, and the first one asks the peers for the missing instances.
func (n *Node) Commit(k uint64, attempt uint32, d *sbc.Decision) {
	if k > n.ledger.LastK()+1 {
		if len(n.early) == 0 {
			n.replica.RequestCatchup()
		}
		n.early[k] = decided{attempt, d}
		return
	}
	n.commit(k, attempt, d)
	for next, ok := n.early[n.ledger.LastK()+1]; ok; next, ok = n.early[n.ledger.LastK()+1] {
		delete(n.early, n.ledger.LastK()+1)
		n.commit(n.ledger.LastK()+1, next.attempt, next.d)
	}
}

// commit applies decided superblock k: ledger, store, mempool, metrics.
func (n *Node) commit(k uint64, attempt uint32, d *sbc.Decision) {
	block := n.blockFrom(k, d)
	applied := n.ledger.CommitBlock(block)
	n.persist(block, attempt, false)
	n.pool.Prune(block.Txs)
	n.update(func(s *Status) {
		s.BlocksCommitted++
		s.TxsApplied += uint64(applied)
		s.Pipeline.ProposalsCommitted += uint64(len(d.Proposals))
		s.Pipeline.noteBinary(d)
		n.noteLedger(s)
	})
	if every := n.opts.CheckpointEvery; n.store == nil && every > 0 && n.status.BlocksCommitted%every == 0 {
		// No store, so no checkpoint will ever bound the committed-
		// transaction dedup set (persist): trim on the same cadence. A
		// transaction resubmitted after that is admitted again and skipped
		// by the ledger, which knows every applied ID.
		n.pool.TrimCommitted()
	}
	if t0, ok := n.proposedAt[k]; ok {
		delete(n.proposedAt, k)
		n.commitLat.Observe((n.opts.Env.Now() - t0).Seconds())
	}
	if n.opts.OnCommitted != nil {
		n.opts.OnCommitted(k, block, applied)
	}
}

// Merge reconciles a fork at k (phase ⑤): the conflicting branch's
// transactions are merged into the ledger rather than discarded, the
// merge is persisted, and what it carried leaves the mempool.
//
// A restored instance has no local decision to tell the branches apart by
// (the store keeps the ledger digest, asmr compares decision digests), so
// an agreeing peer's block can arrive here as "remote": when it is the
// block the ledger already holds at k there is no fork and nothing to do.
func (n *Node) Merge(k uint64, local, remote *sbc.Decision) {
	block := n.blockFrom(k, remote)
	if local == nil {
		if held, ok := n.ledger.BlockAt(k); ok && held.Digest == block.Digest {
			return
		}
	}
	merged := n.ledger.MergeBlock(block)
	n.persist(block, 0, true)
	n.pool.Prune(block.Txs)
	n.update(func(s *Status) {
		s.BlocksMerged++
		n.noteLedger(s)
	})
	if n.opts.OnMerged != nil {
		n.opts.OnMerged(k, merged)
	}
}

// blockFrom assembles the application block of a decision: the union of
// the decided proposals' transactions in deterministic order (§4.1 ⑤),
// each payload decoded through the batch cache.
func (n *Node) blockFrom(k uint64, d *sbc.Decision) *bm.Block {
	proposals := d.OrderedProposals()
	decoded := make([][]*utxo.Transaction, 0, len(proposals))
	total := 0
	for _, p := range proposals {
		batch, err := n.opts.Batches.Decode(p.Payload)
		if err != nil {
			continue
		}
		decoded = append(decoded, batch)
		total += len(batch)
	}
	var txs []*utxo.Transaction
	seen := make(map[types.Digest]bool, total)
	for _, batch := range decoded {
		for _, tx := range batch {
			id := tx.ID()
			if !seen[id] {
				seen[id] = true
				txs = append(txs, tx)
			}
		}
	}
	return bm.NewBlock(k, txs)
}

// persist writes a committed or merged block through to the store, cuts
// a checkpoint when one is due and flushes.
func (n *Node) persist(b *bm.Block, attempt uint32, merge bool) {
	if n.store == nil {
		return
	}
	var err error
	if merge {
		err = n.store.AppendMerge(b, attempt)
	} else {
		err = n.store.AppendBlock(b, attempt)
	}
	if err == nil && n.store.ShouldCheckpoint() {
		err = n.store.WriteCheckpoint(n.ledger.CheckpointState())
		if err == nil {
			// The checkpoint bounds how far back a committed-transaction
			// retry must be rejected; older dedup state is released here.
			n.pool.TrimCommitted()
		}
	}
	if err == nil {
		err = n.store.Flush()
	}
	if err != nil {
		n.opts.OnStoreError(fmt.Errorf("persisting block %d: %w", b.K, err))
	}
}

// SyncResp answers a bootstrapping peer from the store: latest checkpoint
// plus log tail. A node without a store has nothing to offer.
func (n *Node) SyncResp(req *wire.SyncReq) (*wire.SyncResp, error) {
	if n.store == nil {
		return nil, nil
	}
	return n.store.BuildSyncResp(req)
}

// InstallSync bootstraps an empty store from a peer's response, before
// the replica starts: the transferred chain becomes the store's, the
// ledger is rebuilt from it and the replica restores its instances. When
// the install fails the directory is wiped and reopened — an install that
// broke midway may have left foreign state behind, and running from
// genesis on top of it would corrupt every later recovery — and the node
// carries on from genesis; the error says why.
func (n *Node) InstallSync(resp *wire.SyncResp) error {
	ledger, err := store.InstallSync(n.store, n.opts.Scheme, resp, n.opts.Genesis)
	if err == nil {
		n.adopt(ledger)
		n.replica.Restore(restoredBlocks(n.store))
		return nil
	}
	n.store.Close()
	rollback := os.RemoveAll(n.opts.DataDir)
	if rollback == nil {
		rollback = n.openStore()
	}
	if rollback != nil {
		n.opts.OnStoreError(fmt.Errorf("rolling back failed bootstrap: %w", rollback))
	}
	return err
}

// Close flushes and closes the store, if any.
func (n *Node) Close() error {
	if n.store == nil {
		return nil
	}
	return n.store.Close()
}

// SchemeKind resolves the name of a payment signature scheme. The empty
// name is the default, ed25519. "sim" is refused: its registry-backed
// MACs only authenticate identities inside one process, not wallets.
func SchemeKind(name string) (crypto.SchemeKind, error) {
	switch name {
	case "", "ed25519":
		return crypto.SchemeEd25519, nil
	case "ecdsa", "ecdsa-p256":
		return crypto.SchemeECDSA, nil
	case "sim":
		return 0, fmt.Errorf("scheme %q is registry-internal and cannot sign wallet transactions (use \"ed25519\" or \"ecdsa\")", name)
	default:
		return 0, fmt.Errorf("unknown scheme %q (want \"ed25519\" or \"ecdsa\")", name)
	}
}
