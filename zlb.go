// Package zlb is the public API of the Zero-Loss Blockchain, a
// reproduction of "ZLB: A Blockchain to Tolerate Colluding Majorities"
// (Ranchal-Pedrosa & Gramoli, DSN 2024): the first blockchain tolerating
// an adversary that controls more than half of the replicas under partial
// synchrony.
//
// ZLB combines an accountable state machine replication (every consensus
// vote is a signed statement; disagreements yield transferable proofs of
// fraud), a membership change that excludes provably deceitful replicas
// and includes standbys from a pool, and a blockchain manager that merges
// the branches of a fork instead of discarding one — funding conflicting
// transactions out of the slashed deposits so that no honest account
// loses a coin.
//
// The package offers an in-process simulated deployment (NewCluster) for
// experimentation and testing. Protocol internals live under internal/:
// the accountable SBC stack (rbc, bincon, sbc), accountability
// (statements, certificates, PoFs), the ASMR orchestration, the UTXO
// ledger, the indexed mempool and the block-merge logic, the binary
// wire codecs (internal/wire) framing batches and proofs, the durable
// block store with UTXO checkpoints and catch-up sync (internal/store,
// enabled by Config.DataDir), as well as the baselines (HotStuff, Red
// Belly and Polygraph modes) and the staged fault campaigns
// (internal/scenario) used by the evaluation. See ARCHITECTURE.md for
// the paper-to-package map.
//
// # Crypto-agility
//
// Signature schemes are capability-based (internal/crypto): every scheme
// signs and verifies, and may additionally implement batch verification,
// discovered at runtime by the certificate layer. The matrix:
//
//	scheme      payments (Config.Scheme)   consensus certs   BatchVerifier
//	ed25519     yes (default)              no (sim PKI)      yes
//	ecdsa       yes                        no (sim PKI)      no
//	sim         no (registry-backed MAC)   yes (harness)     yes
//
// The simulated consensus PKI is the registry-backed sim scheme. Payments
// cannot use sim: its MACs only authenticate identities inside the shared
// registry, not out-of-process wallets.
//
// Quickstart:
//
//	cluster, _ := zlb.NewCluster(zlb.Config{N: 7, InitialFunds: map[zlb.Address]zlb.Amount{...}})
//	wallet := cluster.WalletFor(0) // pre-funded test wallet
//	tx, _ := cluster.Pay(wallet, recipient, 100)
//	cluster.Submit(tx)
//	cluster.Run(30 * time.Second) // virtual time
//	fmt.Println(cluster.Balance(recipient))
package zlb

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/node"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/payment"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// Re-exported primitive types, so applications only import this package.
type (
	// Address identifies a payment account (hash of its public key).
	Address = utxo.Address
	// Amount is a coin amount.
	Amount = types.Amount
	// Transaction is a Bitcoin-style UTXO transaction.
	Transaction = utxo.Transaction
	// Wallet signs transactions for one key pair.
	Wallet = utxo.Wallet
	// ReplicaID identifies a consensus replica.
	ReplicaID = types.ReplicaID
	// Digest is a 32-byte content hash (transaction IDs, block digests).
	Digest = types.Digest
	// PoF is an undeniable proof of fraud against a deceitful replica.
	PoF = accountability.PoF
	// Outpoint references one output of an earlier transaction.
	Outpoint = utxo.Outpoint
	// Input consumes a previous transaction output.
	Input = utxo.Input
	// Output grants coins to an account.
	Output = utxo.Output
	// MempoolPolicy parameterizes mempool admission control (fee floor,
	// priority ordering, per-account caps and rate limits,
	// replacement-by-fee, size-bounded eviction). The zero value is fully
	// permissive arrival-order queueing — the pre-admission behavior all
	// fixed-seed goldens run under.
	MempoolPolicy = mempool.Policy
	// NodeStatus is a replica's status snapshot: chain height and counts,
	// and the "replica", "memory" and "pipeline" objects a deployed node
	// serves at /status (internal/node).
	NodeStatus = node.Status
)

// Attack selects a coalition attack for adversarial experiments.
type Attack int

// Attacks available to Config.
const (
	// NoAttack runs every replica honestly.
	NoAttack Attack = iota
	// BinaryConsensusAttack splits binary votes across partitions (§B).
	BinaryConsensusAttack
	// ReliableBroadcastAttack sends different proposals to different
	// partitions (§B).
	ReliableBroadcastAttack
)

// Config parameterizes an in-process ZLB deployment.
type Config struct {
	// N is the committee size (required, ≥ 4).
	N int
	// PoolSize is the number of standby candidate replicas (default N).
	PoolSize int
	// InitialFunds seeds the genesis block. WalletCount pre-funded test
	// wallets are created in addition (each with WalletFunds coins).
	InitialFunds map[Address]Amount
	// WalletCount pre-funds this many test wallets (default 3).
	WalletCount int
	// WalletFunds is each test wallet's genesis balance (default 1e6).
	WalletFunds Amount
	// GainBound is G, the per-block double-spend bound used to size
	// deposits (default: total genesis funds).
	GainBound Amount
	// DepositFactor is b in D = b·G (default 0.1, the paper's Fig. 6).
	DepositFactor float64
	// MaxBlocks bounds the chain length for bounded runs (default 32).
	MaxBlocks uint64
	// Seed drives all randomness (default 1).
	Seed int64

	// Scheme selects the payment-side signature scheme: "ed25519"
	// (default) or "ecdsa". "sim" is rejected — its registry-backed MACs
	// cannot authenticate out-of-process wallets. The consensus PKI is
	// independent (the harness's sim scheme); see the package comment's
	// compatibility matrix.
	Scheme string
	// SequentialCommit forces the multi-core commit pipeline
	// (internal/pipeline) off: every transaction signature is checked
	// inline on the event loop as its block applies, with no worker pool
	// and no speculative pre-verification. The default (false) fans the
	// signature checks out across runtime.GOMAXPROCS workers; a block
	// applies in order on the event loop either way. Both modes produce
	// bit-identical chains, balances and virtual-time metrics — the
	// determinism tests pin this; the knob exists for those tests and for
	// debugging.
	SequentialCommit bool

	// DataDir, when set, makes every replica persist its chain to a
	// durable block store (internal/store) under <DataDir>/r<id>:
	// committed blocks and reconciliation merges write through, and a
	// UTXO checkpoint is cut every CheckpointEvery blocks. The default
	// (empty) keeps the deployment fully in-memory. Restart recovers a
	// crashed replica's chain from there, and RecoverChain reads a
	// replica's persisted state back after the cluster is gone.
	DataDir string
	// CheckpointEvery is the checkpoint cadence in blocks (default 8)
	// when DataDir is set.
	CheckpointEvery uint64

	// Mempool is the admission policy every replica's pool enforces. The
	// zero value queues everything in arrival order (the paper's
	// workload); see MempoolPolicy for the knobs. Rate-limit windows run
	// on the cluster's virtual clock, so admission decisions are
	// deterministic for a fixed seed.
	Mempool MempoolPolicy
	// BatchTxs caps how many pending transactions one consensus proposal
	// carries (default 2000).
	BatchTxs int

	// Deceitful makes the first `Deceitful` replicas a coalition running
	// the configured Attack.
	Deceitful int
	Attack    Attack
	// PartitionDelayMs injects the given mean delay (uniform) between
	// honest partitions while the attack runs (default 3000 when an
	// attack is configured).
	PartitionDelayMs int

	// Tracer, when set, records the deterministic consensus trace of the
	// whole deployment (internal/obs): transaction admission at the
	// observer replica, every replica's consensus lifecycle, and branch
	// merges, all with virtual timestamps. The merged event stream is
	// bit-identical across SequentialCommit and across the simulator's two
	// execution modes. Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// OnBlock, if set, observes every committed block at replica 1.
	OnBlock func(k uint64, txs int)
	// OnCommittedBatch, if set, observes every committed block's
	// transactions at the first honest replica, stamped with that
	// replica's virtual commit time — the submit-to-commit latency probe
	// the open-loop load harness (internal/load) builds percentiles
	// from. The slice aliases the block; callers must not modify it.
	OnCommittedBatch func(k uint64, txs []*Transaction, at time.Duration)
	// OnFraud, if set, observes each proven deceitful replica (replica
	// 1's view).
	OnFraud func(culprit ReplicaID)
	// OnMembershipChange observes completed membership changes.
	OnMembershipChange func(excluded, included []ReplicaID)
}

// Errors returned by the public API.
var (
	ErrBadConfig     = errors.New("zlb: invalid configuration")
	ErrUnknownWallet = errors.New("zlb: unknown wallet index")
	ErrInsufficient  = errors.New("zlb: insufficient funds")
)

// Cluster is an in-process simulated ZLB deployment: n replicas over the
// discrete-event network, each running the full stack (accountable SMR,
// blockchain manager, zero-loss payments).
type Cluster struct {
	cfg     Config
	inner   *harness.Cluster
	nodes   map[ReplicaID]*replica
	wallets []*Wallet
	scheme  crypto.Scheme
	genesis map[Address]Amount
	stake   Amount
	// batches caches decoded proposal payloads by digest: all replicas
	// commit the identical payload, so it is decoded once per cluster
	// instead of once per replica.
	batches *wire.BatchCache
	// txv is the commit pipeline's transaction verifier: signature checks
	// start on the worker pool when a transaction is submitted (and again
	// when a proposal is delivered), so decided batches commit without
	// re-verification. Nil under Config.SequentialCommit.
	txv *pipeline.TxVerifier
}

// replica is one replica's payment application (internal/node: mempool,
// ledger and, when Config.DataDir is set, the durable store), the
// cluster's observers behind it, and the first persistence failure of its
// store, which Close surfaces — the simulation itself proceeds in memory.
type replica struct {
	*node.Node
	c        *Cluster
	id       ReplicaID
	storeErr error
}

// Bind implements harness.Application: the node's callbacks, then what
// the cluster does with a proof of fraud and a membership change.
func (r *replica) Bind(cfg *asmr.Config) {
	r.Node.Bind(cfg)
	c, counted, changed := r.c, cfg.OnPoF, cfg.OnMembershipChange
	cfg.OnPoF = func(p PoF) {
		counted(p)
		if r.id == c.observer() && c.cfg.OnFraud != nil {
			c.cfg.OnFraud(p.Culprit)
		}
	}
	cfg.OnMembershipChange = func(res *membership.Result) {
		changed(res)
		// The excluded replicas forfeit their stakes (the application
		// punishment of Alg. 1 line 38); the coins were pooled at
		// staking time, so nothing moves. New members stake in.
		for range res.Included {
			r.Ledger().AddDeposit(c.stake)
		}
		if r.id == c.observer() && c.cfg.OnMembershipChange != nil {
			c.cfg.OnMembershipChange(res.Excluded, res.Included)
		}
	}
}

// applyDefaults fills the zero-valued knobs of a configuration.
func applyDefaults(cfg *Config) error {
	if cfg.N < 4 {
		return fmt.Errorf("%w: N must be at least 4, got %d", ErrBadConfig, cfg.N)
	}
	if cfg.WalletCount == 0 {
		cfg.WalletCount = 3
	}
	if cfg.WalletFunds == 0 {
		cfg.WalletFunds = 1_000_000
	}
	if cfg.DepositFactor == 0 {
		cfg.DepositFactor = 0.1
	}
	if cfg.MaxBlocks == 0 {
		cfg.MaxBlocks = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.BatchTxs == 0 {
		cfg.BatchTxs = 2000
	}
	if cfg.Attack != NoAttack && cfg.PartitionDelayMs == 0 {
		cfg.PartitionDelayMs = 3000
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "ed25519"
	}
	if _, err := node.SchemeKind(cfg.Scheme); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// paymentSetup derives the payment-side PKI, the pre-funded test wallets
// and the genesis allocation from a defaulted configuration — shared by
// NewCluster and RecoverChain, which must rebuild the identical genesis
// to replay a persisted chain. It also resolves GainBound and returns
// the per-replica stake.
func paymentSetup(cfg *Config) (crypto.Scheme, []*Wallet, map[Address]Amount, Amount, error) {
	kind, err := node.SchemeKind(cfg.Scheme)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	reg := crypto.NewRegistry(kind)
	scheme, err := crypto.NewScheme(kind, reg)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	rand := crypto.NewDeterministicRand(cfg.Seed ^ 0x77a11e7)
	genesis := make(map[Address]Amount, len(cfg.InitialFunds)+cfg.WalletCount)
	for a, v := range cfg.InitialFunds {
		genesis[a] = v
	}
	var wallets []*Wallet
	for i := 0; i < cfg.WalletCount; i++ {
		kp, err := scheme.GenerateKey(rand)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		w := utxo.NewWallet(kp, scheme)
		wallets = append(wallets, w)
		genesis[w.Address()] += cfg.WalletFunds
	}
	if cfg.GainBound == 0 {
		for _, v := range genesis {
			cfg.GainBound += v
		}
	}
	stake := payment.PerReplicaDeposit(cfg.N, cfg.DepositFactor, cfg.GainBound)
	return scheme, wallets, genesis, stake, nil
}

// NewCluster builds and wires the deployment. The virtual clock starts at
// zero; call Run to advance it.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := applyDefaults(&cfg); err != nil {
		return nil, err
	}
	scheme, wallets, genesis, stake, err := paymentSetup(&cfg)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		nodes:   make(map[ReplicaID]*replica),
		batches: wire.NewBatchCache(0),
		scheme:  scheme,
		wallets: wallets,
		genesis: genesis,
		stake:   stake,
	}
	if !cfg.SequentialCommit {
		c.txv = pipeline.NewTxVerifier(pipeline.Shared(), scheme)
	}

	var attack adversary.Attack
	switch cfg.Attack {
	case NoAttack:
		attack = adversary.AttackNone
	case BinaryConsensusAttack:
		attack = adversary.AttackBinary
	case ReliableBroadcastAttack:
		attack = adversary.AttackRBCast
	default:
		return nil, fmt.Errorf("%w: unknown attack %d", ErrBadConfig, int(cfg.Attack))
	}
	var partDelay latency.Model
	if cfg.PartitionDelayMs > 0 && cfg.Deceitful > 0 {
		partDelay = latency.UniformMean(time.Duration(cfg.PartitionDelayMs) * time.Millisecond)
	}

	// The harness builds every replica (committee + pool) around the
	// payment application newNode hands it.
	c.inner, err = harness.New(harness.Options{
		App:            c.newNode,
		N:              cfg.N,
		PoolSize:       cfg.PoolSize,
		Deceitful:      cfg.Deceitful,
		Attack:         attack,
		Accountable:    true,
		Recover:        true,
		MaxInstances:   cfg.MaxBlocks,
		BaseLatency:    latency.Uniform(5*time.Millisecond, 30*time.Millisecond),
		PartitionDelay: partDelay,
		Seed:           cfg.Seed,
		WaitForWork:    true,
		Tracer:         cfg.Tracer,
		CoordTimeout: func(r types.Round) time.Duration {
			return 150 * time.Millisecond * time.Duration(r+1)
		},
	})
	if err != nil {
		for _, n := range c.nodes {
			n.Close()
		}
		return nil, err
	}
	return c, nil
}

// seedLedger returns the genesis seeding of a ledger: the allocation
// and the n committee members' deposits, staked up front (§B assumption
// 2) so that the pool is available the moment a merge needs to fund a
// conflicting input. NewCluster and RecoverChain must seed alike.
func seedLedger(genesis map[Address]Amount, n int, stake Amount) func(*bm.Ledger) {
	return func(l *bm.Ledger) {
		l.Genesis(genesis)
		for i := 0; i < n; i++ {
			l.AddDeposit(stake)
		}
	}
}

// newNode builds replica id's payment application on the environment the
// simulator gave the replica: the harness calls it while it builds the
// replica, at NewCluster and again at Restart. The replica's own clock
// stamps what it observes: its per-event time is bit-identical across
// sequential and parallel simulation, which the global clock inside a
// window is not.
func (c *Cluster) newNode(id ReplicaID, env simnet.Env) (harness.Application, error) {
	nt := c.cfg.Tracer.Node(id) // nil when tracing is off
	r := &replica{c: c, id: id}
	opts := node.Options{
		Env:      env,
		Scheme:   c.scheme,
		Genesis:  seedLedger(c.genesis, c.cfg.N, c.stake),
		Mempool:  c.cfg.Mempool,
		BatchTxs: c.cfg.BatchTxs,
		Batches:  c.batches,
		Verifier: c.txv,
		OnStoreError: func(err error) {
			if r.storeErr == nil {
				r.storeErr = err
			}
		},
		OnCommitted: func(k uint64, b *bm.Block, _ int) {
			if id != c.observer() {
				return
			}
			if c.cfg.OnBlock != nil {
				c.cfg.OnBlock(k, len(b.Txs))
			}
			if c.cfg.OnCommittedBatch != nil {
				c.cfg.OnCommittedBatch(k, b.Txs, env.Now())
			}
		},
		OnMerged: func(k uint64, _ int) {
			nt.Record(env.Now(), obs.PhaseMerge, k, 0, 0, "")
		},
	}
	if c.cfg.DataDir != "" {
		opts.DataDir = replicaDataDir(c.cfg.DataDir, id)
		opts.CheckpointEvery = c.cfg.CheckpointEvery
	}
	app, err := node.New(opts)
	if err != nil {
		return nil, err
	}
	// A new cluster (c.inner is not set yet) starts its chain at instance
	// 1: a directory already holding blocks would interleave two chains in
	// one log. Only a restarted replica recovers one; RecoverChain is the
	// read path for a finished run.
	if c.inner == nil && app.Restored() {
		app.Close()
		return nil, fmt.Errorf("%w: DataDir already holds a chain up to block %d (use RecoverChain to read it, or a fresh directory)",
			ErrBadConfig, app.Ledger().LastK())
	}
	// Submit runs between simulation events, where only the simulator's
	// global clock is current: rate-limit windows follow it, so a fixed
	// seed admits the same transactions in every execution mode.
	app.Pool().SetClock(c.Now)
	r.Node = app
	c.nodes[id] = r
	return r, nil
}

// replicaDataDir is the per-replica store location under a data dir.
func replicaDataDir(dataDir string, id ReplicaID) string {
	return filepath.Join(dataDir, fmt.Sprintf("r%d", id))
}

// observer returns the replica whose view the read accessors report: the
// first honest committee member (replica 1 may be deceitful in attack
// configurations).
func (c *Cluster) observer() ReplicaID {
	honest := c.inner.HonestMembers()
	if len(honest) > 0 {
		return honest[0]
	}
	return c.inner.Members[0]
}

// WalletFor returns the i-th pre-funded test wallet.
func (c *Cluster) WalletFor(i int) (*Wallet, error) {
	if i < 0 || i >= len(c.wallets) {
		return nil, fmt.Errorf("%w: %d of %d", ErrUnknownWallet, i, len(c.wallets))
	}
	return c.wallets[i], nil
}

// NewWallet creates and funds a fresh wallet only usable before Run.
func (c *Cluster) NewWallet(funds Amount) (*Wallet, error) {
	kp, err := c.scheme.GenerateKey(crypto.NewDeterministicRand(int64(len(c.wallets)) + 7777))
	if err != nil {
		return nil, err
	}
	w := utxo.NewWallet(kp, c.scheme)
	c.wallets = append(c.wallets, w)
	c.genesis[w.Address()] += funds
	// Rebuilding the ledgers re-applies the staked deposits too: an empty
	// slash pool would silently underfund the conflicting branch of a
	// later merge.
	for _, n := range c.nodes {
		n.Reseed()
	}
	return w, nil
}

// Pay builds a signed payment from the wallet against an honest
// replica's current ledger state.
func (c *Cluster) Pay(w *Wallet, to Address, amount Amount) (*Transaction, error) {
	return c.PayWithFee(w, to, amount, 0)
}

// PayWithFee builds a signed payment offering a fee on top of the
// transferred amount — the coins admission policies rank by. Inputs are
// selected against an honest replica's current ledger state and must
// cover amount plus fee.
func (c *Cluster) PayWithFee(w *Wallet, to Address, amount, fee Amount) (*Transaction, error) {
	ledger := c.nodes[c.observer()].Ledger()
	inputs, err := ledger.Table().InputsFor(w.Address(), amount+fee)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInsufficient, err)
	}
	return w.PayWithFee(inputs, []utxo.Output{{Account: to, Value: amount}}, fee)
}

// Submit places a transaction in every running replica's mempool (clients
// broadcast requests to all replicas, §4.2; a crashed one hears nothing)
// and wakes replicas that were waiting for work. The mempools share the transaction pointer, so its
// digest is computed once for the whole cluster — and its signature
// check starts on the commit pipeline here, typically settling before
// consensus decides the batch that carries it.
//
// The returned error is the first honest replica's admission verdict
// (nil, or one of the typed mempool errors: mempool.ErrDuplicate,
// mempool.ErrCommitted, mempool.ErrFeeTooLow, ...). Every pool runs the
// same policy on the same virtual clock and sees the same submission
// sequence, so the verdict is cluster-wide in the fault-free case.
func (c *Cluster) Submit(tx *Transaction) error {
	c.txv.Preverify([]*utxo.Transaction{tx})
	observer := c.observer()
	var verdict error
	for id, n := range c.nodes {
		err := n.Pool().Add(tx)
		if id == observer {
			verdict = err
		}
	}
	// Admission events carry the global virtual clock: Submit runs between
	// simulation events, when the global clock is deterministic too.
	if c.cfg.Tracer != nil {
		nt := c.cfg.Tracer.Node(observer)
		if verdict == nil {
			nt.Record(c.inner.Net.Now(), obs.PhaseMempoolAdmit, 0, 0, 0, "")
		} else {
			nt.Record(c.inner.Net.Now(), obs.PhaseMempoolReject, 0, 0, 0, mempool.RejectReason(verdict))
		}
	}
	for _, id := range c.inner.Members {
		if _, running := c.nodes[id]; running {
			c.inner.Replicas[id].Kick()
		}
	}
	return verdict
}

// EncodeBatch serializes transactions into a consensus proposal payload
// using the length-prefixed binary codec (internal/wire).
func EncodeBatch(txs []*Transaction) ([]byte, error) {
	payload, err := wire.EncodeBatch(txs)
	if err != nil {
		return nil, fmt.Errorf("zlb: encode batch: %w", err)
	}
	return payload, nil
}

// DecodeBatch parses a consensus proposal payload.
func DecodeBatch(payload []byte) ([]*Transaction, error) {
	txs, err := wire.DecodeBatch(payload)
	if err != nil {
		return nil, fmt.Errorf("zlb: decode batch: %w", err)
	}
	return txs, nil
}

// Start launches consensus. It must be called exactly once, before Run.
func (c *Cluster) Start() { c.inner.Start() }

// Crash kills a running replica, like a killed process: it drops off the
// network, its in-memory state is lost and its store is closed. What the
// store failed on, during the run or while closing, is returned. The
// first honest replica, whose view the read accessors report, cannot be
// crashed.
func (c *Cluster) Crash(id ReplicaID) error {
	n, running := c.nodes[id]
	if !running {
		return fmt.Errorf("%w: replica %v is not running", ErrBadConfig, id)
	}
	if id == c.observer() {
		return fmt.Errorf("%w: replica %v is the observer", ErrBadConfig, id)
	}
	delete(c.nodes, id)
	if err := c.inner.Crash(id); err != nil {
		return err
	}
	return n.storeErr
}

// Restart brings a crashed replica back the way a deployed node starts:
// a fresh payment application recovers the chain its predecessor
// persisted under Config.DataDir (nothing, without one), the new replica
// restores those instances, rejoins and catches up on what was decided
// while it was down. Its mempool starts empty.
func (c *Cluster) Restart(id ReplicaID) error {
	if _, running := c.nodes[id]; running {
		return fmt.Errorf("%w: replica %v is running", ErrBadConfig, id)
	}
	return c.inner.Restart(id)
}

// Run advances the virtual clock by d, processing all due events.
func (c *Cluster) Run(d time.Duration) {
	c.inner.Net.Run(c.inner.Net.Now() + d)
}

// RunUntilQuiet drains all pending events up to the virtual deadline.
func (c *Cluster) RunUntilQuiet(max time.Duration) { c.inner.RunUntilQuiet(max) }

// StallPartition delays all cross-group traffic between the given
// replica groups by extra virtual time — a partition that stalls
// consensus without losing messages, which is how the load harness
// exhausts mempools while commits cannot progress. Replicas not listed
// in any group communicate freely. The rule replaces any delay rule a
// previous StallPartition installed; ClearPartitionStall removes it.
func (c *Cluster) StallPartition(groups [][]ReplicaID, extra time.Duration) {
	c.inner.Net.DelayRule = simnet.PartitionDelay(simnet.GroupOf(groups), extra)
}

// ClearPartitionStall heals a StallPartition.
func (c *Cluster) ClearPartitionStall() { c.inner.Net.DelayRule = nil }

// Now returns the virtual time.
func (c *Cluster) Now() time.Duration { return c.inner.Net.Now() }

// MempoolStats reports the first honest replica's pool occupancy:
// pending transactions, their total canonical bytes, and the cumulative
// count of entries shed by replacement-by-fee and capacity eviction.
func (c *Cluster) MempoolStats() (pending int, bytes int64, evictions uint64) {
	p := c.nodes[c.observer()].Pool()
	return p.Len(), p.Bytes(), p.Evictions()
}

// Balance reads an account balance at the first honest replica.
func (c *Cluster) Balance(addr Address) Amount {
	return c.nodes[c.observer()].Ledger().Table().Balance(addr)
}

// BalanceAt reads an account balance at a specific replica.
func (c *Cluster) BalanceAt(id ReplicaID, addr Address) Amount {
	n, ok := c.nodes[id]
	if !ok {
		return 0
	}
	return n.Ledger().Table().Balance(addr)
}

// Height returns the number of blocks committed at the first honest
// replica.
func (c *Cluster) Height() int {
	return c.inner.Replicas[c.observer()].CommittedCount()
}

// BlockDigests returns the digest of every block committed at the first
// honest replica, keyed by chain index. Determinism tests compare these
// across runs and across codec versions.
func (c *Cluster) BlockDigests() map[uint64]types.Digest {
	return c.nodes[c.observer()].Ledger().BlockDigests()
}

// Deposit returns the slashed-deposit pool at the first honest replica.
func (c *Cluster) Deposit() Amount {
	return c.nodes[c.observer()].Ledger().Deposit()
}

// Status snapshots the first honest replica's node status, as a deployed
// node serves it: what the replica and its committed history hold in
// memory and where proposal work went. Call it between Run calls.
func (c *Cluster) Status() NodeStatus {
	n := c.nodes[c.observer()]
	n.Publish()
	return n.Status()
}

// Members returns the current committee at the first honest replica.
func (c *Cluster) Members() []ReplicaID {
	return c.inner.Replicas[c.observer()].View().MembersCopy()
}

// Culprits returns the proven-deceitful replicas known to the first
// honest replica.
func (c *Cluster) Culprits() []ReplicaID {
	return c.inner.Replicas[c.observer()].Log().Culprits()
}

// Disagreements returns the cumulative disagreement count (Fig. 4 metric).
func (c *Cluster) Disagreements() int { return c.inner.Disagreements() }

// Converged reports Def. 3's convergence: all honest replicas share a
// committee whose deceitful fraction is below 1/3.
func (c *Cluster) Converged() bool { return c.inner.ConvergedAgreement() }

// PerReplicaStake returns the deposit each replica posts (3·b·G/n, §B).
func (c *Cluster) PerReplicaStake() Amount { return c.stake }

// MinFinalizationDepth computes Theorem .5's minimum blockdepth m for the
// cluster's deposit factor and an observed attack success probability.
// The depth is computed, not configured: the cluster holds no finalization
// depth of its own and never returns a deposit.
func (c *Cluster) MinFinalizationDepth(rho float64) (int, error) {
	branches := payment.MaxBranchesCount(c.cfg.N, c.cfg.Deceitful)
	if branches < 2 {
		branches = 2
	}
	return payment.MinDepth(branches, c.cfg.DepositFactor, rho)
}

// Close flushes and closes every replica's durable store (a no-op for
// in-memory deployments) and returns the first persistence error
// encountered during the run, if any.
func (c *Cluster) Close() error {
	var first error
	for _, id := range c.inner.Net.NodeIDs() { // committee, then pool, by ID
		n, running := c.nodes[id]
		if !running {
			continue // crashed, and closed then
		}
		if n.storeErr != nil && first == nil {
			first = n.storeErr
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RecoveredChain is a replica's persisted state read back from its data
// directory: the chain digests and the UTXO ledger rebuilt from the
// latest checkpoint plus the replayed log tail.
type RecoveredChain struct {
	// Height is the number of stored blocks (merged siblings included).
	Height int
	// LastK is the highest chain index.
	LastK uint64
	// Digests is the digest of every stored block by chain index.
	Digests map[uint64]types.Digest
	// Deposit is the recovered slashed-deposit pool.
	Deposit Amount

	ledger *bm.Ledger
}

// Balance reads an account balance from the recovered ledger.
func (r *RecoveredChain) Balance(addr Address) Amount {
	return r.ledger.Table().Balance(addr)
}

// RecoverChain reopens the durable store a previous run left under
// cfg.DataDir for the given replica and rebuilds its chain and UTXO
// state — the crash-recovery read path. cfg must be the configuration
// the original cluster ran with (the genesis allocation, wallets and
// stakes are re-derived from it; a different seed or wallet count would
// replay against the wrong genesis).
func RecoverChain(cfg Config, id ReplicaID) (*RecoveredChain, error) {
	if err := applyDefaults(&cfg); err != nil {
		return nil, err
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("%w: RecoverChain needs DataDir", ErrBadConfig)
	}
	scheme, _, genesis, stake, err := paymentSetup(&cfg)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(replicaDataDir(cfg.DataDir, id), store.Options{})
	if err != nil {
		return nil, fmt.Errorf("zlb: %w", err)
	}
	defer st.Close()
	ledger, err := st.Recover(scheme, seedLedger(genesis, cfg.N, stake))
	if err != nil {
		return nil, fmt.Errorf("zlb: %w", err)
	}
	return &RecoveredChain{
		Height:  ledger.Height(),
		LastK:   ledger.LastK(),
		Digests: ledger.BlockDigests(),
		Deposit: ledger.Deposit(),
		ledger:  ledger,
	}, nil
}
