// Command zlb-node runs one ZLB replica over real TCP. A committee of n
// replicas is described by a shared seed (from which the demo PKI is
// derived deterministically) and a peer list; clients submit signed
// transactions with zlb-client.
//
// Start a local 4-replica cluster in four shells:
//
//	zlb-node -id 1 -n 4 -listen :7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003,127.0.0.1:7004
//	zlb-node -id 2 -n 4 -listen :7002 -peers ...
//	zlb-node -id 3 -n 4 -listen :7003 -peers ...
//	zlb-node -id 4 -n 4 -listen :7004 -peers ...
//
// With -data-dir the replica persists its chain to a durable block store
// (internal/store): committed blocks and reconciliation merges write
// through, a UTXO checkpoint is cut every -checkpoint-every blocks, and
// a node killed mid-run recovers its full chain and ledger on restart
// from the same directory, then pulls the instances it missed from its
// peers through certificate-verified catch-up. With -sync, a node whose
// data directory is empty first bootstraps from its peers' stores —
// latest checkpoint plus log tail, cross-checked across responders —
// instead of replaying from genesis; this is the standby catch-up path
// of the paper's membership change.
//
// The demo PKI derives every replica's key pair from -seed; production
// deployments load per-replica keys instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

func main() {
	id := flag.Uint("id", 0, "replica ID (1..n)")
	n := flag.Int("n", 4, "committee size")
	listen := flag.String("listen", "", "listen address, e.g. :7001")
	peersFlag := flag.String("peers", "", "comma-separated peer addresses in ID order (1..n)")
	seed := flag.Int64("seed", 1, "shared PKI seed (demo key derivation)")
	dataDir := flag.String("data-dir", "", "durable block store directory (empty = in-memory only)")
	checkpointEvery := flag.Uint64("checkpoint-every", 16, "blocks between UTXO checkpoints")
	sync := flag.Bool("sync", false, "bootstrap an empty -data-dir from peers (checkpoint + log tail) before joining")
	sequential := flag.Bool("sequential", false, "disable the multi-core commit pipeline (verify and apply inline)")
	schemeName := flag.String("scheme", "ed25519", "signature scheme for the demo PKI and transactions: ed25519 or ecdsa (must match peers and clients)")
	aggregateCerts := flag.Bool("aggregate-certs", false, "assemble aggregate certificates when the scheme supports aggregation (falls back to signed statements otherwise)")
	poolMax := flag.Int("mempool-max", 0, "mempool admission: max pending transactions (0 = unlimited)")
	poolMaxBytes := flag.Int64("mempool-max-bytes", 0, "mempool admission: max pending canonical bytes (0 = unlimited)")
	poolAcctCap := flag.Int("mempool-account-cap", 0, "mempool admission: max pending transactions per sender (0 = unlimited)")
	poolRate := flag.Int("mempool-rate", 0, "mempool admission: max admissions per sender per rate window (0 = unlimited)")
	poolRateWindow := flag.Duration("mempool-rate-window", time.Second, "mempool admission: rate-limit window")
	poolMinFee := flag.Uint64("mempool-min-fee", 0, "mempool admission: reject transactions below this fee")
	poolPriority := flag.Bool("mempool-priority", false, "mempool admission: batch by fee rate instead of arrival order")
	poolReplaceBump := flag.Int("mempool-replace-bump", 0, "mempool admission: replacement-by-fee bump percentage (0 = replacement off)")
	peerQueue := flag.Int("peer-queue", 0, "outbound frames buffered per peer before drop-oldest displacement (0 = default 4096)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /status (JSON) and /debug/pprof/ on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log severity (debug, info, warn, error)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}

	if *id == 0 || *listen == "" || *peersFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	addrs := strings.Split(*peersFlag, ",")
	if len(addrs) != *n {
		log.Fatalf("got %d peer addresses for n=%d", len(addrs), *n)
	}

	rn, err := newReplicaNode(nodeConfig{
		Self:            types.ReplicaID(*id),
		N:               *n,
		Listen:          *listen,
		Peers:           addrs,
		Seed:            *seed,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Sync:            *sync,
		Sequential:      *sequential,
		Scheme:          *schemeName,
		AggregateCerts:  *aggregateCerts,
		Mempool: mempool.Policy{
			MaxTxs:         *poolMax,
			MaxBytes:       *poolMaxBytes,
			MaxPerAccount:  *poolAcctCap,
			RatePerAccount: *poolRate,
			RateWindow:     *poolRateWindow,
			MinFee:         types.Amount(*poolMinFee),
			ReplaceBumpPct: *poolReplaceBump,
			PriorityOrder:  *poolPriority,
		},
		PeerQueue:   *peerQueue,
		MetricsAddr: *metricsAddr,
		LogLevel:    level,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	stop := shutdownOnSignal(rn, rn.log)
	defer stop()
	if err := rn.Serve(); err != nil {
		log.Fatal(err)
	}
}

// shutdownOnSignal arms graceful shutdown: the first SIGINT/SIGTERM stops
// accepting connections, drains the event loop and flushes + closes the
// store (rn.Close waits for all of it), so the data directory is
// consistent for the next start. A second signal while draining exits
// immediately — the escape hatch when a peer wedges the drain. The
// returned stop function disarms the handler (used by tests; main never
// needs it).
func shutdownOnSignal(rn *replicaNode, logger *obs.Logger) (stop func()) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	quit := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			logger.Infof("received %v: draining event loop and closing store", s)
		case <-quit:
			return
		}
		go func() {
			select {
			case s := <-sig:
				logger.Errorf("received second %v: exiting immediately", s)
				os.Exit(1)
			case <-quit:
			}
		}()
		rn.Close()
	}()
	return func() {
		signal.Stop(sig)
		close(quit)
	}
}

// nodeConfig parameterizes one replica process.
type nodeConfig struct {
	Self            types.ReplicaID
	N               int
	Listen          string
	Peers           []string // addresses in ID order (1..n)
	Seed            int64
	DataDir         string
	CheckpointEvery uint64
	Sync            bool
	// Sequential disables the multi-core commit pipeline: certificates,
	// transaction signatures and block application run inline on the
	// event loop. The chain is bit-identical either way.
	Sequential bool
	// Scheme names the signature scheme for both the demo consensus PKI
	// and transaction signatures: "ed25519" (default) or "ecdsa". Every
	// node and client of a deployment must agree. "sim" is rejected —
	// its registry-backed MACs cannot authenticate out-of-process
	// clients.
	Scheme string
	// AggregateCerts requests aggregate certificate assembly. It only
	// takes effect when the consensus scheme implements
	// crypto.Aggregator; the demo ed25519/ecdsa PKIs do not, so
	// certificates stay in signed-statement form and the flag is
	// forward plumbing for aggregation-capable schemes.
	AggregateCerts bool
	// Mempool is the admission policy the replica's pool enforces (zero
	// value = permissive arrival-order queueing). Rate windows run on
	// wall time since process start.
	Mempool mempool.Policy
	// SyncTimeout bounds the bootstrap wait for peer responses (default 5s).
	SyncTimeout time.Duration
	// PeerQueue bounds each peer's outbound send queue (0 = transport
	// default). On overflow the oldest queued frame is displaced.
	PeerQueue int
	// MetricsAddr serves /metrics, /status and /debug/pprof/ when set.
	MetricsAddr string
	// LogLevel is the minimum severity Logf receives. The zero value is
	// LevelDebug (everything), which tests rely on; main defaults the
	// flag to info.
	LogLevel obs.Level
	// Logf is the log sink (log.Printf in main, t.Logf in tests). At the
	// default info level the emitted lines are byte-identical to the
	// pre-leveled logger: no pre-existing line was demoted below info.
	Logf func(format string, args ...any)
}

// replicaNode is one running replica: transport node, consensus replica,
// payment state and (optionally) the durable store.
type replicaNode struct {
	cfg      nodeConfig
	log      *obs.Logger
	node     *transport.Node
	replica  *asmr.Replica
	pool     *mempool.Pool
	batches  *wire.BatchCache
	txScheme crypto.Scheme
	faucet   utxo.Address

	// Observability (metrics.go): the registry is always maintained, the
	// HTTP listener only exists under -metrics-addr.
	metrics   *nodeMetrics
	metricsLn net.Listener
	httpSrv   *http.Server
	startedAt time.Time
	// Commit pipeline (nil in -sequential mode): shared certificate
	// verdicts for the consensus layer, speculative transaction
	// verification for the payment layer.
	certs *pipeline.Verifier
	txv   *pipeline.TxVerifier

	// All fields below are touched only on the transport event loop.
	ledger *bm.Ledger
	st     *store.Store
	// proposeAt is the wall-clock start per instance, feeding the commit
	// latency histogram.
	proposeAt map[uint64]time.Time

	started   bool
	syncPeers []types.ReplicaID
	syncResps map[types.ReplicaID]*wire.SyncResp
	syncOver  bool

	// served closes when Serve has exited and the store is closed.
	served chan struct{}
}

// syncDeadline is the timer payload bounding the bootstrap wait;
// syncRetry re-requests unanswered peers halfway through (a response
// can be lost to a connection the peer cached before we came up).
type (
	syncDeadline struct{}
	syncRetry    struct{}
)

// nodeSchemeKind resolves the -scheme flag. The empty string (tests
// building nodeConfig directly) means ed25519, matching the flag default.
func nodeSchemeKind(name string) (crypto.SchemeKind, error) {
	switch name {
	case "", "ed25519":
		return crypto.SchemeEd25519, nil
	case "ecdsa", "ecdsa-p256":
		return crypto.SchemeECDSA, nil
	case "sim":
		return 0, fmt.Errorf("-scheme sim is registry-internal and cannot authenticate clients (use ed25519 or ecdsa)")
	default:
		return 0, fmt.Errorf("unknown -scheme %q (want ed25519 or ecdsa)", name)
	}
}

func newReplicaNode(cfg nodeConfig) (*replicaNode, error) {
	transport.RegisterWireTypes()
	if cfg.SyncTimeout == 0 {
		cfg.SyncTimeout = 5 * time.Second
	}

	kind, err := nodeSchemeKind(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	signers, _, err := crypto.GenerateCluster(kind, cfg.N, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("deriving demo PKI: %w", err)
	}
	members := make([]types.ReplicaID, cfg.N)
	peers := make(map[types.ReplicaID]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		members[i] = types.ReplicaID(i + 1)
		peers[types.ReplicaID(i+1)] = cfg.Peers[i]
	}

	start := time.Now()
	rn := &replicaNode{
		cfg:       cfg,
		log:       obs.NewLogger(cfg.Logf, cfg.LogLevel),
		pool:      mempool.NewWithPolicy(cfg.Mempool),
		batches:   wire.NewBatchCache(2 * cfg.N), // the proposals of the instance committing and of the one in flight
		proposeAt: make(map[uint64]time.Time),
		startedAt: start,
		syncResps: make(map[types.ReplicaID]*wire.SyncResp),
		served:    make(chan struct{}),
	}
	rn.metrics = newNodeMetrics(rn.pool, rn.batches)
	// Rate-limit windows run on wall time since process start (a real
	// deployment has no virtual clock to share).
	rn.pool.SetClock(func() time.Duration { return time.Since(start) })
	if !cfg.Sequential {
		rn.certs = pipeline.NewVerifier(pipeline.Shared())
	}
	rn.node = transport.NewNode(transport.Config{
		Self:          cfg.Self,
		Listen:        cfg.Listen,
		Peers:         peers,
		SendQueueSize: cfg.PeerQueue,
		Logger:        rn.log,
	})
	rn.metrics.wireTransport(rn.node, members)

	// Payment application state (same scheme as the consensus PKI, so one
	// -scheme flag keeps nodes and clients in agreement).
	txReg := crypto.NewRegistry(kind)
	txScheme, err := crypto.NewScheme(kind, txReg)
	if err != nil {
		return nil, err
	}
	rn.txScheme = txScheme
	if !cfg.Sequential {
		rn.txv = pipeline.NewTxVerifier(pipeline.Shared(), txScheme)
		// Pipeline handoff: transactions start verifying the moment a
		// client submit lands in the mempool.
		rn.pool.SetPreverify(func(tx *utxo.Transaction) {
			rn.txv.Preverify([]*utxo.Transaction{tx})
		})
	}
	faucetKP, err := txScheme.GenerateKey(crypto.NewDeterministicRand(cfg.Seed ^ 0xFA0CE7))
	if err != nil {
		return nil, err
	}
	rn.faucet = utxo.AddressOf(faucetKP.Public())

	// Durable store + ledger recovery.
	var restored []asmr.RestoredBlock
	if cfg.DataDir != "" {
		st, err := store.Open(cfg.DataDir, store.Options{CheckpointEvery: cfg.CheckpointEvery, Fsync: true})
		if err != nil {
			return nil, err
		}
		rn.st = st
		if _, hasBlocks := st.LastK(); hasBlocks {
			ledger, err := st.Recover(txScheme, rn.seedGenesis)
			if err != nil {
				return nil, fmt.Errorf("recovering chain: %w", err)
			}
			rn.ledger = ledger
			for _, rec := range st.BlockRecords() {
				restored = append(restored, asmr.RestoredBlock{K: rec.K, Attempt: rec.Attempt, Digest: rec.Digest})
			}
			rn.log.Infof("recovered chain from %s: height %d, lastK %d, faucet=%d",
				cfg.DataDir, ledger.Height(), ledger.LastK(), ledger.Table().Balance(rn.faucet))
		}
	}
	if rn.ledger == nil {
		rn.ledger = bm.NewLedger(txScheme)
		rn.seedGenesis(rn.ledger)
	}
	rn.ledger.SetParallel(rn.txv.Pool())

	rn.replica = asmr.NewReplica(asmr.Config{
		Self:             cfg.Self,
		Signer:           signers[int(cfg.Self)-1],
		Env:              rn.node,
		InitialCommittee: members,
		Accountable:      true,
		Recover:          true,
		WaitForWork:      true,
		AggregateCerts:   cfg.AggregateCerts,
		Certs:            rn.certs,
		// One canonical copy per proposal digest: a node stores a pulled
		// PayloadResp and the original Init as the same bytes.
		Intern:     rbc.NewIntern(),
		OnProposal: rn.onProposal,
		BatchSource: func(k uint64) asmr.Batch {
			txs := rn.pool.Take(2000)
			if len(txs) == 0 {
				return asmr.Batch{}
			}
			data, err := wire.EncodeBatch(txs)
			if err != nil {
				return asmr.Batch{}
			}
			// The proposal comes back through OnProposal and OnCommit: let
			// both find the pool's own, already verified transactions.
			rn.batches.Seed(data, txs)
			if _, ok := rn.proposeAt[k]; !ok {
				rn.proposeAt[k] = time.Now()
			}
			return asmr.Batch{Payload: data, ClaimedSigs: len(txs)}
		},
		OnCommit: rn.onCommit,
		OnDisagreement: func(k uint64, _, remote *sbc.Decision) {
			block := blockFrom(k, remote, rn.batches)
			merged := rn.ledger.MergeBlock(block)
			rn.persist(block, 0, true)
			rn.metrics.merged.Inc()
			rn.metrics.height.Set(int64(rn.ledger.Height()))
			rn.log.Warnf("fork at block %d reconciled: %d txs merged", k, merged)
		},
		OnPoF: func(p accountability.PoF) {
			rn.metrics.culprits.Inc()
			rn.log.Warnf("proof of fraud against replica %v", p.Culprit)
		},
		OnMembershipChange: func(res *membership.Result) {
			rn.metrics.epoch.Set(int64(res.Epoch))
			rn.log.Infof("membership change: excluded %v, included %v", res.Excluded, res.Included)
		},
	})
	if len(restored) > 0 {
		rn.replica.Restore(restored)
	}

	handler := &appHandler{rn: rn}
	rn.node.SetHandler(handler)

	// Launch sequencing runs on the event loop: either straight into
	// consensus, or after the standby bootstrap completes.
	rn.node.Do(func() {
		if cfg.Sync && rn.st != nil && len(restored) == 0 {
			rn.beginSync()
			return
		}
		rn.start(len(restored) > 0)
	})
	if cfg.MetricsAddr != "" {
		if err := rn.startMetricsServer(cfg.MetricsAddr); err != nil {
			rn.node.Close()
			return nil, err
		}
	}
	rn.log.Infof("replica %v listening on %s (n=%d)", cfg.Self, cfg.Listen, cfg.N)
	return rn, nil
}

// onProposal pre-validates a delivered batch while consensus decides
// whether it commits. Event loop only.
func (rn *replicaNode) onProposal(_ uint64, payload []byte) {
	rn.metrics.proposalsDelivered.Inc()
	rn.txv.SpeculateBatch(payload, rn.batches)
}

// onCommit applies a decided superblock: ledger, store, mempool, metrics.
// Event loop only.
func (rn *replicaNode) onCommit(k uint64, attempt uint32, d *sbc.Decision) {
	block := blockFrom(k, d, rn.batches)
	applied := rn.ledger.CommitBlock(block)
	rn.persist(block, attempt, false)
	rn.pool.Prune(block.Txs)
	rn.metrics.committed.Inc()
	rn.metrics.proposalsCommitted.Add(uint64(len(d.Proposals)))
	if rn.st == nil && rn.cfg.CheckpointEvery > 0 && rn.metrics.committed.Value()%rn.cfg.CheckpointEvery == 0 {
		// No store, so no checkpoint will ever bound the committed-
		// transaction dedup set (persist): trim on the same cadence.
		// A transaction resubmitted after that is admitted again and
		// skipped by the ledger, which knows every applied ID.
		rn.pool.TrimCommitted()
	}
	rn.metrics.txApplied.Add(uint64(applied))
	rn.metrics.height.Set(int64(rn.ledger.Height()))
	rn.metrics.retainedPayload.Set(rn.metrics.retainedPayload.Value() + int64(payloadBytes(d)))
	if t0, ok := rn.proposeAt[k]; ok {
		delete(rn.proposeAt, k)
		rn.metrics.commitLat.Observe(time.Since(t0).Seconds())
	}
	rn.log.Infof("block %d committed: %d txs applied, height %d, faucet=%d",
		k, applied, rn.ledger.Height(), rn.ledger.Table().Balance(rn.faucet))
}

// seedGenesis seeds a fresh ledger with the demo genesis: one faucet
// account derived from the shared seed.
func (rn *replicaNode) seedGenesis(l *bm.Ledger) {
	l.Genesis(map[utxo.Address]types.Amount{rn.faucet: 1_000_000_000})
}

// start launches consensus; recovered reports whether a persisted chain
// was restored, in which case the replica asks its peers for the
// instances decided while it was down.
func (rn *replicaNode) start(recovered bool) {
	if rn.started {
		return
	}
	rn.started = true
	rn.replica.Start()
	if recovered {
		rn.replica.RequestCatchup()
	}
}

// persist writes a block through to the store and cuts a checkpoint when
// due. Persistence failures are fatal for a durable node: continuing
// would silently break the recovery contract.
func (rn *replicaNode) persist(b *bm.Block, attempt uint32, merge bool) {
	if rn.st == nil {
		return
	}
	var err error
	if merge {
		err = rn.st.AppendMerge(b, attempt)
	} else {
		err = rn.st.AppendBlock(b, attempt)
	}
	if err == nil && rn.st.ShouldCheckpoint() {
		err = rn.st.WriteCheckpoint(rn.ledger.CheckpointState())
		if err == nil {
			// The checkpoint bounds the committed-transaction dedup set.
			rn.pool.TrimCommitted()
		}
	}
	if err == nil {
		err = rn.st.Flush()
	}
	if err != nil {
		log.Fatalf("persisting block %d: %v", b.K, err)
	}
}

// --- Standby bootstrap (store-level catch-up) ---

// beginSync asks every peer for its checkpoint + log tail and arms the
// deadline; responses are cross-checked before installing.
func (rn *replicaNode) beginSync() {
	req := &wire.SyncReq{FromK: 1, WantCheckpoint: true}
	payload := wire.EncodeSyncReq(req)
	for i := 1; i <= rn.cfg.N; i++ {
		id := types.ReplicaID(i)
		if id == rn.cfg.Self {
			continue
		}
		rn.syncPeers = append(rn.syncPeers, id)
		rn.node.Send(id, &transport.SyncFrame{Req: true, Payload: payload})
	}
	if len(rn.syncPeers) == 0 {
		rn.start(false)
		return
	}
	rn.node.SetTimer(rn.cfg.SyncTimeout/2, syncRetry{})
	rn.node.SetTimer(rn.cfg.SyncTimeout, syncDeadline{})
	rn.log.Infof("bootstrapping from %d peers", len(rn.syncPeers))
}

// retrySync re-sends the bootstrap request to peers that have not
// answered yet.
func (rn *replicaNode) retrySync() {
	if rn.syncOver || rn.started {
		return
	}
	payload := wire.EncodeSyncReq(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
	for _, id := range rn.syncPeers {
		if _, ok := rn.syncResps[id]; !ok {
			rn.log.Debugf("re-requesting bootstrap state from replica %v", id)
			rn.node.Send(id, &transport.SyncFrame{Req: true, Payload: payload})
		}
	}
}

// onSyncFrame serves requests from our store and collects responses
// during a bootstrap.
func (rn *replicaNode) onSyncFrame(from types.ReplicaID, f *transport.SyncFrame) {
	if f.Req {
		if rn.st == nil {
			return
		}
		req, err := wire.DecodeSyncReq(f.Payload)
		if err != nil {
			return
		}
		resp, err := rn.st.BuildSyncResp(req)
		if err != nil {
			rn.log.Warnf("building sync response: %v", err)
			return
		}
		rn.node.Send(from, &transport.SyncFrame{Payload: wire.EncodeSyncResp(resp)})
		return
	}
	if rn.syncOver || rn.started {
		return
	}
	resp, err := wire.DecodeSyncResp(f.Payload)
	if err != nil {
		return
	}
	if _, dup := rn.syncResps[from]; dup {
		return
	}
	rn.syncResps[from] = resp
	if len(rn.syncResps) == len(rn.syncPeers) {
		rn.finishSync()
	}
}

// finishSync cross-checks the collected responses (a majority of the
// queried peers must agree on the chain) and installs the winner into
// the store + ledger, then joins consensus.
func (rn *replicaNode) finishSync() {
	if rn.syncOver {
		return
	}
	rn.syncOver = true
	resps := make([]*wire.SyncResp, 0, len(rn.syncPeers))
	for _, id := range rn.syncPeers {
		resps = append(resps, rn.syncResps[id]) // nil for silent peers
	}
	best, err := store.CrossCheck(resps)
	if err == nil {
		var ledger *bm.Ledger
		ledger, err = store.InstallSync(rn.st, rn.txScheme, best, rn.seedGenesis)
		if err == nil {
			rn.ledger = ledger
			rn.ledger.SetParallel(rn.txv.Pool())
			restored := make([]asmr.RestoredBlock, 0)
			for _, rec := range rn.st.BlockRecords() {
				restored = append(restored, asmr.RestoredBlock{K: rec.K, Attempt: rec.Attempt, Digest: rec.Digest})
			}
			rn.replica.Restore(restored)
			rn.log.Infof("bootstrap installed: height %d, lastK %d", ledger.Height(), ledger.LastK())
			rn.start(true)
			return
		}
	}
	// Roll back before falling back: an install that failed midway (I/O
	// error after the verify phase) may have left foreign state in the
	// store, and running from genesis on top of it would corrupt every
	// future recovery. The directory was empty before the bootstrap
	// (sync only runs on an empty store), so wiping restores that.
	rn.st.Close()
	if rmErr := os.RemoveAll(rn.cfg.DataDir); rmErr != nil {
		log.Fatalf("rolling back failed bootstrap: %v", rmErr)
	}
	st, openErr := store.Open(rn.cfg.DataDir, store.Options{CheckpointEvery: rn.cfg.CheckpointEvery, Fsync: true})
	if openErr != nil {
		log.Fatalf("reopening store after failed bootstrap: %v", openErr)
	}
	rn.st = st
	rn.log.Warnf("bootstrap failed (%v), starting from genesis", err)
	rn.start(false)
}

// Serve runs the node until Close. The store is closed here, after the
// event loop has drained: queued commits may still persist blocks while
// the stop sentinel works its way through the queue, and closing the
// store from another goroutine would turn a graceful shutdown into a
// fatal ErrClosed mid-commit.
func (rn *replicaNode) Serve() error {
	err := rn.node.Serve()
	if rn.st != nil {
		if cerr := rn.st.Close(); cerr != nil {
			rn.log.Errorf("closing store: %v", cerr)
		}
	}
	close(rn.served)
	return err
}

// Close shuts the node down and waits for Serve to finish flushing and
// closing the store, so the data directory is quiescent when Close
// returns (a restart may reopen it immediately).
func (rn *replicaNode) Close() {
	if rn.httpSrv != nil {
		rn.httpSrv.Close()
	}
	rn.node.Close()
	<-rn.served
}

// appHandler intercepts client SubmitTx requests and store sync frames,
// forwarding everything else to the replica.
type appHandler struct {
	rn *replicaNode
}

func (h *appHandler) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *transport.SubmitTx:
		if m.Tx == nil {
			return
		}
		if err := h.rn.pool.Add(m.Tx); err == nil {
			h.rn.replica.Kick()
			h.rn.log.Infof("tx %v enqueued (mempool %d)", m.Tx.ID(), h.rn.pool.Len())
		} else {
			h.rn.log.Warnf("tx %v rejected: %v", m.Tx.ID(), err)
		}
	case *transport.SyncFrame:
		h.rn.onSyncFrame(from, m)
	default:
		committed := h.rn.metrics.committed.Value()
		h.rn.replica.OnMessage(from, msg)
		if h.rn.metrics.committed.Value() != committed {
			// Once per block, after the replica has retired what the new
			// block pushed out of its window.
			h.rn.metrics.publishReplica(h.rn.replica.Stats())
			h.rn.metrics.publishMemory(h.rn.ledger, h.rn.batches)
		}
	}
}

func (h *appHandler) OnTimer(payload any) {
	switch payload.(type) {
	case syncDeadline:
		if !h.rn.syncOver && !h.rn.started {
			h.rn.finishSync()
		}
	case syncRetry:
		h.rn.retrySync()
	default:
		h.rn.replica.OnTimer(payload)
	}
}

// blockFrom assembles the application block of a decision, decoding each
// proposal payload through the shared batch cache (internal/wire).
func blockFrom(k uint64, d *sbc.Decision, batches *wire.BatchCache) *bm.Block {
	proposals := d.OrderedProposals()
	decoded := make([][]*utxo.Transaction, 0, len(proposals))
	total := 0
	for _, p := range proposals {
		batch, err := batches.Decode(p.Payload)
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
