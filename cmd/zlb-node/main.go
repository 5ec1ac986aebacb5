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
// A block record in the store carries its decision, certificates
// included: the replica reads its retired and restored instances'
// decisions back from there. Without -data-dir a retired decision is
// dropped, and the node serves the last asmr.RetainDepth instances, as
// far back as a fork merge or a proof of fraud reaches. The node opens no
// file outside -data-dir.
// A replica further behind than its peers hold cannot catch up: nothing
// falls back to the -sync bootstrap.
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
	"github.com/zeroloss/zlb/internal/node"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

func main() {
	cfg := nodeConfig{Logf: log.Printf}
	id := flag.Uint("id", 0, "replica ID (1..n)")
	flag.IntVar(&cfg.N, "n", 4, "committee size")
	flag.StringVar(&cfg.Listen, "listen", "", "listen address, e.g. :7001")
	peersFlag := flag.String("peers", "", "comma-separated peer addresses in ID order (1..n)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "shared PKI seed (demo key derivation)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", fmt.Sprintf("durable block store directory, also read for the decisions of retired instances (empty = in-memory only, and a retired decision is dropped); a peer that lags beyond what this node holds (its last %d instances without a store, its log after the last checkpoint with one) cannot catch up from it", asmr.RetainDepth))
	flag.Uint64Var(&cfg.CheckpointEvery, "checkpoint-every", 16, "blocks between UTXO checkpoints (with -data-dir)")
	flag.BoolVar(&cfg.Sync, "sync", false, "bootstrap an empty -data-dir from peers (checkpoint + log tail) before joining")
	flag.StringVar(&cfg.Scheme, "scheme", "ed25519", "signature scheme for the demo PKI and transactions: ed25519 or ecdsa (must match peers and clients)")
	flag.IntVar(&cfg.Mempool.MaxTxs, "mempool-max", 0, "mempool admission: max pending transactions (0 = unlimited)")
	flag.Int64Var(&cfg.Mempool.MaxBytes, "mempool-max-bytes", 0, "mempool admission: max pending canonical bytes (0 = unlimited)")
	flag.IntVar(&cfg.Mempool.MaxPerAccount, "mempool-account-cap", 0, "mempool admission: max pending transactions per sender (0 = unlimited)")
	flag.IntVar(&cfg.Mempool.RatePerAccount, "mempool-rate", 0, "mempool admission: max admissions per sender per rate window (0 = unlimited)")
	flag.DurationVar(&cfg.Mempool.RateWindow, "mempool-rate-window", time.Second, "mempool admission: rate-limit window")
	flag.Uint64Var((*uint64)(&cfg.Mempool.MinFee), "mempool-min-fee", 0, "mempool admission: reject transactions below this fee")
	flag.BoolVar(&cfg.Mempool.PriorityOrder, "mempool-priority", false, "mempool admission: batch by fee rate instead of arrival order")
	flag.IntVar(&cfg.Mempool.ReplaceBumpPct, "mempool-replace-bump", 0, "mempool admission: replacement-by-fee bump percentage (0 = replacement off)")
	flag.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "serve /metrics (Prometheus text), /status (JSON) and /debug/pprof/ on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "minimum log severity (debug, info, warn, error)")
	flag.Parse()

	var err error
	if cfg.LogLevel, err = obs.ParseLevel(*logLevel); err != nil {
		log.Fatal(err)
	}
	if *id == 0 || cfg.Listen == "" || *peersFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg.Self = types.ReplicaID(*id)
	cfg.Peers = strings.Split(*peersFlag, ",")
	if len(cfg.Peers) != cfg.N {
		log.Fatalf("got %d peer addresses for n=%d", len(cfg.Peers), cfg.N)
	}

	rn, err := newReplicaNode(cfg)
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
	// Scheme names the signature scheme for both the demo consensus PKI
	// and transaction signatures: "ed25519" (default) or "ecdsa". Every
	// node and client of a deployment must agree. "sim" is rejected —
	// its registry-backed MACs cannot authenticate out-of-process
	// clients.
	Scheme string
	// Mempool is the admission policy the replica's pool enforces (zero
	// value = permissive arrival-order queueing). Rate windows run on
	// wall time since process start.
	Mempool mempool.Policy
	// SyncTimeout bounds the bootstrap wait for peer responses (default 5s).
	SyncTimeout time.Duration
	// MetricsAddr serves /metrics, /status and /debug/pprof/ when set.
	MetricsAddr string
	// LogLevel is the minimum severity Logf receives. The zero value is
	// LevelDebug (everything), which tests rely on; main defaults the
	// flag to info.
	LogLevel obs.Level
	// Logf is the log sink (log.Printf in main, t.Logf in tests). At the
	// default info level a node logs per block, not per submit: an
	// admitted transaction is logged at debug, refused ones once a second.
	Logf func(format string, args ...any)
}

// replicaNode is one running replica: transport node, consensus replica
// and the payment application (internal/node) with its optional store.
type replicaNode struct {
	cfg     nodeConfig
	log     *obs.Logger
	node    *transport.Node
	replica *asmr.Replica
	app     *node.Node
	faucet  utxo.Address

	// Observability (metrics.go): the node's registry is always
	// maintained, the HTTP listener only exists under -metrics-addr.
	metricsLn net.Listener
	httpSrv   *http.Server

	// All fields below are touched only on the transport event loop.
	started   bool
	syncPeers []types.ReplicaID
	syncResps map[types.ReplicaID]*wire.SyncResp
	syncOver  bool
	// rejected counts the submits refused since rejectLogged, the last
	// warning about one (warnRejected).
	rejected     int
	rejectLogged time.Time
	// changes holds the completed membership changes, in order.
	changes []*membership.Result

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

func newReplicaNode(cfg nodeConfig) (*replicaNode, error) {
	transport.RegisterWireTypes()
	if cfg.SyncTimeout == 0 {
		cfg.SyncTimeout = 5 * time.Second
	}

	kind, err := node.SchemeKind(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("-scheme: %w", err)
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

	rn := &replicaNode{
		cfg:       cfg,
		log:       obs.NewLogger(cfg.Logf, cfg.LogLevel),
		syncResps: make(map[types.ReplicaID]*wire.SyncResp),
		served:    make(chan struct{}),
	}
	rn.node = transport.NewNode(transport.Config{
		Self:   cfg.Self,
		Listen: cfg.Listen,
		Peers:  peers,
		Logger: rn.log,
	})

	// Payment application (same scheme as the consensus PKI, so one
	// -scheme flag keeps nodes and clients in agreement). The demo genesis
	// is one faucet account derived from the shared seed.
	txScheme, err := crypto.NewScheme(kind, crypto.NewRegistry(kind))
	if err != nil {
		return nil, err
	}
	faucetKP, err := txScheme.GenerateKey(crypto.NewDeterministicRand(cfg.Seed ^ 0xFA0CE7))
	if err != nil {
		return nil, err
	}
	rn.faucet = utxo.AddressOf(faucetKP.Public())
	rn.app, err = node.New(node.Options{
		Env:    rn.node, // rate-limit windows run on wall time since process start
		Scheme: txScheme,
		Genesis: func(l *bm.Ledger) {
			l.Genesis(map[utxo.Address]types.Amount{rn.faucet: 1_000_000_000})
		},
		Mempool:         cfg.Mempool,
		BatchTxs:        2000,
		Batches:         wire.NewBatchCache(2 * cfg.N), // the proposals of the instance committing and of the one in flight
		DataDir:         cfg.DataDir,
		CheckpointEvery: cfg.CheckpointEvery,
		// Persistence failures are fatal for a durable node: continuing
		// would silently break the recovery contract.
		OnStoreError: func(err error) {
			rn.log.Errorf("%v", err)
			os.Exit(1)
		},
		OnCommitted: func(k uint64, _ *bm.Block, applied int) {
			l := rn.app.Ledger()
			rn.log.Infof("block %d committed: %d txs applied, height %d, faucet=%d",
				k, applied, l.Height(), l.Table().Balance(rn.faucet))
		},
		OnMerged: func(k uint64, merged int) {
			rn.log.Warnf("fork at block %d reconciled: %d txs merged", k, merged)
		},
	})
	if err != nil {
		return nil, err
	}
	if rn.app.Restored() {
		l := rn.app.Ledger()
		rn.log.Infof("recovered chain from %s: height %d, lastK %d, faucet=%d",
			cfg.DataDir, l.Height(), l.LastK(), l.Table().Balance(rn.faucet))
	}
	wireTransport(rn.app.Metrics(), rn.node, members)

	// The replica is built around the application: its own log lines
	// first, then what the node binds (internal/node), the replica's
	// policy included.
	replicaCfg := asmr.Config{
		Self:             cfg.Self,
		Signer:           signers[int(cfg.Self)-1],
		Env:              rn.node,
		InitialCommittee: members,
		// One canonical copy per proposal digest: a node stores a pulled
		// PayloadResp and the original Init as the same bytes.
		Intern: rbc.NewIntern(),
		OnPoF: func(p accountability.PoF) {
			rn.log.Warnf("proof of fraud against replica %v", p.Culprit)
		},
		OnMembershipChange: func(res *membership.Result) {
			rn.changes = append(rn.changes, res)
			rn.log.Infof("membership change: excluded %v, included %v", res.Excluded, res.Included)
		},
	}
	rn.app.Bind(&replicaCfg)
	rn.replica = asmr.NewReplica(replicaCfg)
	rn.app.Attach(rn.replica)
	rn.node.SetHandler(&appHandler{rn: rn})

	// Launch sequencing runs on the event loop: either straight into
	// consensus, or after the standby bootstrap completes.
	rn.node.Do(func() {
		if cfg.Sync && cfg.DataDir != "" && !rn.app.Restored() {
			rn.beginSync()
			return
		}
		rn.start()
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

// start launches consensus, once: straight away, or when the standby
// bootstrap is over.
func (rn *replicaNode) start() {
	if rn.started {
		return
	}
	rn.started = true
	rn.app.Start()
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
		rn.start()
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
		req, err := wire.DecodeSyncReq(f.Payload)
		if err != nil {
			return
		}
		resp, err := rn.app.SyncResp(req)
		if err != nil {
			rn.log.Warnf("building sync response: %v", err)
		} else if resp != nil {
			rn.node.Send(from, &transport.SyncFrame{Payload: wire.EncodeSyncResp(resp)})
		}
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
// the store + ledger, then joins consensus — from genesis, over a store
// the node has emptied again, when there is no winner or it does not
// install.
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
		err = rn.app.InstallSync(best)
	}
	if err != nil {
		rn.log.Warnf("bootstrap failed (%v), starting from genesis", err)
	} else {
		rn.log.Infof("bootstrap installed: height %d, lastK %d", rn.app.Ledger().Height(), rn.app.Ledger().LastK())
	}
	rn.start()
}

// Serve runs the node until Close. The store is closed here, after the
// event loop has drained: queued commits may still persist blocks while
// the stop sentinel works its way through the queue, and closing the
// store from another goroutine would turn a graceful shutdown into a
// fatal ErrClosed mid-commit.
func (rn *replicaNode) Serve() error {
	err := rn.node.Serve()
	if cerr := rn.app.Close(); cerr != nil {
		rn.log.Errorf("closing store: %v", cerr)
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
		if err := h.rn.app.Pool().Add(m.Tx); err == nil {
			h.rn.replica.Kick()
			h.rn.log.Debugf("tx %v enqueued (mempool %d)", m.Tx.ID(), h.rn.app.Pool().Len())
		} else {
			h.rn.warnRejected(m.Tx, err)
		}
	case *transport.SyncFrame:
		h.rn.onSyncFrame(from, m)
	default:
		committed := h.rn.app.BlocksCommitted()
		h.rn.replica.OnMessage(from, msg)
		if h.rn.app.BlocksCommitted() != committed {
			// Once per block, after the replica has retired what the new
			// block pushed out of its window.
			h.rn.app.Publish()
		}
	}
}

// warnRejected logs a submit the mempool refused, at most once a second
// and with the number refused since the last line: a client decides how
// many refused submits it sends, and zlb_mempool_rejects_total counts
// them by reason.
func (rn *replicaNode) warnRejected(tx *utxo.Transaction, err error) {
	rn.rejected++
	if now := time.Now(); now.Sub(rn.rejectLogged) >= time.Second {
		rn.log.Warnf("tx %v rejected: %v (%d rejected since the last such line)", tx.ID(), err, rn.rejected)
		rn.rejected, rn.rejectLogged = 0, now
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
