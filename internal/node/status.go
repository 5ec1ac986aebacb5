package node

import (
	"strconv"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/sbc"
)

// Status is the node's part of the /status document, and the state its
// metric series are views of.
type Status struct {
	Height          int64          `json:"height"`
	Epoch           int64          `json:"epoch"`
	BlocksCommitted uint64         `json:"blocks_committed"`
	BlocksMerged    uint64         `json:"blocks_merged"`
	TxsApplied      uint64         `json:"txs_applied"`
	ProvenCulprits  uint64         `json:"proven_culprits"`
	Replica         ReplicaStatus  `json:"replica"`
	Memory          MemoryStatus   `json:"memory"`
	Pipeline        PipelineStatus `json:"pipeline"`
	Mempool         mempool.Stats  `json:"mempool"`
	// WalletKeys is the transaction scheme's wallet-key cache
	// (internal/crypto): the tables it holds, its hits, builds and
	// evictions.
	WalletKeys crypto.KeyCacheStats `json:"wallet_key_cache"`
}

// ReplicaStatus is the consensus-state part of Status: how many
// instances hold protocol state and how many gave it up.
type ReplicaStatus struct {
	LiveInstances      int64  `json:"live_instances"`
	CompactedInstances uint64 `json:"compacted_instances_total"`
	UnfinalInstances   int64  `json:"unfinal_instances"`
}

// MemoryStatus is what committed history holds on this node: the
// zlb_ledger_blocks … zlb_history_pruned_total series. The ledger's
// blocks, committed IDs and unspent outputs grow with the chain; the
// retained payloads are those of the decisions the replica still holds
// in its instances (asmr.Stats.DecisionBytes), which retirement hands to
// the replica's history (asmr.History). On a payment replica (Bind) that
// is the store, whose retained segments are HistoryBytes, or nothing (0).
// HistoryPruned counts the reads of a retired block the history answered
// with "pruned" or "not held".
type MemoryStatus struct {
	LedgerBlocks         int64  `json:"ledger_blocks"`
	CommittedTxIDs       int64  `json:"committed_txids"`
	UTXOEntries          int64  `json:"utxo_entries"`
	BatchCacheEntries    int64  `json:"batch_cache_entries"`
	RetainedPayloadBytes int64  `json:"retained_payload_bytes"`
	HistoryBytes         int64  `json:"history_bytes"`
	HistoryErrors        uint64 `json:"history_errors"`
	HistoryPruned        uint64 `json:"history_pruned"`
	// CheckpointHeight is the height of the last checkpoint cut the store
	// installed since the node started (0 before it, and without a store).
	CheckpointHeight uint64 `json:"checkpoint_height"`
}

// PipelineStatus is where proposal, agreement and signature work went: the
// zlb_proposals_delivered_total … zlb_decide_pulls_total series.
// Proposals the reliable broadcast delivered here against proposals the
// decisions selected: the difference was carried, decoded and verified
// for nothing, and its owner proposes it again. Statement signatures
// checked against those the accountability log already held, and the
// decision certificates pulled after an announcement. The binary
// consensuses of the committed decisions, by decided value, and the rounds
// they took (a decision certificate's round, counted from one): rounds per
// slot and the share of slots decided 0 read off these.
type PipelineStatus struct {
	ProposalsDelivered uint64 `json:"proposals_delivered"`
	ProposalsCommitted uint64 `json:"proposals_committed"`
	BinconRounds       uint64 `json:"bincon_rounds"`
	BinconSlotsZero    uint64 `json:"bincon_slots_decided_0"`
	BinconSlotsOne     uint64 `json:"bincon_slots_decided_1"`
	BatchTxsDecoded    int    `json:"batch_txs_decoded"`
	BatchTxsReused     int    `json:"batch_txs_reused"`
	StmtSigChecks      uint64 `json:"stmt_sig_checks"`
	StmtSigKnown       uint64 `json:"stmt_sig_known"`
	StmtSigDeferred    uint64 `json:"stmt_sig_deferred"`
	DecidePulls        uint64 `json:"decide_pulls"`
}

// update changes the status on the event loop.
func (n *Node) update(change func(*Status)) {
	n.mu.Lock()
	change(&n.status)
	n.mu.Unlock()
}

// Status snapshots the node's state. Safe from any goroutine.
func (n *Node) Status() Status {
	n.mu.Lock()
	s := n.status
	n.mu.Unlock()
	cache := n.opts.Batches.Stats()
	s.Pipeline.BatchTxsDecoded, s.Pipeline.BatchTxsReused = cache.TxsDecoded, cache.TxsReused
	s.Mempool = n.pool.Stats()
	s.WalletKeys = n.walletKeys()
	return s
}

// walletKeys reports the transaction scheme's wallet-key cache; a scheme
// without one reads zero.
func (n *Node) walletKeys() crypto.KeyCacheStats {
	if c, ok := n.opts.Scheme.(interface{ KeyCacheStats() crypto.KeyCacheStats }); ok {
		return c.KeyCacheStats()
	}
	return crypto.KeyCacheStats{}
}

// noteLedger records the chain height, what committed history holds in
// the ledger and how many decoded batches are cached.
func (n *Node) noteLedger(s *Status) {
	s.Height = int64(n.ledger.Height())
	s.Memory.LedgerBlocks = s.Height
	s.Memory.CommittedTxIDs = int64(n.ledger.TxCount())
	s.Memory.UTXOEntries = int64(n.ledger.Table().Size())
	s.Memory.BatchCacheEntries = int64(n.opts.Batches.Len())
}

// noteBinary counts the binary consensuses of committed decision d.
func (p *PipelineStatus) noteBinary(d *sbc.Decision) {
	for slot, one := range d.Bits {
		p.BinconRounds++
		if cert := d.BinCerts[slot]; cert != nil {
			p.BinconRounds += uint64(cert.Stmt.Round)
		}
		if one {
			p.BinconSlotsOne++
		} else {
			p.BinconSlotsZero++
		}
	}
}

// Publish records what the attached replica holds in memory. Call it on
// the event loop once an event that committed a block has returned, when
// the replica has retired what the new block pushed out of its window.
func (n *Node) Publish() {
	held := n.replica.Stats()
	n.update(func(s *Status) {
		n.held = held
		s.Replica = ReplicaStatus{
			LiveInstances:      int64(held.LiveInstances),
			CompactedInstances: held.RetiredInstances,
			UnfinalInstances:   int64(held.UnfinalInstances),
		}
		s.Pipeline.StmtSigChecks, s.Pipeline.StmtSigKnown, s.Pipeline.StmtSigDeferred = held.StmtSigChecks, held.StmtSigKnown, held.StmtSigDeferred
		s.Pipeline.DecidePulls = held.DecidePulls
		s.Memory.RetainedPayloadBytes, s.Memory.HistoryBytes = held.DecisionBytes, held.HistoryBytes
		s.Memory.HistoryErrors, s.Memory.HistoryPruned = held.HistoryErrors, held.HistoryPruned
	})
}

// BlocksCommitted counts the blocks consensus committed here. Event loop
// only.
func (n *Node) BlocksCommitted() uint64 { return n.status.BlocksCommitted }

// Metrics is the registry holding the node's series; a shell adds its own
// (transport, peers) and serves it.
func (n *Node) Metrics() *obs.Metrics { return n.series }

// registerSeries registers the node's metric series. Every one is sampled
// at scrape time: from the status under its lock, or from Pool.Stats and
// BatchCache.Stats, which maintain their counters under their own. A
// scrape never touches replica state.
func (n *Node) registerSeries() {
	reg := obs.NewMetrics()
	n.series = reg
	// The propose→commit latency histogram, in seconds of the node's
	// clock, on a millisecond scale: a loopback cluster commits in a few.
	n.commitLat = reg.Histogram("zlb_commit_latency_seconds", "Wall-clock latency from batch proposal to commit.",
		[]float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10})
	n.cutWrite = reg.Histogram("zlb_checkpoint_write_seconds", "Wall-clock time of a checkpoint cut's background half (sort, encode, write, fsyncs, rename), observed when the cut installs.",
		[]float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 1})
	locked := func(read func() int64) func() float64 {
		return func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return float64(read())
		}
	}
	s, pool, batches := &n.status, n.pool, n.opts.Batches
	reg.GaugeFunc("zlb_height", "Committed chain height of this replica.", locked(func() int64 { return s.Height }))
	reg.GaugeFunc("zlb_epoch", "Current membership epoch.", locked(func() int64 { return s.Epoch }))
	reg.CounterFunc("zlb_blocks_committed_total", "Blocks committed by consensus.", locked(func() int64 { return int64(s.BlocksCommitted) }))
	reg.CounterFunc("zlb_blocks_merged_total", "Forked blocks reconciled by the merge procedure.", locked(func() int64 { return int64(s.BlocksMerged) }))
	reg.CounterFunc("zlb_txs_applied_total", "Transactions applied to the ledger by committed blocks.", locked(func() int64 { return int64(s.TxsApplied) }))
	reg.CounterFunc("zlb_proven_culprits_total", "Replicas convicted by a proof of fraud.", locked(func() int64 { return int64(s.ProvenCulprits) }))

	reg.CounterFunc("zlb_proposals_delivered_total", "Proposal payloads the reliable broadcast delivered to this replica.", locked(func() int64 { return int64(s.Pipeline.ProposalsDelivered) }))
	reg.CounterFunc("zlb_proposals_committed_total", "Proposals selected by the decisions this replica committed.", locked(func() int64 { return int64(s.Pipeline.ProposalsCommitted) }))

	reg.CounterFunc("zlb_bincon_rounds_total", "Rounds the binary consensuses of committed decisions took to decide (the decision certificate's round, counted from one).", locked(func() int64 { return int64(s.Pipeline.BinconRounds) }))
	for value, slots := range []*uint64{&s.Pipeline.BinconSlotsZero, &s.Pipeline.BinconSlotsOne} {
		reg.CounterFunc("zlb_bincon_slots_decided_total", "Binary consensuses (proposer slots) of committed decisions, by decided value.",
			locked(func() int64 { return int64(*slots) }), "value", strconv.Itoa(value))
	}

	reg.CounterFunc("zlb_stmt_sig_checks_total", "Protocol statement signatures (votes, certificates) handed to the signature scheme.", locked(func() int64 { return int64(s.Pipeline.StmtSigChecks) }))
	reg.CounterFunc("zlb_stmt_sig_known_total", "Protocol statement signatures accepted without a check: the accountability log held that exact signed statement.", locked(func() int64 { return int64(s.Pipeline.StmtSigKnown) }))
	reg.CounterFunc("zlb_stmt_sig_deferred_total", "Protocol statement signatures held without a check: votes that arrived after their threshold, checked only if a conflicting vote makes them evidence.", locked(func() int64 { return int64(s.Pipeline.StmtSigDeferred) }))
	reg.CounterFunc("zlb_decide_pulls_total", "Binary decision certificates requested (DecideReq) after an announcement.", locked(func() int64 { return int64(s.Pipeline.DecidePulls) }))

	reg.GaugeFunc("zlb_live_instances", "Consensus instances holding protocol state: in flight or decided within the retention depth.", locked(func() int64 { return s.Replica.LiveInstances }))
	reg.GaugeFunc("zlb_unfinal_instances", "Live instances behind the retention depth: never final, disputed or never decided here.", locked(func() int64 { return s.Replica.UnfinalInstances }))
	reg.GaugeFunc("zlb_log_statements", "Signed statements held by the accountability log, verified or held unchecked.", locked(func() int64 { return int64(n.held.LogStatements) }))
	reg.GaugeFunc("zlb_interned_payloads", "Proposal payloads held by the reliable-broadcast intern table.", locked(func() int64 { return int64(n.held.InternedPayloads) }))
	reg.CounterFunc("zlb_compacted_instances_total", "Finalized instances retired to their compact record (decision only).", locked(func() int64 { return int64(s.Replica.CompactedInstances) }))
	reg.CounterFunc("zlb_late_frames_dropped_total", "Consensus frames that arrived for an already retired instance.", locked(func() int64 { return int64(n.held.LateFramesDropped) }))

	reg.GaugeFunc("zlb_ledger_blocks", "Blocks the ledger holds, as index and digest.", locked(func() int64 { return s.Memory.LedgerBlocks }))
	reg.GaugeFunc("zlb_committed_txids", "Committed transaction IDs the ledger holds.", locked(func() int64 { return s.Memory.CommittedTxIDs }))
	reg.GaugeFunc("zlb_utxo_entries", "Unspent outputs in the UTXO table.", locked(func() int64 { return s.Memory.UTXOEntries }))
	reg.GaugeFunc("zlb_batch_cache_entries", "Decoded proposal batches in the batch cache (at most 2n).", locked(func() int64 { return s.Memory.BatchCacheEntries }))
	reg.GaugeFunc("zlb_retained_payload_bytes", "Proposal payload bytes in the committed decisions this replica holds in memory, outside its history.", locked(func() int64 { return s.Memory.RetainedPayloadBytes }))
	reg.GaugeFunc("zlb_history_bytes", "Bytes of the history retired decisions are read from: the store's retained segments, 0 without a store.", locked(func() int64 { return s.Memory.HistoryBytes }))
	reg.CounterFunc("zlb_history_errors_total", "Failed history writes (the decision stays in memory) and failed or mismatched reads (nothing is served for the instance).", locked(func() int64 { return int64(s.Memory.HistoryErrors) }))
	reg.GaugeFunc("zlb_checkpoint_height", "Height of the last checkpoint cut the store installed since the node started (0 before it, and without a store).", locked(func() int64 { return int64(s.Memory.CheckpointHeight) }))
	reg.CounterFunc("zlb_history_pruned_total", "Reads of a retired block's decision the history does not hold: pruned below the store's retained segments, or dropped by a node without a store (nothing is served for the instance).", locked(func() int64 { return int64(s.Memory.HistoryPruned) }))

	walletKeys := n.walletKeys
	reg.GaugeFunc("zlb_wallet_key_tables", "Wallet-key tables the transaction scheme's cache holds.",
		func() float64 { return float64(walletKeys().Tables) })
	reg.CounterFunc("zlb_wallet_key_hits_total", "Transaction signature checks that found their key's table in the wallet-key cache.",
		func() float64 { return float64(walletKeys().Hits) })
	reg.CounterFunc("zlb_wallet_key_misses_total", "Transaction signature checks under an unregistered key that found no table in the wallet-key cache.",
		func() float64 { return float64(walletKeys().Misses) })
	reg.CounterFunc("zlb_wallet_key_builds_total", "Wallet-key tables built, each at its key's second accepted check.",
		func() float64 { return float64(walletKeys().Builds) })
	reg.CounterFunc("zlb_wallet_key_evictions_total", "Wallet-key tables evicted, oldest first, to make room for a new one.",
		func() float64 { return float64(walletKeys().Evictions) })

	reg.GaugeFunc("zlb_mempool_pending", "Transactions pending in the mempool.",
		func() float64 { return float64(pool.Stats().Pending) })
	reg.GaugeFunc("zlb_mempool_bytes", "Canonical bytes pending in the mempool.",
		func() float64 { return float64(pool.Stats().Bytes) })
	reg.CounterFunc("zlb_mempool_admitted_total", "Transactions admitted by the mempool.",
		func() float64 { return float64(pool.Stats().Admitted) })
	reg.CounterFunc("zlb_mempool_evictions_total", "Transactions evicted by mempool admission policy.",
		func() float64 { return float64(pool.Stats().Evictions) })
	reg.CounterFunc("zlb_batch_txs_decoded_total", "Transactions the batch cache built anew while decoding a proposal payload.",
		func() float64 { return float64(batches.Stats().TxsDecoded) })
	reg.CounterFunc("zlb_batch_txs_reused_total", "Transactions of a decoded payload the batch cache served as the object, verdict included, of a batch it already held.",
		func() float64 { return float64(batches.Stats().TxsReused) })
	for _, reason := range mempool.RejectReasons {
		r := reason
		reg.CounterFunc("zlb_mempool_rejects_total", "Transactions rejected by the mempool, by reason.",
			func() float64 { return float64(pool.Stats().Rejects[r]) }, "reason", r)
	}
}
