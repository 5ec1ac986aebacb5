// Node observability: a dependency-free HTTP endpoint (-metrics-addr)
// exposing Prometheus-text metrics at /metrics, an operator-facing JSON
// snapshot at /status, and the standard pprof profiling handlers under
// /debug/pprof/. The registry (internal/obs) is always maintained —
// counter updates are lock-free atomics, negligible next to a commit —
// and only the HTTP listener is conditional on the flag.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// commitLatencyBounds bucket the propose→commit wall-clock latency
// histogram (seconds).
var commitLatencyBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// nodeMetrics is the replica's metric surface. Event-driven series
// (heights, counts, latencies) are updated from the consensus callbacks
// on the event loop; mempool and batch-cache series are sampled from
// Pool.Stats and BatchCache.Stats at scrape time, since both already
// maintain those counters under their own lock.
type nodeMetrics struct {
	reg *obs.Metrics

	height    *obs.Gauge
	epoch     *obs.Gauge
	committed *obs.Counter
	merged    *obs.Counter
	txApplied *obs.Counter
	culprits  *obs.Counter
	commitLat *obs.Histogram

	// Proposals the reliable broadcast delivered here against proposals
	// the decisions selected: the difference was carried, decoded and
	// verified for nothing, and its owner proposes it again.
	proposalsDelivered *obs.Counter
	proposalsCommitted *obs.Counter

	// What the replica holds in memory (asmr.Stats), published by the
	// event loop once per block: the scrape goroutine reads these atomics
	// and never touches replica state.
	liveInstances    *obs.Gauge
	unfinalInstances *obs.Gauge
	logStatements    *obs.Gauge
	internedPayloads *obs.Gauge
	compacted        *obs.Counter
	lateDropped      *obs.Counter

	// What committed history leaves in memory, published with the above.
	// Everything but the batch cache grows with the chain.
	ledgerBlocks    *obs.Gauge
	committedTxIDs  *obs.Gauge
	utxoEntries     *obs.Gauge
	batchCache      *obs.Gauge
	retainedPayload *obs.Gauge
}

func newNodeMetrics(pool *mempool.Pool, batches *wire.BatchCache) *nodeMetrics {
	reg := obs.NewMetrics()
	m := &nodeMetrics{
		reg:       reg,
		height:    reg.Gauge("zlb_height", "Committed chain height of this replica."),
		epoch:     reg.Gauge("zlb_epoch", "Current membership epoch."),
		committed: reg.Counter("zlb_blocks_committed_total", "Blocks committed by consensus."),
		merged:    reg.Counter("zlb_blocks_merged_total", "Forked blocks reconciled by the merge procedure."),
		txApplied: reg.Counter("zlb_txs_applied_total", "Transactions applied to the ledger by committed blocks."),
		culprits:  reg.Counter("zlb_proven_culprits_total", "Replicas convicted by a proof of fraud."),
		commitLat: reg.Histogram("zlb_commit_latency_seconds", "Wall-clock latency from batch proposal to commit.", commitLatencyBounds),

		proposalsDelivered: reg.Counter("zlb_proposals_delivered_total", "Proposal payloads the reliable broadcast delivered to this replica."),
		proposalsCommitted: reg.Counter("zlb_proposals_committed_total", "Proposals selected by the decisions this replica committed."),

		liveInstances:    reg.Gauge("zlb_live_instances", "Consensus instances holding protocol state: in flight or decided within the retention depth."),
		unfinalInstances: reg.Gauge("zlb_unfinal_instances", "Live instances behind the retention depth: never final, disputed or never decided here."),
		logStatements:    reg.Gauge("zlb_log_statements", "Signed statements held by the accountability log."),
		internedPayloads: reg.Gauge("zlb_interned_payloads", "Proposal payloads held by the reliable-broadcast intern table."),
		compacted:        reg.Counter("zlb_compacted_instances_total", "Finalized instances retired to their compact record (decision only)."),
		lateDropped:      reg.Counter("zlb_late_frames_dropped_total", "Consensus frames that arrived for an already retired instance."),

		ledgerBlocks:    reg.Gauge("zlb_ledger_blocks", "Blocks the ledger holds, as index and digest."),
		committedTxIDs:  reg.Gauge("zlb_committed_txids", "Committed transaction IDs the ledger holds."),
		utxoEntries:     reg.Gauge("zlb_utxo_entries", "Unspent outputs in the UTXO table."),
		batchCache:      reg.Gauge("zlb_batch_cache_entries", "Decoded proposal batches in the batch cache (at most 2n)."),
		retainedPayload: reg.Gauge("zlb_retained_payload_bytes", "Proposal payload bytes in the decisions this replica committed and retains."),
	}
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
	return m
}

// publishReplica copies a replica snapshot into the exported series.
// Event loop only: it is the single writer, which is what makes the
// counter deltas exact.
func (m *nodeMetrics) publishReplica(s asmr.Stats) {
	m.liveInstances.Set(int64(s.LiveInstances))
	m.unfinalInstances.Set(int64(s.UnfinalInstances))
	m.logStatements.Set(int64(s.LogStatements))
	m.internedPayloads.Set(int64(s.InternedPayloads))
	m.compacted.Add(s.RetiredInstances - m.compacted.Value())
	m.lateDropped.Add(s.LateFramesDropped - m.lateDropped.Value())
}

// publishMemory publishes what committed history holds in the ledger and
// how many decoded batches are cached. Event loop only, once per block.
func (m *nodeMetrics) publishMemory(l *bm.Ledger, batches *wire.BatchCache) {
	m.ledgerBlocks.Set(int64(l.Height()))
	m.committedTxIDs.Set(int64(l.TxCount()))
	m.utxoEntries.Set(int64(l.Table().Size()))
	m.batchCache.Set(int64(batches.Len()))
}

// payloadBytes is what retaining d costs in proposal payloads. Equal
// payloads are one array (rbc.Intern) and count once.
func payloadBytes(d *sbc.Decision) int {
	total := 0
	counted := make(map[types.Digest]bool, len(d.Proposals))
	for _, p := range d.Proposals {
		if !counted[p.Digest] {
			counted[p.Digest] = true
			total += len(p.Payload)
		}
	}
	return total
}

// wireTransport registers the transport's node-wide counters and the
// per-peer health series. All values are read from the transport's
// lock-free counters at scrape time, so the series cost nothing on the
// consensus path.
func (m *nodeMetrics) wireTransport(node *transport.Node, members []types.ReplicaID) {
	reg := m.reg
	reg.CounterFunc("zlb_transport_frames_sent_total", "Frames written to peer connections.",
		func() float64 { return float64(node.Stats().Sent) })
	reg.CounterFunc("zlb_transport_events_received_total", "Events handled by the replica's event loop.",
		func() float64 { return float64(node.Stats().Received) })
	reg.CounterFunc("zlb_transport_events_dropped", "Inbound or self events dropped by a full event queue.",
		func() float64 { return float64(node.Stats().EventsDropped) })
	reg.CounterFunc("zlb_transport_decode_errors", "Inbound frames that failed to decode (connection dropped).",
		func() float64 { return float64(node.Stats().DecodeErrors) })
	reg.CounterFunc("zlb_transport_send_drops_total", "Outbound frames displaced from full peer queues.",
		func() float64 { return float64(node.Stats().SendDrops) })
	reg.CounterFunc("zlb_transport_submit_backpressure_total", "Client submits refused with a backpressure ack.",
		func() float64 { return float64(node.Stats().SubmitBackpressure) })

	self := node.Self()
	for _, id := range members {
		if id == self {
			continue
		}
		peer := id
		label := fmt.Sprintf("%d", peer)
		reg.GaugeFunc("zlb_peer_state", "Peer connection state (0=idle 1=connected 2=backoff 3=suspect).",
			func() float64 { return float64(node.PeerHealthFor(peer).State) }, "peer", label)
		reg.GaugeFunc("zlb_peer_queue_len", "Frames waiting in the peer's outbound queue.",
			func() float64 { return float64(node.PeerHealthFor(peer).QueueLen) }, "peer", label)
		reg.GaugeFunc("zlb_peer_consecutive_failures", "Consecutive dial or write failures toward the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).ConsecutiveFailures) }, "peer", label)
		reg.CounterFunc("zlb_peer_sent_total", "Frames delivered to the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).SentMsgs) }, "peer", label)
		reg.CounterFunc("zlb_peer_sent_bytes_total", "Bytes delivered to the peer.",
			func() float64 { return float64(node.PeerHealthFor(peer).SentBytes) }, "peer", label)
		reg.CounterFunc("zlb_peer_drops_total", "Frames to the peer displaced by queue overflow or failed past the retry budget.",
			func() float64 { return float64(node.PeerHealthFor(peer).Drops) }, "peer", label)
		reg.CounterFunc("zlb_peer_reconnects_total", "Times the writer re-established the peer's connection.",
			func() float64 { return float64(node.PeerHealthFor(peer).Reconnects) }, "peer", label)
	}
}

// status is the /status JSON document: the same state the metrics expose,
// in one human- and script-friendly snapshot.
type status struct {
	ID              types.ReplicaID `json:"id"`
	N               int             `json:"n"`
	Height          int64           `json:"height"`
	Epoch           int64           `json:"epoch"`
	BlocksCommitted uint64          `json:"blocks_committed"`
	BlocksMerged    uint64          `json:"blocks_merged"`
	TxsApplied      uint64          `json:"txs_applied"`
	ProvenCulprits  uint64          `json:"proven_culprits"`
	Replica         replicaStatus   `json:"replica"`
	Memory          memoryStatus    `json:"memory"`
	Pipeline        pipelineStatus  `json:"pipeline"`
	Mempool         mempool.Stats   `json:"mempool"`
	// Transport is the node-wide transport counter snapshot; Peers is
	// per-peer send-path health (state, failures, drops, reconnects).
	Transport     transport.Stats        `json:"transport"`
	Peers         []transport.PeerHealth `json:"peers"`
	UptimeSeconds float64                `json:"uptime_seconds"`
}

// replicaStatus is the consensus-state part of /status: how many
// instances hold protocol state and how many gave it up.
type replicaStatus struct {
	LiveInstances      int64  `json:"live_instances"`
	CompactedInstances uint64 `json:"compacted_instances_total"`
	UnfinalInstances   int64  `json:"unfinal_instances"`
}

// memoryStatus is what committed history holds in memory on this node:
// the zlb_ledger_blocks … zlb_retained_payload_bytes series.
type memoryStatus struct {
	LedgerBlocks         int64 `json:"ledger_blocks"`
	CommittedTxIDs       int64 `json:"committed_txids"`
	UTXOEntries          int64 `json:"utxo_entries"`
	BatchCacheEntries    int64 `json:"batch_cache_entries"`
	RetainedPayloadBytes int64 `json:"retained_payload_bytes"`
}

// pipelineStatus is where proposal work went: the
// zlb_proposals_delivered_total … zlb_batch_txs_reused_total series.
type pipelineStatus struct {
	ProposalsDelivered uint64 `json:"proposals_delivered"`
	ProposalsCommitted uint64 `json:"proposals_committed"`
	BatchTxsDecoded    int    `json:"batch_txs_decoded"`
	BatchTxsReused     int    `json:"batch_txs_reused"`
}

func (rn *replicaNode) statusSnapshot() status {
	m := rn.metrics
	cache := rn.batches.Stats()
	return status{
		ID:              rn.cfg.Self,
		N:               rn.cfg.N,
		Height:          m.height.Value(),
		Epoch:           m.epoch.Value(),
		BlocksCommitted: m.committed.Value(),
		BlocksMerged:    m.merged.Value(),
		TxsApplied:      m.txApplied.Value(),
		ProvenCulprits:  m.culprits.Value(),
		Replica: replicaStatus{
			LiveInstances:      m.liveInstances.Value(),
			CompactedInstances: m.compacted.Value(),
			UnfinalInstances:   m.unfinalInstances.Value(),
		},
		Memory: memoryStatus{
			LedgerBlocks:         m.ledgerBlocks.Value(),
			CommittedTxIDs:       m.committedTxIDs.Value(),
			UTXOEntries:          m.utxoEntries.Value(),
			BatchCacheEntries:    m.batchCache.Value(),
			RetainedPayloadBytes: m.retainedPayload.Value(),
		},
		Pipeline: pipelineStatus{
			ProposalsDelivered: m.proposalsDelivered.Value(),
			ProposalsCommitted: m.proposalsCommitted.Value(),
			BatchTxsDecoded:    cache.TxsDecoded,
			BatchTxsReused:     cache.TxsReused,
		},
		Mempool:       rn.pool.Stats(),
		Transport:     rn.node.Stats(),
		Peers:         rn.node.PeerHealth(),
		UptimeSeconds: time.Since(rn.startedAt).Seconds(),
	}
}

// startMetricsServer binds addr and serves /metrics, /status and
// /debug/pprof/ until Close. The bound address is available through
// metricsAddr (tests bind ":0").
func (rn *replicaNode) startMetricsServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rn.metrics.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rn.statusSnapshot())
	})
	// The pprof handlers are registered explicitly on this mux (importing
	// net/http/pprof for its side effect would pollute the default mux).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	rn.metricsLn = ln
	rn.httpSrv = &http.Server{Handler: mux}
	go func() {
		if err := rn.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			rn.log.Errorf("metrics server: %v", err)
		}
	}()
	rn.log.Infof("metrics on http://%s/metrics", ln.Addr())
	return nil
}

// metricsAddr reports the bound metrics address ("" when disabled).
func (rn *replicaNode) metricsAddr() string {
	if rn.metricsLn == nil {
		return ""
	}
	return rn.metricsLn.Addr().String()
}
