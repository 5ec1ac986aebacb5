package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
)

// TestNodeMetricsEndpoint is the observability smoke test: a real-TCP
// cluster commits payments while replica 1 serves -metrics-addr, and the
// test scrapes /metrics (Prometheus text), /status (JSON) and
// /debug/pprof/ like a monitoring stack would.
func TestNodeMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP integration test")
	}
	const n = 4
	const seed = int64(11)
	addrs := freeAddrs(t, n)

	nodes := make([]*replicaNode, n)
	for i := 0; i < n; i++ {
		cfg := nodeConfig{
			Self:   types.ReplicaID(i + 1),
			N:      n,
			Listen: addrs[i],
			Peers:  addrs,
			Seed:   seed,
			Logf:   t.Logf,
		}
		if i == 0 {
			cfg.MetricsAddr = "127.0.0.1:0"
		}
		rn, err := newReplicaNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = rn
		go rn.Serve()
	}
	defer func() {
		for _, rn := range nodes {
			rn.Close()
		}
	}()

	base := "http://" + nodes[0].metricsAddr()
	if base == "http://" {
		t.Fatal("replica 1 did not bind a metrics listener")
	}

	// The first payments go to replica 1 alone, so it proposes each of
	// these blocks and times it from proposal to commit; the others join
	// its instance with empty batches. A payment broadcast to all can reach
	// a peer first, and replica 1 then joins that peer's instance with an
	// empty batch and has nothing to time.
	client := newTestClient(t, seed, addrs)
	const blocks = 2
	for b := 0; b < blocks; b++ {
		client.submit(types.Amount(500+b), 0)
		want := b + 1
		waitHeight(t, 30*time.Second, want, nodes...)
	}

	body := scrape(t, base+"/metrics")
	for _, series := range []string{
		"zlb_height",
		"zlb_epoch",
		"zlb_blocks_committed_total",
		"zlb_blocks_merged_total",
		"zlb_proven_culprits_total",
		"zlb_mempool_pending",
		"zlb_mempool_bytes",
		"zlb_mempool_admitted_total",
		"zlb_commit_latency_seconds_count",
	} {
		if !strings.Contains(body, "\n"+series+" ") {
			t.Errorf("/metrics missing series %s", series)
		}
	}
	// Every reject reason is pre-registered, zeros included.
	for _, reason := range mempool.RejectReasons {
		if !strings.Contains(body, fmt.Sprintf("zlb_mempool_rejects_total{reason=%q}", reason)) {
			t.Errorf("/metrics missing reject series for reason %q", reason)
		}
	}
	if v := seriesValue(t, body, "zlb_height"); v < blocks {
		t.Errorf("zlb_height = %v, want >= %d", v, blocks)
	}
	if v := seriesValue(t, body, "zlb_blocks_committed_total"); v < blocks {
		t.Errorf("zlb_blocks_committed_total = %v, want >= %d", v, blocks)
	}
	if v := seriesValue(t, body, "zlb_mempool_admitted_total"); v < blocks {
		t.Errorf("zlb_mempool_admitted_total = %v, want >= %d", v, blocks)
	}
	if v := seriesValue(t, body, "zlb_commit_latency_seconds_count"); v < blocks {
		t.Errorf("zlb_commit_latency_seconds_count = %v, want >= %d", v, blocks)
	}

	// Transport counters and per-peer health series (registered for every
	// configured peer, zeros included).
	for _, series := range []string{
		"zlb_transport_frames_sent_total",
		"zlb_transport_events_received_total",
		"zlb_transport_events_dropped",
		"zlb_transport_decode_errors",
		"zlb_transport_send_drops_total",
		"zlb_transport_submit_backpressure_total",
	} {
		if !strings.Contains(body, "\n"+series+" ") {
			t.Errorf("/metrics missing series %s", series)
		}
	}
	for peer := 2; peer <= n; peer++ {
		for _, series := range []string{
			"zlb_peer_state",
			"zlb_peer_queue_len",
			"zlb_peer_consecutive_failures",
			"zlb_peer_sent_total",
			"zlb_peer_sent_bytes_total",
			"zlb_peer_writes_total",
			"zlb_peer_drops_total",
			"zlb_peer_reconnects_total",
		} {
			if !strings.Contains(body, fmt.Sprintf("%s{peer=%q}", series, strconv.Itoa(peer))) {
				t.Errorf("/metrics missing per-peer series %s for peer %d", series, peer)
			}
		}
	}
	if v := seriesValue(t, body, "zlb_transport_frames_sent_total"); v <= 0 {
		t.Errorf("zlb_transport_frames_sent_total = %v after committed blocks, want > 0", v)
	}

	var st status
	if err := json.Unmarshal([]byte(scrape(t, base+"/status")), &st); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	if st.ID != 1 || st.N != n {
		t.Errorf("/status identity = (%v, %d), want (1, %d)", st.ID, st.N, n)
	}
	if st.Height < blocks {
		t.Errorf("/status height = %d, want >= %d", st.Height, blocks)
	}
	if st.BlocksCommitted < blocks {
		t.Errorf("/status blocks_committed = %d, want >= %d", st.BlocksCommitted, blocks)
	}
	if st.Mempool.Admitted < blocks {
		t.Errorf("/status mempool.admitted = %d, want >= %d", st.Mempool.Admitted, blocks)
	}
	if len(st.Peers) != n-1 {
		t.Errorf("/status lists %d peers, want %d", len(st.Peers), n-1)
	}
	for _, p := range st.Peers {
		if p.State != transport.StateConnected {
			t.Errorf("/status peer %v state %v after committed blocks, want connected", p.ID, p.State)
		}
		if p.SentMsgs == 0 {
			t.Errorf("/status peer %v shows no delivered frames after committed blocks", p.ID)
		}
		if p.Writes == 0 || p.Writes > p.SentMsgs {
			t.Errorf("/status peer %v counts %d writes for %d frames, want 1..frames", p.ID, p.Writes, p.SentMsgs)
		}
	}
	if st.Transport.Sent <= 0 {
		t.Errorf("/status transport.Sent = %d after committed blocks, want > 0", st.Transport.Sent)
	}

	if idx := scrape(t, base+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index does not list the goroutine profile")
	}

	// What the replica holds in memory: a hundred blocks on, the live
	// instances are the retention window plus what is in flight, and
	// everything older was retired to its compact record.
	// Every block leaves votes that arrived after their threshold, held
	// without a check: the count grows with each one.
	const more = 100
	var deferred uint64
	for b := blocks; b < blocks+more; b++ {
		client.submit(types.Amount(500+b), 0, 1, 2, 3)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if nodes[0].state().Height > b {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for block %d", b+1)
			}
		}
		var now status
		if err := json.Unmarshal([]byte(scrape(t, base+"/status")), &now); err != nil {
			t.Fatalf("decoding /status: %v", err)
		}
		if now.Pipeline.StmtSigDeferred <= deferred {
			t.Errorf("/status pipeline.stmt_sig_deferred = %d at height %d, %d a block before", now.Pipeline.StmtSigDeferred, now.Height, deferred)
		}
		deferred = now.Pipeline.StmtSigDeferred
	}
	body = scrape(t, base+"/metrics")
	for _, series := range []string{
		"zlb_live_instances",
		"zlb_compacted_instances_total",
		"zlb_unfinal_instances",
		"zlb_log_statements",
		"zlb_interned_payloads",
		"zlb_late_frames_dropped_total",
	} {
		if !strings.Contains(body, "\n"+series+" ") {
			t.Errorf("/metrics missing series %s", series)
		}
	}
	const window = asmr.RetainDepth + 2
	if v := seriesValue(t, body, "zlb_live_instances"); v < 1 || v > window {
		t.Errorf("zlb_live_instances = %v after %d blocks, want 1..%d", v, blocks+more, window)
	}
	if v := seriesValue(t, body, "zlb_compacted_instances_total"); v < blocks+more-window {
		t.Errorf("zlb_compacted_instances_total = %v after %d blocks, want >= %d", v, blocks+more, blocks+more-window)
	}
	if v := seriesValue(t, body, "zlb_unfinal_instances"); v != 0 {
		t.Errorf("zlb_unfinal_instances = %v on a healthy cluster", v)
	}
	// At n=4 an instance leaves at most 4·(1+4+4+2·5)+4 = 80 statements.
	if v := seriesValue(t, body, "zlb_log_statements"); v < 1 || v > window*80 {
		t.Errorf("zlb_log_statements = %v after %d blocks, want 1..%d", v, blocks+more, window*80)
	}
	if v := seriesValue(t, body, "zlb_interned_payloads"); v > window*n {
		t.Errorf("zlb_interned_payloads = %v after %d blocks, want <= %d", v, blocks+more, window*n)
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/status")), &st); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	if st.Replica.LiveInstances < 1 || st.Replica.LiveInstances > window ||
		st.Replica.CompactedInstances < blocks+more-window || st.Replica.UnfinalInstances != 0 {
		t.Errorf("/status replica = %+v after %d blocks", st.Replica, blocks+more)
	}

	// What committed history holds: a record per block, an ID per payment,
	// the sink's outputs and the faucet's change, the payloads in the
	// decisions of the live instances (a payment is ≈240 B), no history of
	// retired decisions (the node has no store, and drops them) and no
	// read of one, and decoded batches only for what is in flight.
	for series, want := range map[string][2]float64{
		"zlb_ledger_blocks":          {blocks + more, blocks + more},
		"zlb_committed_txids":        {blocks + more, blocks + more},
		"zlb_utxo_entries":           {blocks + more + 1, blocks + more + 1},
		"zlb_batch_cache_entries":    {1, 2 * n},
		"zlb_retained_payload_bytes": {200, 400 * window},
		"zlb_history_bytes":          {0, 0},
		"zlb_history_errors_total":   {0, 0},
		"zlb_history_pruned_total":   {0, 0},
	} {
		if v := seriesValue(t, body, series); v < want[0] || v > want[1] {
			t.Errorf("%s = %v after %d blocks, want %v..%v", series, v, blocks+more, want[0], want[1])
		}
	}
	// Where proposal work went. Every payment is broadcast, so a block is
	// decided from up to n one-payment proposals, usually all of them
	// selected and never none, and nothing is selected that was not
	// delivered. Those proposals are the bytes replica 1 encoded itself and
	// hit the batch cache whole; whatever payload it did decode held one
	// transaction. TestReproposedTransactionsCommitAsFirstDecoded pins the
	// counters' values.
	delivered := seriesValue(t, body, "zlb_proposals_delivered_total")
	selected := seriesValue(t, body, "zlb_proposals_committed_total")
	if selected < blocks+more || delivered < selected || delivered > n*(blocks+more+1) {
		t.Errorf("zlb_proposals_delivered_total = %v, zlb_proposals_committed_total = %v after %d blocks", delivered, selected, blocks+more)
	}
	decoded := seriesValue(t, body, "zlb_batch_txs_decoded_total")
	reused := seriesValue(t, body, "zlb_batch_txs_reused_total")
	if decoded+reused > delivered {
		t.Errorf("zlb_batch_txs_decoded_total = %v, zlb_batch_txs_reused_total = %v with %v proposals delivered", decoded, reused, delivered)
	}
	// The agreements behind those blocks: n binary consensuses a block, one
	// decided 1 per selected proposal, each taking at least a round.
	rounds := seriesValue(t, body, "zlb_bincon_rounds_total")
	zeros := seriesValue(t, body, `zlb_bincon_slots_decided_total{value="0"}`)
	ones := seriesValue(t, body, `zlb_bincon_slots_decided_total{value="1"}`)
	if zeros+ones != n*(blocks+more) || ones != selected || rounds < zeros+ones {
		t.Errorf("zlb_bincon_rounds_total = %v, zlb_bincon_slots_decided_total = %v zeros + %v ones after %d blocks of %v proposals",
			rounds, zeros, ones, blocks+more, selected)
	}
	if p := st.Pipeline; float64(p.BinconRounds) < rounds || float64(p.BinconSlotsZero) < zeros || float64(p.BinconSlotsOne) < ones ||
		p.BinconRounds < p.BinconSlotsZero+p.BinconSlotsOne {
		t.Errorf("/status pipeline = %+v, /metrics read rounds %v zeros %v ones %v", p, rounds, zeros, ones)
	}
	// Where signature work went: statements checked, statements the log
	// already held (this node's own, at the least), statements held
	// without a check, and certificates pulled — one per slot and block
	// would already be generous.
	checks := seriesValue(t, body, "zlb_stmt_sig_checks_total")
	known := seriesValue(t, body, "zlb_stmt_sig_known_total")
	held := seriesValue(t, body, "zlb_stmt_sig_deferred_total")
	pulls := seriesValue(t, body, "zlb_decide_pulls_total")
	if checks <= 0 || known <= 0 || held <= 0 || pulls > n*(blocks+more+1) {
		t.Errorf("zlb_stmt_sig_checks_total = %v, zlb_stmt_sig_known_total = %v, zlb_stmt_sig_deferred_total = %v, zlb_decide_pulls_total = %v after %d blocks",
			checks, known, held, pulls, blocks+more)
	}
	if p := st.Pipeline; float64(p.StmtSigChecks) < checks || float64(p.StmtSigKnown) < known || float64(p.StmtSigDeferred) < held || float64(p.DecidePulls) < pulls {
		t.Errorf("/status pipeline = %+v, /metrics read checks %v known %v held %v pulls %v", p, checks, known, held, pulls)
	}
	if p := st.Pipeline; float64(p.ProposalsDelivered) < delivered || float64(p.ProposalsCommitted) < selected ||
		p.ProposalsDelivered < p.ProposalsCommitted || float64(p.BatchTxsDecoded+p.BatchTxsReused) < decoded+reused {
		t.Errorf("/status pipeline = %+v, /metrics read delivered %v selected %v decoded %v reused %v", p, delivered, selected, decoded, reused)
	}

	if m := st.Memory; m.LedgerBlocks != blocks+more || m.CommittedTxIDs != blocks+more || m.UTXOEntries != blocks+more+1 ||
		m.BatchCacheEntries < 1 || m.BatchCacheEntries > 2*n || m.RetainedPayloadBytes < 200 || m.RetainedPayloadBytes > 400*window ||
		m.HistoryBytes != 0 || m.HistoryErrors != 0 || m.HistoryPruned != 0 {
		t.Errorf("/status memory = %+v after %d blocks", m, blocks+more)
	}

	// Every payment is the faucet's, so one wallet key: its table is built
	// at its second accepted check, and most later checks find it.
	tables := seriesValue(t, body, "zlb_wallet_key_tables")
	tableBytes := seriesValue(t, body, "zlb_wallet_key_table_bytes")
	hits := seriesValue(t, body, "zlb_wallet_key_hits_total")
	misses := seriesValue(t, body, "zlb_wallet_key_misses_total")
	builds := seriesValue(t, body, "zlb_wallet_key_builds_total")
	evictions := seriesValue(t, body, "zlb_wallet_key_evictions_total")
	if tables != 1 || tableBytes <= 0 || builds != 1 || evictions != 0 || misses < 2 || hits < (blocks+more)/2 {
		t.Errorf("wallet-key cache: %v tables of %v bytes, %v hits, %v misses, %v builds, %v evictions after %d one-payment blocks", tables, tableBytes, hits, misses, builds, evictions, blocks+more)
	}
	if c := st.WalletKeys; c.Tables != int(tables) || c.Bytes != int(tableBytes) || c.Builds != uint64(builds) || float64(c.Hits) < hits || float64(c.Misses) < misses {
		t.Errorf("/status wallet_key_cache = %+v, /metrics read %v tables, %v bytes, %v hits, %v misses, %v builds", c, tables, tableBytes, hits, misses, builds)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body)
}

// seriesValue extracts an unlabeled sample's value from a Prometheus
// text body.
func seriesValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parsing %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("series %s not found", name)
	return 0
}
