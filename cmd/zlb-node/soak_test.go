package main

import (
	"encoding/gob"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
)

// soakHeapPerBlock is how much heap one committed block may leave behind
// on one node over the soak. A retired instance keeps its decision
// (≈7 KB at n=4: four proposals with their payloads, eight certificates);
// the ledger keeps the block's index and digest (≈100 B) and, for each of
// its three or four payments at 100 tx/s, the ID and one unspent output
// (≈360 B) — no block body and no decoded transaction. The soak measures
// ≈10 KB. Protocol state that stopped retiring shows as 45 KB and more.
const soakHeapPerBlock = 14 << 10

// heapInUse is the heap in use once a full collection has run.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestRetentionSoak is the nightly bounded-memory soak: ZLB_SOAK=10m runs
// a real-TCP n=4 cluster at 100 tx/s for ten minutes, scrapes replica 1's
// /metrics every ten seconds and fails when the protocol state stops
// being bounded by the retention window — live instances, log statements
// or interned payloads above the window's worth at any scrape — or when
// the heap grows, from a fifth of the way in (minute 2 of 10) to the end,
// by more than soakHeapPerBlock per block and node. The heap is not
// compared as a ratio: what a node keeps per block by design (above)
// grows with the chain, five times over between the two readings.
func TestRetentionSoak(t *testing.T) {
	total, err := time.ParseDuration(os.Getenv("ZLB_SOAK"))
	if err != nil || total <= 0 {
		t.Skip("set ZLB_SOAK to a duration, e.g. ZLB_SOAK=10m (nightly)")
	}
	const n = 4
	const seed = int64(17)
	nodes, addrs := startCluster(t, n, seed, func(i int, cfg *nodeConfig) {
		cfg.CheckpointEvery = 16
		cfg.LogLevel = obs.LevelWarn
		if i == 0 {
			cfg.MetricsAddr = "127.0.0.1:0"
		}
	})
	base := "http://" + nodes[0].metricsAddr()

	// One connection per replica for the whole run (a dial per submit, as
	// testClient.send does, runs out of ports at this rate); the acks are
	// read and dropped.
	encs := make([]*gob.Encoder, n)
	for i, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		go io.Copy(io.Discard, conn)
		encs[i] = gob.NewEncoder(conn)
	}
	client := newTestClient(t, seed, addrs)

	const window = asmr.RetainDepth + 2
	var early uint64
	var earlyHeight int
	start := time.Now()
	nextScrape := start.Add(10 * time.Second)
	tick := time.NewTicker(10 * time.Millisecond) // 100 tx/s
	defer tick.Stop()
	for sent := 0; time.Since(start) < total; sent++ {
		<-tick.C
		tx := client.pay(types.Amount(1 + sent%1000))
		for i, enc := range encs {
			if err := enc.Encode(clientEnvelope{From: 0, Msg: &transport.SubmitTx{Tx: tx}}); err != nil {
				t.Fatalf("submit to replica %d: %v", i+1, err)
			}
		}
		if time.Now().Before(nextScrape) {
			continue
		}
		nextScrape = nextScrape.Add(10 * time.Second)
		body := scrape(t, base+"/metrics")
		live := seriesValue(t, body, "zlb_live_instances")
		stmts := seriesValue(t, body, "zlb_log_statements")
		interned := seriesValue(t, body, "zlb_interned_payloads")
		height := seriesValue(t, body, "zlb_height")
		t.Logf("%4.0fs height %.0f live %.0f unfinal %.0f statements %.0f interned %.0f retired %.0f", time.Since(start).Seconds(),
			height, live, seriesValue(t, body, "zlb_unfinal_instances"), stmts, interned, seriesValue(t, body, "zlb_compacted_instances_total"))
		if live > window || stmts > window*80 || interned > window*n {
			t.Fatalf("protocol state above the retention window at height %.0f: %.0f live instances (max %d), %.0f statements (max %d), %.0f interned payloads (max %d)",
				height, live, window, stmts, window*80, interned, window*n)
		}
		if early == 0 && time.Since(start) >= total/5 {
			early, earlyHeight = heapInUse(), nodes[0].state().Height
			t.Logf("heap in use at %.0fs, height %d: %.1f MB", time.Since(start).Seconds(), earlyHeight, float64(early)/(1<<20))
		}
	}
	if early == 0 {
		t.Fatalf("ZLB_SOAK=%v is too short for the early heap reading", total)
	}
	late, blocks := heapInUse(), nodes[0].state().Height-earlyHeight
	t.Logf("heap in use at the end, %d blocks on: %.1f MB", blocks, float64(late)/(1<<20))
	if blocks < 100 {
		t.Fatalf("cluster committed %d blocks between the heap readings", blocks)
	}
	if late > early && (late-early)/uint64(blocks*n) > soakHeapPerBlock {
		t.Errorf("heap in use grew from %.1f MB to %.1f MB over %d blocks: %d B per block and node, budget %d",
			float64(early)/(1<<20), float64(late)/(1<<20), blocks, (late-early)/uint64(blocks*n), soakHeapPerBlock)
	}
}
