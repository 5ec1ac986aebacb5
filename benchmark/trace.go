package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/zeroloss/zlb/benchmark/cluster"
	"github.com/zeroloss/zlb/benchmark/fold"
	"github.com/zeroloss/zlb/benchmark/loadgen"
	"github.com/zeroloss/zlb/benchmark/probe"
)

// scrapeEvery is the period at which a traced run reads every node's
// /status and /metrics.
const scrapeEvery = 100 * time.Millisecond

// cpuLayers are the consumer layers reported by name; the rest of the
// internal packages are reported together as "other".
var cpuLayers = []string{"rbc", "bincon", "sbc", "asmr", "accountability", "transport",
	"utxo", "bm", "wire", "mempool", "store", fold.LayerNode, fold.LayerRuntime}

var cpuKinds = []string{"sigverify", "sign", "hash", "gob", "syscall", "gc", "alloc", fold.KindOther}

func layerMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// perLayer are the metrics of a traced run. Most are costs, so lower is
// better; for a share or a count that only describes the run (blocks per
// second, transactions per block) the direction is nominal.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(cpuLayers, "other") {
		defs = append(defs, layerMetric("cpu."+l+"_share", "%", "lower"))
	}
	for _, k := range cpuKinds {
		defs = append(defs, layerMetric("cpu.kind."+k+"_share", "%", "lower"))
	}
	return append(defs,
		layerMetric("node.blocks_per_s", "1/s", "higher"),
		layerMetric("node.txs_per_block", "tx", "lower"),
		layerMetric("node.consensus_ms_mean", "ms", "lower"),
		layerMetric("node.pool_wait_ms", "ms", "lower"),
		layerMetric("node.cpu_busy_share", "%", "lower"),
		layerMetric("node.height_spread_max", "blocks", "lower"),
		layerMetric("transport.frames_per_block", "count", "lower"),
		layerMetric("transport.bytes_per_frame", "B", "lower"),
		layerMetric("transport.peer_queue_max", "count", "lower"),
		layerMetric("transport.send_drops", "count", "lower"),
		layerMetric("transport.events_dropped", "count", "lower"),
		layerMetric("transport.decode_errors", "count", "lower"),
		layerMetric("mempool.pending_p50", "tx", "lower"),
		layerMetric("mempool.pending_max", "tx", "lower"),
		layerMetric("mempool.rejects", "count", "lower"),
		layerMetric("store.bytes_per_tx", "B/tx", "lower"),
		layerMetric("client.sched_lag_p99_ms", "ms", "lower"),
		layerMetric("client.submit_refused", "count", "lower"),
		layerMetric("client.commit_p99_ms", "ms", "lower"),
		layerMetric("client.commit_max_ms", "ms", "lower"),
		layerMetric("client.signed_in_run", "count", "lower"),
		layerMetric("crypto.sign_us", "us", "lower"),
		layerMetric("crypto.verify_us", "us", "lower"),
		layerMetric("accountability.cert_verify_us", "us", "lower"),
		layerMetric("wire.encode_batch_us", "us", "lower"),
		layerMetric("wire.decode_batch_us", "us", "lower"),
		layerMetric("transport.frame_encode_us", "us", "lower"),
		layerMetric("transport.frame_decode_us", "us", "lower"),
		layerMetric("transport.vote_frame_us", "us", "lower"),
		layerMetric("mempool.add_us", "us", "lower"),
		layerMetric("mempool.take_us", "us", "lower"),
		layerMetric("mempool.prune_us", "us", "lower"),
		layerMetric("pipeline.speculate_us_per_tx", "us/tx", "lower"),
		layerMetric("bm.commit_us_per_tx", "us/tx", "lower"),
		layerMetric("store.append_flush_ms", "ms", "lower"),
		layerMetric("store.checkpoint_ms", "ms", "lower"),
		layerMetric("rbc.busy_ms_per_block", "ms", "lower"),
		layerMetric("bincon.busy_ms_per_block", "ms", "lower"),
		layerMetric("sbc.busy_ms_per_block", "ms", "lower"),
		layerMetric("asmr.busy_ms_per_block", "ms", "lower"),
		layerMetric("rbc.msgs_per_block", "count", "lower"),
		layerMetric("bincon.msgs_per_block", "count", "lower"),
		layerMetric("bincon.rounds_per_slot", "count", "lower"),
		boxMetric,
	)
}()

// scrapes is what the 100 ms scraper saw during the window.
type scrapes struct {
	heightSpread int64
	queueMax     int
	pending      []int
	// latSum and latCount are the first and last readings of the nodes'
	// zlb_commit_latency_seconds histogram, summed over nodes.
	latSum, latCount [2]float64
	n                int
}

func (s *scrapes) scrape(ctx context.Context, c *cluster.Cluster) error {
	sts, err := c.StatusAll(ctx)
	if err != nil {
		return err
	}
	lo, hi := sts[0].Height, sts[0].Height
	for _, st := range sts {
		lo, hi = min(lo, st.Height), max(hi, st.Height)
		s.pending = append(s.pending, st.Mempool.Pending)
		for _, p := range st.Peers {
			s.queueMax = max(s.queueMax, p.QueueLen)
		}
	}
	s.heightSpread = max(s.heightSpread, hi-lo)
	var sum, count float64
	for i := range c.Nodes {
		m, err := c.Metrics(ctx, i+1)
		if err != nil {
			return err
		}
		sum += m["zlb_commit_latency_seconds_sum"]
		count += m["zlb_commit_latency_seconds_count"]
	}
	if s.n == 0 {
		s.latSum[0], s.latCount[0] = sum, count
	}
	s.latSum[1], s.latCount[1] = sum, count
	s.n++
	return nil
}

// dirBytes totals the regular files under every node's data directory.
func dirBytes(c *cluster.Cluster) (int64, error) {
	var total int64
	for _, nd := range c.Nodes {
		if nd.DataDir == "" {
			continue
		}
		err := filepath.WalkDir(nd.DataDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				if os.IsNotExist(err) {
					return nil // a segment pruned by a checkpoint mid-walk
				}
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// runTraced measures the per-layer metrics of one workload: the same
// cluster run as runUntraced with every node scraped every 100 ms and
// CPU-profiled over the window, then the in-process layer probes on the
// block shape that run measured.
func (b *bench) runTraced(ctx context.Context, wl workload) (*outcome, error) {
	// The profile ends a second before the window does, so fetching it
	// never runs into the drain.
	profiled := b.window - time.Second
	e, err := b.setUp(ctx, wl, warmUp+b.window)
	if err != nil {
		return nil, err
	}
	defer e.drop()

	var (
		w        windowed
		dirs     [2]int64
		sc       scrapes
		profiles = make([]string, clusterSize)
	)
	w.res, err = b.traffic(ctx, e, wl, b.window, func(start time.Time) error {
		w.began = start
		err := sleepUntil(ctx, start.Add(warmUp))
		if err == nil {
			w.ends[0], err = e.sample(ctx)
		}
		if err == nil {
			dirs[0], err = dirBytes(e.c)
		}
		if err != nil {
			return err
		}
		// One profile per node, fetched concurrently, while this
		// goroutine scrapes.
		var wg sync.WaitGroup
		profErr := make([]error, clusterSize)
		for i := range profiles {
			profiles[i] = filepath.Join(e.dir, fmt.Sprintf("node%d.pprof", i+1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				profErr[i] = e.c.Profile(ctx, i+1, profiled, profiles[i])
			}()
		}
		end := start.Add(warmUp + b.window)
		for time.Now().Before(end) && err == nil {
			next := time.Now().Add(scrapeEvery)
			if next.After(end) {
				next = end
			}
			if err = sc.scrape(ctx, e.c); err == nil {
				err = sleepUntil(ctx, next)
			}
		}
		if err == nil {
			w.ends[1], err = e.sample(ctx)
		}
		if err == nil {
			w.rss, err = e.rssMB()
		}
		if err == nil {
			dirs[1], err = dirBytes(e.c)
		}
		wg.Wait()
		for _, perr := range profErr {
			if err == nil {
				err = perr
			}
		}
		return err
	})
	if err := e.finish(ctx, wl, w.res, err); err != nil {
		return nil, err
	}
	// The end-to-end metrics of this traced run, for the report's
	// side-by-side table; the -trace 1 result line leaves them out.
	m, lat, notes, err := b.endToEndMetrics(wl, w)
	if err != nil {
		return nil, err
	}
	res, marks := w.res, w.ends

	// The cluster is gone; what follows competes with nothing.
	prof := fold.New()
	for _, path := range profiles {
		p, err := fold.Traces(ctx, b.nodeBinary, path)
		if err != nil {
			return nil, err
		}
		prof.Add(p)
	}
	if prof.Total == 0 {
		return nil, fmt.Errorf("the nodes' CPU profiles hold no sample")
	}

	other := 1.0
	for _, l := range cpuLayers {
		m["cpu."+l+"_share"] = 100 * prof.LayerShare(l)
		other -= prof.LayerShare(l)
	}
	m["cpu.other_share"] = 100 * math.Max(other, 0)
	for _, k := range cpuKinds {
		m["cpu.kind."+k+"_share"] = 100 * prof.KindShare(k)
	}

	t1, t2 := warmUp, warmUp+b.window
	first, last := marks[0].status[0], marks[1].status[0]
	blocks := float64(last.BlocksCommitted - first.BlocksCommitted)
	txs := float64(last.TxsApplied - first.TxsApplied)
	if blocks == 0 || txs == 0 {
		return nil, fmt.Errorf("no block committed inside the window")
	}
	var meanLat time.Duration
	for _, d := range lat {
		meanLat += d
	}
	meanLat /= time.Duration(len(lat))
	consensus := 0.0
	if n := sc.latCount[1] - sc.latCount[0]; n > 0 {
		consensus = 1000 * (sc.latSum[1] - sc.latSum[0]) / n
	}
	m["node.blocks_per_s"] = blocks / b.window.Seconds()
	m["node.txs_per_block"] = txs / blocks
	m["node.consensus_ms_mean"] = consensus
	m["node.pool_wait_ms"] = loadgen.Millis(meanLat) - consensus
	m["node.cpu_busy_share"] = 100 * (marks[1].cpu - marks[0].cpu).Seconds() / (b.window.Seconds() * float64(runtime.NumCPU()))
	m["node.height_spread_max"] = float64(sc.heightSpread)
	m["transport.frames_per_block"] = float64(marks[1].frames-marks[0].frames) / blocks
	m["transport.bytes_per_frame"] = float64(marks[1].bytes-marks[0].bytes) / float64(max(marks[1].frames-marks[0].frames, 1))
	m["transport.peer_queue_max"] = float64(sc.queueMax)
	for _, name := range []string{"transport.send_drops", "transport.events_dropped", "transport.decode_errors", "mempool.rejects"} {
		m[name] = 0
	}
	for _, st := range marks[1].status {
		m["transport.send_drops"] += float64(st.Transport.SendDrops)
		m["transport.events_dropped"] += float64(st.Transport.EventsDropped)
		m["transport.decode_errors"] += float64(st.Transport.DecodeErrors)
		for _, n := range st.Mempool.Rejects {
			m["mempool.rejects"] += float64(n)
		}
	}
	sort.Ints(sc.pending)
	m["mempool.pending_p50"] = float64(sc.pending[len(sc.pending)/2])
	m["mempool.pending_max"] = float64(sc.pending[len(sc.pending)-1])
	m["store.bytes_per_tx"] = float64(dirs[1]-dirs[0]) / clusterSize / txs
	var lag []time.Duration
	for i, l := range res.Lag {
		if res.SentAt[i] >= t1 && res.SentAt[i] < t2 {
			lag = append(lag, l)
		}
	}
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	m["client.sched_lag_p99_ms"] = loadgen.Millis(loadgen.Percentile(lag, 0.99))
	m["client.submit_refused"] = float64(res.Refused)
	m["client.commit_p99_ms"] = loadgen.Millis(loadgen.Percentile(lat, 0.99))
	m["client.commit_max_ms"] = loadgen.Millis(lat[len(lat)-1])
	m["client.signed_in_run"] = float64(res.SignedLate)

	// In-process probes on this workload's own block shape.
	rec := probe.NewRecorder()
	shape := probe.Shape{
		Seed:     b.seed,
		N:        clusterSize,
		BlockTxs: max(1, int(math.Round(txs/blocks))),
		Disjoint: wl.Shard,
		StoreDir: filepath.Join(e.dir, "probe-store"),
	}
	for _, run := range []func(*probe.Recorder, probe.Shape) (map[string]float64, error){probe.Layers, probe.Pump} {
		got, err := run(rec, shape)
		if err != nil {
			return nil, err
		}
		for name, v := range got {
			m[name] = v
		}
	}
	spans := filepath.Join(buildDir, "spans-"+wl.Name+".jsonl")
	if err := writeSpans(rec, spans); err != nil {
		return nil, err
	}

	return &outcome{
		Metrics:   m,
		Attempted: res.Submitted,
		Failed:    res.Refused,
		Notes: append(notes,
			fmt.Sprintf("profiles: %v of samples over %v per node; %d scrapes", prof.Total, profiled, sc.n),
			fmt.Sprintf("probe shape: %d txs/block, %d spans in %s", shape.BlockTxs, len(rec.Spans()), spans),
			fmt.Sprintf("probe self time by span: %v", probe.SelfByName(rec.Spans())),
		),
	}, nil
}

func writeSpans(rec *probe.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
