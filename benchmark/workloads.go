package main

import (
	"runtime"
	"time"
)

// Fixed run conditions. They are recorded in the output and are not
// arguments: only -seed and -workload change a run's inputs.
const (
	clusterSize = 4
	// window is the measured part of a run and run_seconds in
	// BENCHMARK.json (TestBenchmarkJSON). It is also the default of
	// -seconds, an argument only because the driver that reads
	// BENCHMARK.json passes run_seconds that way on every run; every
	// recorded number is at this length.
	window = 20 * time.Second
	// warmUp is traffic of the same kind sent before the measured window
	// and excluded from every metric.
	warmUp = 3 * time.Second
	// latencySlice is the span of send times one latency percentile is
	// taken over (endToEndMetrics): 100 transactions at 100 tx/s, about
	// four blocks on a closed loop. Over 40 closed-loop runs of the same
	// code, 1 s slices spread the 95th percentile of the closed loops by 3-6 % where
	// 2 s slices spread it by 5-11 % and the whole window by 3-14 %; on the
	// open loops the three were alike.
	latencySlice = time.Second
	// drainLimit bounds the wait, after the window, for every submitted
	// transaction to commit.
	drainLimit = 10 * time.Second
	// setUps is how many times an untraced run sets the cluster up;
	// setup_s is the median. The driver's contract asks for several
	// set-ups per run, so that one run's setup_s is already a median; the
	// last cluster set up is the one measured.
	setUps = 3
	// presignRate sizes the pre-signed plan of a closed-loop run: enough
	// for this many transactions per second over the whole run. A cluster
	// faster than this exhausts the plan, which the run reports as a
	// failure instead of a throughput.
	presignRate = 6000
)

// nodeProcs is the GOMAXPROCS every node process gets. Unpinned, four
// nodes on a small box oversubscribe the scheduler and both latency and
// capacity wander from run to run.
func nodeProcs() int {
	return max(1, runtime.NumCPU()/clusterSize)
}

// workload is one named traffic shape against one cluster shape.
type workload struct {
	Name string
	Why  string
	// Rate > 0 is an open loop of Poisson arrivals at that many
	// transactions per second; InFlight > 0 is a closed loop.
	Rate     float64
	InFlight int
	Shard    bool
	Durable  bool
}

// steadyRate is the open-loop workloads' arrival rate. The issue sized
// them at 500 tx/s as "13 % of capacity"; measured, client-transaction
// signatures are a third to a half of every instance at that rate on two
// cores, so an instance takes c0/(1 - c1*rate) with c1*rate near 0.5 and
// latency rises far faster than the box slows down (64 ms to 115 ms for a
// third). At 100 tx/s an instance carries 3 to 4 transactions, per-instance
// protocol work is nine tenths of it, as the workload intends, and latency
// follows the box's speed in proportion, which is what lets it be brought
// to the reference box.
const steadyRate = 100

// workloads are permanent: later changes quote "metric X on workload Y"
// by these names.
var workloads = []workload{
	{
		Name: "steady-bcast-n4",
		Why:  "open loop at 100 tx/s, far below capacity: blocks of a few txs, so per-instance protocol work (frames, statements, rbc/bincon rounds) sets latency",
		Rate: steadyRate,
	},
	{
		Name:     "saturate-bcast-n4",
		Why:      "closed loop, 2000 in flight, broadcast: four identical ~1000-tx proposals per superblock, so per-byte and per-tx work sets capacity",
		InFlight: 2000,
	},
	{
		Name:     "saturate-shard-n4",
		Why:      "closed loop, each tx to one replica: four disjoint proposals, every tx carried and verified once; bypasses whatever dedups identical proposals",
		InFlight: 2000,
		Shard:    true,
	},
	{
		Name:    "steady-durable-n4",
		Why:     "steady-bcast-n4 with a data dir per node: the only workload where the store appends and fsyncs beside consensus",
		Rate:    steadyRate,
		Durable: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units, directions and bounds (TestBenchmarkJSON compares them).
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher"; Bound is the share of the parent's
	// median by which an end-to-end metric may worsen before a change
	// counts as a regression. Per-layer metrics have no bound.
	Better string
	Bound  float64
}

// boxMetric is the box-speed probe's reading over the window. A traced
// run reports it among the per-layer metrics; it measures the box, not a
// layer, and says by how much the time-based end-to-end metrics of that
// run were scaled.
var boxMetric = metricDef{Name: "box.verify_us", Unit: "us", Better: "lower"}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"committed_tx_per_s", "tx/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p95_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_tx", "B/tx", "lower", 0.25},
	{"cpu_ms_per_tx", "ms/tx", "lower", 0.25},
	{"cluster_rss_mb", "MB", "lower", 0.25},
}
