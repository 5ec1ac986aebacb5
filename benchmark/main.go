// Command benchmark is the wall-clock benchmark of the deployed binary:
// it builds ./cmd/zlb-node, spawns a real four-process cluster on
// loopback for each named workload, drives it over the client protocol,
// checks the outcome and prints every metric by name with its unit.
// README.md defines the workloads and metrics.
//
//	bash benchmark/run.sh                         # all workloads, untraced and traced
//	bash benchmark/run.sh -workload steady-bcast-n4 -seed 7 -trace 0
//	bash benchmark/run.sh -check                  # two sets of runs, gaps against the bounds
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; -trace 0 reports the
// end-to-end metrics and -trace 1 the per-layer ones. Only -seed and
// -workload change a run's inputs; -seconds is there for the driver that
// reads BENCHMARK.json, which passes run_seconds on every run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"github.com/zeroloss/zlb/benchmark/cluster"
)

// buildDir is where everything the benchmark writes goes, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "derives the arrival schedule, the wallet keys and the node PKI")
	seconds := flag.Int("seconds", int(window/time.Second), "length of the measured window; the driver passes BENCHMARK.json's run_seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	check := flag.Bool("check", false, "run every workload twice, alternating order, and fail when a gap exceeds a metric's bound")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, *name, *seed, *seconds, *trace, *check)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, name string, seed int64, seconds, trace int, check bool) int {
	if flag.NArg() > 0 || seconds < 2 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2
	}
	b := &bench{
		nodeBinary: filepath.Join(buildDir, "zlb-node"),
		workDir:    filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		seed:       seed,
		window:     time.Duration(seconds) * time.Second,
	}
	b.speed = startBoxSpeed()
	defer b.speed.Stop()
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.workDir)
	if err := cluster.Build(ctx, b.nodeBinary); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "conditions: n=%d on loopback (latency is processor time plus fsync, not a WAN), %d CPUs, GOMAXPROCS=%d per node, warm-up %v, window %v, seed %d\n",
		clusterSize, runtime.NumCPU(), nodeProcs(), warmUp, b.window, seed)

	switch {
	case check:
		if err := b.runCheck(ctx); err != nil {
			return fail(err)
		}
		return 0
	case name == "":
		if err := b.runAll(ctx); err != nil {
			return fail(err)
		}
		return 0
	}
	wl, ok := workloadByName(name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", name))
	}
	measure, defs := b.runUntraced, endToEnd
	if trace == 1 {
		measure, defs = b.runTraced, perLayer
	}
	out, err := measure(ctx, wl)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", wl.Name, err))
	}
	for _, n := range out.Notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", wl.Name, n)
	}
	return printResult(out, defs)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// printResult writes the one-line JSON result the driver reads.
func printResult(out *outcome, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: out.Attempted, Failed: out.Failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok {
			return fail(fmt.Errorf("metric %s was not measured", d.Name))
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}
