package zlb_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/bench"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/load"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
)

var updateGoldens = flag.Bool("update", false, "rewrite the scenario golden files under testdata/")

// runDeterminismScenario drives the fixed-seed workload the golden values
// below were captured from: every transaction is submitted before Start,
// so the block assignment does not depend on payload encoding size and
// the digests are stable across codec changes.
func runDeterminismScenario(t *testing.T) (*zlb.Cluster, [3]*zlb.Wallet) {
	t.Helper()
	cluster, err := zlb.NewCluster(zlb.Config{N: 7, Seed: 42, WalletCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ws [3]*zlb.Wallet
	for i := range ws {
		w, err := cluster.WalletFor(i)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	for i := 0; i < 10; i++ {
		tx, err := cluster.Pay(ws[0], ws[1].Address(), zlb.Amount(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cluster.Submit(tx)
	}
	tx, err := cluster.Pay(ws[1], ws[2].Address(), 555)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Submit(tx)
	cluster.Start()
	cluster.RunUntilQuiet(5 * time.Minute)
	return cluster, ws
}

// TestFixedSeedBlockDigestGolden pins the exact block digest of the
// fixed-seed run. The golden value was captured from the seed tree's
// gob-based codec; the binary wire codec must reproduce it bit for bit
// (same transactions, same IDs, same deterministic union order).
func TestFixedSeedBlockDigestGolden(t *testing.T) {
	const goldenBlock1 = "4906d67bf63200d827133a7e75ce3e27f5855d3fab44bfe9af9cdb07cacd200e"

	cluster, ws := runDeterminismScenario(t)
	if got := cluster.Height(); got != 1 {
		t.Fatalf("height %d, want 1", got)
	}
	digests := cluster.BlockDigests()
	d, ok := digests[1]
	if !ok {
		t.Fatalf("no block at index 1 (got %v)", digests)
	}
	if d.Hex() != goldenBlock1 {
		t.Errorf("block 1 digest %s, want golden %s", d.Hex(), goldenBlock1)
	}

	// Golden application state: only the first of the ten conflicting
	// w0 payments applies; w1's payment to w2 applies on top.
	wantBalances := [3]zlb.Amount{999_900, 999_545, 1_000_555}
	for i, want := range wantBalances {
		if got := cluster.Balance(ws[i].Address()); got != want {
			t.Errorf("wallet %d balance %d, want %d", i, got, want)
		}
	}
	if got := cluster.Deposit(); got != 900_004 {
		t.Errorf("deposit %d, want 900004", got)
	}
}

// TestFixedSeedRunsIdentical asserts two runs with identical seeds
// produce byte-identical block digests — the reproducibility contract the
// benchmarks and the paper's evaluation rely on.
func TestFixedSeedRunsIdentical(t *testing.T) {
	a, _ := runDeterminismScenario(t)
	b, _ := runDeterminismScenario(t)
	da, db := a.BlockDigests(), b.BlockDigests()
	if len(da) != len(db) {
		t.Fatalf("run lengths differ: %d vs %d blocks", len(da), len(db))
	}
	for k, d := range da {
		if db[k] != d {
			t.Errorf("block %d: %v vs %v", k, d, db[k])
		}
	}
	if a.Now() != b.Now() {
		t.Errorf("virtual clocks differ: %v vs %v", a.Now(), b.Now())
	}
}

// TestScenarioGoldens pins, for every registered scenario campaign, the
// fixed-seed per-phase metrics (throughput, disagreements,
// detection/exclusion/inclusion times) at n=9, seed 42. Each campaign is
// run twice: the two runs must be bit-identical (the scenario engine's
// reproducibility contract) and must match the golden file under
// testdata/scenario_goldens/. Regenerate the goldens after an intended
// metric change with `go test -run TestScenarioGoldens -update`.
func TestScenarioGoldens(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() string {
				s, err := scenario.Build(name, 9, 42)
				if err != nil {
					t.Fatal(err)
				}
				res, err := scenario.Run(s)
				if err != nil {
					t.Fatal(err)
				}
				return res.Format()
			}
			first, second := run(), run()
			if first != second {
				t.Fatalf("two fixed-seed runs differ:\n--- run 1\n%s--- run 2\n%s", first, second)
			}
			goldenPath := filepath.Join("testdata", "scenario_goldens", name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(first), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if first != string(want) {
				t.Errorf("per-phase metrics diverged from golden:\n--- got\n%s--- want\n%s", first, want)
			}
		})
	}
}

// runLoadCampaign executes one registered open-loop campaign at n=9,
// seed 42 and returns its formatted report.
func runLoadCampaign(t *testing.T, name string) string {
	t.Helper()
	c, err := load.BuildCampaign(name, 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := load.RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.Format()
}

// TestLoadGoldens pins, for every registered open-loop load campaign,
// the fixed-seed latency-percentile report at n=9, seed 42: per-phase
// p50/p99/p999 per class, admission verdict counts, chain height and
// pool occupancy. Each campaign runs twice: the runs must be
// bit-identical and match the golden under testdata/scenario_goldens/.
// Regenerate after an intended change with
// `go test -run TestLoadGoldens -update`.
func TestLoadGoldens(t *testing.T) {
	for _, name := range load.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			first := runLoadCampaign(t, name)
			second := runLoadCampaign(t, name)
			if first != second {
				t.Fatalf("two fixed-seed runs differ:\n--- run 1\n%s--- run 2\n%s", first, second)
			}
			goldenPath := filepath.Join("testdata", "scenario_goldens", "load-"+name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(first), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if first != string(want) {
				t.Errorf("latency report diverged from golden:\n--- got\n%s--- want\n%s", first, want)
			}
		})
	}
}

// runPipelineScenario is runDeterminismScenario with an explicit commit
// mode; it returns the chain digests, the final virtual clock and the
// three wallet balances — everything the pipeline must leave untouched.
func runPipelineScenario(t *testing.T, sequential bool) (map[uint64]zlb.Digest, time.Duration, [3]zlb.Amount) {
	t.Helper()
	cluster, err := zlb.NewCluster(zlb.Config{N: 7, Seed: 42, WalletCount: 3, SequentialCommit: sequential})
	if err != nil {
		t.Fatal(err)
	}
	var ws [3]*zlb.Wallet
	for i := range ws {
		w, err := cluster.WalletFor(i)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	for i := 0; i < 10; i++ {
		tx, err := cluster.Pay(ws[0], ws[1].Address(), zlb.Amount(100+i))
		if err != nil {
			t.Fatal(err)
		}
		cluster.Submit(tx)
	}
	cluster.Start()
	cluster.RunUntilQuiet(5 * time.Minute)
	var balances [3]zlb.Amount
	for i := range ws {
		balances[i] = cluster.Balance(ws[i].Address())
	}
	return cluster.BlockDigests(), cluster.Now(), balances
}

// TestPipelineModesBitIdentical is the commit pipeline's determinism
// contract: the parallel pipeline under GOMAXPROCS=1, the parallel
// pipeline under GOMAXPROCS=4 and the forced-sequential mode
// (Config.SequentialCommit) must produce identical chain digests,
// identical virtual clocks and identical balances. The worker pool only
// computes pure verdicts, so scheduling must never leak into results.
func TestPipelineModesBitIdentical(t *testing.T) {
	// Force a multi-worker pool before anything touches it: the shared
	// pool is sized at first use, and on a single-core host (or if the
	// sequential reference ran first) it would otherwise degenerate to
	// one worker and the GOMAXPROCS subtests below would not exercise
	// concurrent fan-in at all. If another test already created the pool
	// its width is fixed, but on CI (multi-core) GOMAXPROCS is >1 from
	// process start, so the pool is multi-worker regardless of ordering.
	prev := runtime.GOMAXPROCS(4)
	pipeline.Shared()
	runtime.GOMAXPROCS(prev)

	refDigests, refNow, refBal := runPipelineScenario(t, true)
	if len(refDigests) == 0 {
		t.Fatal("sequential run committed no blocks")
	}
	modes := []struct {
		name     string
		maxprocs int
	}{
		{"parallel/GOMAXPROCS=1", 1},
		{"parallel/GOMAXPROCS=4", 4},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(m.maxprocs)
			defer runtime.GOMAXPROCS(prev)
			digests, now, bal := runPipelineScenario(t, false)
			if len(digests) != len(refDigests) {
				t.Fatalf("chain length %d, want %d", len(digests), len(refDigests))
			}
			for k, d := range refDigests {
				if digests[k] != d {
					t.Errorf("block %d digest %v, want %v", k, digests[k], d)
				}
			}
			if now != refNow {
				t.Errorf("virtual clock %v, want %v", now, refNow)
			}
			if bal != refBal {
				t.Errorf("balances %v, want %v", bal, refBal)
			}
		})
	}
}

// widenSharedPool forces a multi-worker shared pool before anything
// sizes it, so the parallel-simnet subtests below exercise real
// concurrency even on a single-core host (see the comment in
// TestPipelineModesBitIdentical).
func widenSharedPool() {
	prev := runtime.GOMAXPROCS(4)
	pipeline.Shared()
	runtime.GOMAXPROCS(prev)
}

// fig3Fingerprint runs the fig3 ZLB point at n=30 on a directly built
// harness cluster and returns everything the parallel simulator must
// leave untouched: committed instances, throughput, disagreements, the
// final virtual clock, the simulator event/byte counters and the full
// chain digests of every honest replica.
func fig3Fingerprint(t *testing.T) string {
	t.Helper()
	c, err := harness.New(bench.ZLBFig3Options(30, 2, 42))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	if c.Exhausted() {
		t.Fatal("fig3 run exhausted its event budget")
	}
	out := fmt.Sprintf("committed=%d tput=%.6f disagreements=%d clock=%d delivered=%d dropped=%d bytes=%d\n",
		c.CommittedInstances(), c.Throughput(), c.Disagreements(), c.Net.Now(),
		c.Net.Delivered, c.Net.Dropped, c.Net.BytesSent)
	for _, id := range c.HonestMembers() {
		digests := c.Replicas[id].ChainDigests()
		ks := make([]uint64, 0, len(digests))
		for k := range digests {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		out += fmt.Sprintf("r%d:", id)
		for _, k := range ks {
			out += fmt.Sprintf(" %d=%s", k, digests[k].Hex())
		}
		out += "\n"
	}
	return out
}

// TestParallelSimnetBitIdentical is the parallel simulator's determinism
// contract at the system level: every registered scenario campaign,
// every registered open-loop load campaign and the fig3 ZLB point at
// n=30 must produce bit-identical goldens, final
// clocks, event counts and chain digests under the sequential loop
// (simnet.SequentialSim) and under conservative parallel windows at
// GOMAXPROCS=1 and GOMAXPROCS=4. The nightly workflow re-runs it under
// the race detector.
func TestParallelSimnetBitIdentical(t *testing.T) {
	widenSharedPool()
	modes := []struct {
		name     string
		seqSim   bool
		maxprocs int
	}{
		{"sequential-sim", true, 0},
		{"parallel/GOMAXPROCS=1", false, 1},
		{"parallel/GOMAXPROCS=4", false, 4},
	}
	// The mode is the simulator's own and process-wide, like GOMAXPROCS:
	// set around the run, on whatever builds the network underneath.
	runMode := func(seqSim bool, maxprocs int, fn func() string) string {
		simnet.SequentialSim = seqSim
		defer func() { simnet.SequentialSim = false }()
		if maxprocs > 0 {
			prev := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(prev)
		}
		return fn()
	}
	for _, name := range scenario.Names() {
		name := name
		t.Run("scenario/"+name, func(t *testing.T) {
			var ref string
			for i, m := range modes {
				got := runMode(m.seqSim, m.maxprocs, func() string {
					s, err := scenario.Build(name, 9, 42)
					if err != nil {
						t.Fatal(err)
					}
					res, err := scenario.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					return res.Format()
				})
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s diverged from %s:\n--- got\n%s--- want\n%s", m.name, modes[0].name, got, ref)
				}
			}
		})
	}
	for _, name := range load.Names() {
		name := name
		t.Run("load/"+name, func(t *testing.T) {
			var ref string
			for i, m := range modes {
				got := runMode(m.seqSim, m.maxprocs, func() string { return runLoadCampaign(t, name) })
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s diverged from %s:\n--- got\n%s--- want\n%s", m.name, modes[0].name, got, ref)
				}
			}
		})
	}
	t.Run("fig3/ZLB/n=30", func(t *testing.T) {
		if testing.Short() {
			t.Skip("skipping fig3 point in -short mode")
		}
		var ref string
		for i, m := range modes {
			got := runMode(m.seqSim, m.maxprocs, func() string { return fig3Fingerprint(t) })
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("%s diverged from %s:\n--- got\n%s--- want\n%s", m.name, modes[0].name, got, ref)
			}
		}
	})
	// Trace-digest pin: with tracing enabled, the merged obs event stream
	// of a full accountability campaign (fork, detection, exclusion,
	// merge) must be bit-identical across all three execution modes AND
	// match the golden digest — the internal/obs determinism contract at
	// the system level. Tracing must not force the sequential fallback:
	// the parallel modes run through conservative windows like any other
	// run.
	t.Run("trace/attack-detect-exclude-merge", func(t *testing.T) {
		const name = "attack-detect-exclude-merge"
		var ref string
		for i, m := range modes {
			got := runMode(m.seqSim, m.maxprocs, func() string {
				s, err := scenario.Build(name, 9, 42)
				if err != nil {
					t.Fatal(err)
				}
				s.Opts.Tracer = obs.NewTracer()
				if _, err := scenario.Run(s); err != nil {
					t.Fatal(err)
				}
				if s.Opts.Tracer.Len() == 0 {
					t.Fatal("traced scenario recorded no events")
				}
				return s.Opts.Tracer.Digest()
			})
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("%s trace digest %s, want %s (%s)", m.name, got, ref, modes[0].name)
			}
		}
		goldenPath := filepath.Join("testdata", "scenario_goldens", "trace-"+name+".digest")
		if *updateGoldens {
			if err := os.WriteFile(goldenPath, []byte(ref+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading golden (run with -update to regenerate): %v", err)
		}
		if ref+"\n" != string(want) {
			t.Errorf("trace digest %s does not match golden %s", ref, string(want))
		}
	})
}

// TestNewWalletKeepsDeposits regression-tests the Cluster.NewWallet fix:
// rebuilding the per-node ledgers for the extra genesis allocation must
// re-apply the staked deposits, or the slash pool starts empty and
// merges after a fork silently underfund.
func TestNewWalletKeepsDeposits(t *testing.T) {
	cluster, err := zlb.NewCluster(zlb.Config{N: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	before := cluster.Deposit()
	if before == 0 {
		t.Fatal("cluster starts with an empty deposit pool")
	}
	w, err := cluster.NewWallet(12_345)
	if err != nil {
		t.Fatal(err)
	}
	if got := cluster.Deposit(); got != before {
		t.Errorf("deposit pool after NewWallet %d, want %d", got, before)
	}
	if got := cluster.Balance(w.Address()); got != 12_345 {
		t.Errorf("new wallet balance %d, want 12345", got)
	}
}
