package zlb_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/scenario"
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
const goldenBlock1 = "4906d67bf63200d827133a7e75ce3e27f5855d3fab44bfe9af9cdb07cacd200e"

func TestFixedSeedBlockDigestGolden(t *testing.T) {
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

// loadCampaigns lists the open-loop load campaigns, each with its
// payment-workload registrations in registration order: a baseline
// registration runs under its campaign's name, and its report follows
// the campaign's in the campaign's golden.
func loadCampaigns(t *testing.T) (names []string, regs map[string][]string) {
	t.Helper()
	regs = make(map[string][]string)
	for _, reg := range scenario.WorkloadNames() {
		s, err := scenario.Build(reg, 9, 42)
		if err != nil {
			t.Fatal(err)
		}
		if regs[s.Name] == nil {
			names = append(names, s.Name)
		}
		regs[s.Name] = append(regs[s.Name], reg)
	}
	return names, regs
}

// runLoadCampaign runs one open-loop campaign's registrations at n=9,
// seed 42 and returns their formatted reports, a blank line apart.
func runLoadCampaign(t *testing.T, regs []string) string {
	t.Helper()
	reports := make([]string, len(regs))
	for i, reg := range regs {
		s, err := scenario.Build(reg, 9, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = res.Format()
	}
	return strings.Join(reports, "\n")
}

// TestLoadGoldens pins, for every registered open-loop load campaign,
// the fixed-seed latency-percentile report at n=9, seed 42: per-phase
// p50/p99/p999 per class, admission verdict counts, chain height and
// pool occupancy. Each campaign runs twice: the runs must be
// bit-identical and match the golden under testdata/scenario_goldens/.
// Regenerate after an intended change with
// `go test -run TestLoadGoldens -update`.
func TestLoadGoldens(t *testing.T) {
	names, regs := loadCampaigns(t)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			first := runLoadCampaign(t, regs[name])
			second := runLoadCampaign(t, regs[name])
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

// TestPipelineModesBitIdentical is the commit pipeline's determinism
// contract: the fixed-seed run under GOMAXPROCS=1 and under GOMAXPROCS=4
// must produce identical chain digests, virtual clocks and balances, and
// block 1 must be TestFixedSeedBlockDigestGolden's. The worker pool only
// computes pure verdicts, so scheduling must never leak into results.
// The reference without a pool is bm's (TestCommitBlockParallelMatchesSequential).
func TestPipelineModesBitIdentical(t *testing.T) {
	widenSharedPool()
	type run struct {
		digests  map[uint64]zlb.Digest
		now      time.Duration
		balances [3]zlb.Amount
	}
	var ref *run
	for _, maxprocs := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel/GOMAXPROCS=%d", maxprocs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(prev)
			cluster, ws := runDeterminismScenario(t)
			got := &run{digests: cluster.BlockDigests(), now: cluster.Now()}
			for i, w := range ws {
				got.balances[i] = cluster.Balance(w.Address())
			}
			if d := got.digests[1]; d.Hex() != goldenBlock1 {
				t.Errorf("block 1 digest %v, want golden %s", d, goldenBlock1)
			}
			if ref == nil {
				ref = got
				return
			}
			if !reflect.DeepEqual(got.digests, ref.digests) {
				t.Errorf("chain digests %v, want %v (GOMAXPROCS=1)", got.digests, ref.digests)
			}
			if got.now != ref.now || got.balances != ref.balances {
				t.Errorf("virtual clock %v and balances %v, want %v and %v (GOMAXPROCS=1)", got.now, got.balances, ref.now, ref.balances)
			}
		})
	}
}

// TestParallelSimnetBitIdentical is the simulator's determinism contract
// under parallel verification: the simulated nodes fan their signature
// and ledger checks out to the shared worker pool, so every registered
// scenario campaign and every registered open-loop load campaign must
// produce bit-identical reports at GOMAXPROCS=1 and at GOMAXPROCS=4.
// The goldens run each campaign at one width only; this is where the
// width changes underneath one event loop.
func TestParallelSimnetBitIdentical(t *testing.T) {
	widenSharedPool()
	widths := []int{1, 4}
	compare := func(t *testing.T, run func() string) {
		t.Helper()
		var ref string
		for i, maxprocs := range widths {
			prev := runtime.GOMAXPROCS(maxprocs)
			got := run()
			runtime.GOMAXPROCS(prev)
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Errorf("GOMAXPROCS=%d diverged from GOMAXPROCS=%d:\n--- got\n%s--- want\n%s", maxprocs, widths[0], got, ref)
			}
		}
	}
	for _, name := range scenario.Names() {
		name := name
		t.Run("scenario/"+name, func(t *testing.T) {
			compare(t, func() string {
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
		})
	}
	names, regs := loadCampaigns(t)
	for _, name := range names {
		name := name
		t.Run("load/"+name, func(t *testing.T) {
			compare(t, func() string { return runLoadCampaign(t, regs[name]) })
		})
	}
}

// widenSharedPool forces a multi-worker shared pool before anything
// sizes it: the pool is sized at first use, and on a single-core host it
// would otherwise degenerate to one worker, and the GOMAXPROCS=4 runs
// would not exercise concurrent fan-in at all. If another test already
// created the pool its width is fixed, but on CI (multi-core) GOMAXPROCS
// is >1 from process start, so the pool is multi-worker regardless of
// ordering.
func widenSharedPool() {
	prev := runtime.GOMAXPROCS(4)
	pipeline.Shared()
	runtime.GOMAXPROCS(prev)
}

// TestTraceDigestGolden is the internal/obs determinism contract at the
// system level: with tracing enabled, the merged event stream of a full
// accountability campaign (fork, detection, exclusion, merge) at n=9,
// seed 42 must match the golden digest under testdata/scenario_goldens/.
// Regenerate after an intended change with
// `go test -run TestTraceDigestGolden -update`.
func TestTraceDigestGolden(t *testing.T) {
	const name = "attack-detect-exclude-merge"
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
	got := s.Opts.Tracer.Digest()
	goldenPath := filepath.Join("testdata", "scenario_goldens", "trace-"+name+".digest")
	if *updateGoldens {
		if err := os.WriteFile(goldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if got+"\n" != string(want) {
		t.Errorf("trace digest %s does not match golden %s", got, string(want))
	}
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
