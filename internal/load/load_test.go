package load_test

import (
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/load"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/scenario"
)

// smallScenario is a fast two-phase workload run for unit tests.
func smallScenario(policy mempool.Policy) scenario.Scenario {
	return scenario.Scenario{
		Name: "unit",
		Opts: harness.Options{N: 4, Seed: 7, MaxInstances: 1 << 16},
		Phases: []scenario.Phase{
			{Name: "p1", Duration: time.Second},
			{Name: "p2", Duration: time.Second},
		},
		Drain: 10 * time.Second,
		Workload: &load.Workload{
			Classes: []load.Class{
				{Name: "a", Accounts: 2, Fee: 5},
				{Name: "b", Accounts: 2, Fee: 1},
			},
			Rates:    [][]float64{{20, 20}, {20, 0}},
			Policy:   policy,
			BatchTxs: 50,
		},
	}
}

// TestRunDeterministic pins that two identical workload runs produce
// byte-identical reports, that the basic accounting adds up, that the
// phases count each committed payment once, and that a run leaves the
// workload it was given as it was.
func TestRunDeterministic(t *testing.T) {
	policy := mempool.Policy{MaxTxs: 100, PriorityOrder: true, MinFee: 1}
	s := smallScenario(policy)
	var phaseTxs int
	run := func() *load.Report {
		res, err := scenario.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Load == nil {
			t.Fatal("a workload run reports no latency section")
		}
		phaseTxs = 0
		for _, p := range res.Phases {
			phaseTxs += p.Txs
		}
		return res.Load
	}
	r1, r2 := run(), run()
	if r1.Format() != r2.Format() {
		t.Fatalf("same scenario, different reports:\n--- run 1\n%s\n--- run 2\n%s", r1.Format(), r2.Format())
	}
	for _, cl := range s.Workload.Classes {
		if cl.Amount != 0 {
			t.Errorf("class %s: the run wrote Amount=%d into the workload", cl.Name, cl.Amount)
		}
	}
	if r1.Variant != "admission" || r1.N != 4 || r1.Seed != 7 {
		t.Errorf("report header: variant %q n=%d seed=%d", r1.Variant, r1.N, r1.Seed)
	}
	total := 0
	for _, row := range r1.Rows {
		rejects := 0
		for _, n := range row.Rejected {
			rejects += n
		}
		if row.Admitted+rejects != row.Submitted {
			t.Errorf("%s/%s: admitted %d + rejected %d != submitted %d",
				row.Phase, row.Class, row.Admitted, rejects, row.Submitted)
		}
		if row.Committed > row.Admitted {
			t.Errorf("%s/%s: committed %d > admitted %d",
				row.Phase, row.Class, row.Committed, row.Admitted)
		}
		total += row.Committed
	}
	if total == 0 {
		t.Fatal("no transactions committed at all")
	}
	if phaseTxs != total {
		t.Errorf("the phases count %d committed payments, the report %d", phaseTxs, total)
	}
	if r1.Height == 0 {
		t.Fatal("no blocks committed")
	}
	for _, row := range r1.Rows {
		if row.Committed > 0 && (row.P50 <= 0 || row.P99 < row.P50 || row.P999 < row.P99) {
			t.Errorf("%s/%s: implausible percentiles p50=%v p99=%v p999=%v",
				row.Phase, row.Class, row.P50, row.P99, row.P999)
		}
	}
}

// TestPercentileNearestRank pins the nearest-rank definition.
func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
		{1.0, 100 * time.Millisecond},
	} {
		if got := load.Percentile(ds, tc.q); got != tc.want {
			t.Errorf("p%g of 1..100ms: got %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if got := load.Percentile(nil, 0.99); got != 0 {
		t.Errorf("empty slice: got %v, want 0", got)
	}
	one := []time.Duration{42 * time.Millisecond}
	if got := load.Percentile(one, 0.5); got != 42*time.Millisecond {
		t.Errorf("single element: got %v", got)
	}
}

// TestCampaignRegistry checks that every payment-workload registration
// builds with its workload, its committee size and seed threaded
// through, and one rate row per phase; that a baseline registration runs
// under its campaign's name with no admission policy; and that the
// registry rejects unknown names.
func TestCampaignRegistry(t *testing.T) {
	names := scenario.WorkloadNames()
	if len(names) != 4 {
		t.Fatalf("registered workload campaigns: %v, want 4", names)
	}
	for _, name := range names {
		s, err := scenario.Build(name, 9, 42)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workload == nil {
			t.Fatalf("%s: no workload", name)
		}
		if s.Opts.N != 9 || s.Opts.Seed != 42 {
			t.Errorf("%s: n/seed not threaded through", name)
		}
		if len(s.Workload.Rates) != len(s.Phases) {
			t.Errorf("%s: %d rate rows for %d phases", name, len(s.Workload.Rates), len(s.Phases))
		}
		if base, ok := strings.CutSuffix(name, "-baseline"); ok {
			if s.Name != base || s.Workload.Policy != (mempool.Policy{}) {
				t.Errorf("%s: runs as %q with policy %+v, want %q with none", name, s.Name, s.Workload.Policy, base)
			}
		} else if s.Name != name {
			t.Errorf("%s: builds scenario named %q", name, s.Name)
		}
	}
	if _, err := scenario.Build("nope", 9, 42); err == nil {
		t.Error("unknown campaign must error")
	}
}
