package harness_test

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/bench"
	"github.com/zeroloss/zlb/internal/harness"
)

// runSim drives the fig3 ZLB configuration at committee size n
// (bench.ZLBFig3Options, the same options CI's perf gate runs) and times
// the simulator's event loop on it: ns/op is the wall clock of one run.
// The reported tx/s and event count are seed-deterministic, so a change
// that moves them changed the simulation, not its speed.
func runSim(b *testing.B, n int) {
	opts := bench.ZLBFig3Options(n, 2, 42)
	for i := 0; i < b.N; i++ {
		c, err := harness.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		c.RunUntilQuiet(30 * time.Minute)
		if c.Exhausted() {
			b.Fatal("run exhausted its event budget")
		}
		if i == 0 {
			b.ReportMetric(c.Throughput(), "tx/s")
			b.ReportMetric(float64(c.Net.Delivered), "events")
		}
	}
}

func BenchmarkSim30(b *testing.B) { runSim(b, 30) }
func BenchmarkSim60(b *testing.B) { runSim(b, 60) }
