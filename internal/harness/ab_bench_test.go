package harness_test

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/bench"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/simnet"
)

// runAB drives the fig3 ZLB configuration at committee size n
// (bench.ZLBFig3Options, the same options CI's perf gate runs) with the
// simulator's execution mode as the only variable — the A/B pairs behind
// the EXPERIMENTS.md parallel-simnet wall-clock comparison. The reported
// tx/s and event counts must be identical within a pair (bit-identity is
// pinned by TestParallelSimnetBitIdentical at the repository root); only
// ns/op may differ. The windows cost below about n=50 and pay above it,
// from two cores up, so there is a pair on each side.
func runAB(b *testing.B, n int, seqSim bool) {
	opts := bench.ZLBFig3Options(n, 2, 42)
	simnet.SequentialSim = seqSim
	defer func() { simnet.SequentialSim = false }()
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

func BenchmarkSimSeq30(b *testing.B) { runAB(b, 30, true) }
func BenchmarkSimPar30(b *testing.B) { runAB(b, 30, false) }
func BenchmarkSimSeq60(b *testing.B) { runAB(b, 60, true) }
func BenchmarkSimPar60(b *testing.B) { runAB(b, 60, false) }
