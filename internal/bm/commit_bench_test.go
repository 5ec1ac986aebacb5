package bm

import (
	"testing"

	"github.com/zeroloss/zlb/internal/pipeline"
)

// The CommitBlock benchmarks time one 1 024-transaction block entering a
// fresh ledger, in µs per transaction, on the two block shapes that
// matter — 1 024 independent senders, and the benchmark's 256 payers each
// spending their own change four times over — with the signature
// verdicts unknown at commit (cold: speculation was dropped) or settled
// (warm: the deployed case). "pool" is a node's ledger (pipeline.Shared,
// sized by GOMAXPROCS); "nopool" is the sequential reference. EXPERIMENTS.md
// "One way into the ledger (PR 20)" holds the table these re-take:
//
//	GOMAXPROCS=2 go test -run '^$' -bench CommitBlock -benchtime=20x ./internal/bm
func benchCommitBlock(b *testing.B, payers, rounds int, warmVerdicts bool) {
	scheme, allocs, block := buildPaymentFixture(b, payers, rounds)
	pools := []struct {
		name string
		pool *pipeline.Pool
	}{{"pool", pipeline.Shared()}, {"nopool", nil}}
	for _, p := range pools {
		b.Run(p.name, func(b *testing.B) {
			var blk *Block
			if warmVerdicts {
				blk = coldCopy(b, block, len(block.Txs))
				warm(blk, scheme)
			}
			commit := func() {
				b.StopTimer()
				if !warmVerdicts {
					blk = coldCopy(b, block, len(block.Txs))
				}
				l := genesisLedger(scheme, allocs, p.pool)
				b.StartTimer()
				if applied := l.CommitBlock(blk); applied != len(blk.Txs) {
					b.Fatalf("applied %d of %d", applied, len(blk.Txs))
				}
			}
			commit() // untimed: pages in the heap the ledger's maps grow into
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(blk.Txs)), "us/tx")
		})
	}
}

func BenchmarkCommitBlockIndependentWarm(b *testing.B) { benchCommitBlock(b, 1024, 1, true) }
func BenchmarkCommitBlockIndependentCold(b *testing.B) { benchCommitBlock(b, 1024, 1, false) }
func BenchmarkCommitBlockChainedWarm(b *testing.B)     { benchCommitBlock(b, 256, 4, true) }
func BenchmarkCommitBlockChainedCold(b *testing.B)     { benchCommitBlock(b, 256, 4, false) }
