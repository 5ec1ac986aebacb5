package node

import (
	"runtime"
	"testing"

	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// footprintPerTx is how much heap one committed payment may leave on a
// node beside its bytes in the retained decision: its ID in the ledger's
// committed set and in the mempool's (≈80 B each as map entries) and the
// one output it adds to the UTXO table (≈200 B; the table keeps no
// per-account outpoint set). That is ≈360 B; the test measures ≈385 B,
// and the bound keeps the ≈150 B of margin it had over the ≈490 B
// measured with the outpoint set. A second copy of the transaction as
// decoded objects costs ≈450 B more and does not fit.
const footprintPerTx = 530

// TestCommittedHistoryFootprint commits 60 blocks of 1000 chained faucet
// payments through the node's commit path (decode through the batch cache,
// ledger, mempool prune, metrics) and fails when the heap in use grows by
// more than the payload bytes, which the test holds in the decisions as a
// replica does, plus footprintPerTx per transaction.
func TestCommittedHistoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies 60000 payments")
	}
	const blocks, perBlock = 60, 1000
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(2*1), nil)

	decisions := make([]*sbc.Decision, 0, blocks)
	before := heapInUse()
	payloadTotal := 0
	for k := uint64(1); k <= blocks; k++ {
		txs := make([]*utxo.Transaction, perBlock)
		for i := range txs {
			txs[i] = f.faucet.pay(1)
		}
		payload := encode(t, txs...)
		payloadTotal += len(payload)
		d := &sbc.Decision{
			Instance: types.Instance(k),
			Bits:     map[types.ReplicaID]bool{1: true},
			Proposals: map[types.ReplicaID]sbc.ProposalInfo{
				1: {Broadcaster: 1, Payload: payload, Digest: types.Hash(payload), ClaimedSigs: perBlock},
			},
		}
		decisions = append(decisions, d)
		f.Commit(k, 0, d)
	}
	after := heapInUse()

	st := f.Status()
	if got := st.TxsApplied; got != blocks*perBlock {
		t.Fatalf("applied %d payments, want %d", got, blocks*perBlock)
	}
	grown, budget := int64(after)-int64(before), int64(payloadTotal)+blocks*perBlock*footprintPerTx
	t.Logf("heap in use grew %.1f MB over %d payments: %.1f MB of payloads and %d B per payment beside them (budget %d)",
		float64(grown)/(1<<20), blocks*perBlock, float64(payloadTotal)/(1<<20), (grown-int64(payloadTotal))/(blocks*perBlock), footprintPerTx)
	if grown > budget {
		t.Errorf("heap in use grew by %d B, budget %d B", grown, budget)
	}
	runtime.KeepAlive(decisions)
}
