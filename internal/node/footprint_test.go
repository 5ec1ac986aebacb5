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
// committed set, the node's only one (≈80 B as a map entry), and the one
// output it adds to the UTXO table (≈200 B; the table keeps no
// per-account outpoint set). That is ≈280 B; the test measures ≈300 B,
// and the bound keeps ≈150 B of margin. A second copy of the transaction as decoded
// objects costs ≈450 B more and does not fit.
const footprintPerTx = 450

// durablePerTx is how much more heap a payment may leave on a node with a
// store than on one without: the store keeps places in its log, not a
// second copy of the chain, so nothing grows with the committed payments
// there. A decoded checkpoint held in memory, every committed ID and
// unspent output a second time, costs ≈120 B more and does not fit.
const durablePerTx = 40

// TestCommittedHistoryFootprint commits 64 blocks of 1000 chained faucet
// payments through the node's commit path (decode through the batch cache,
// ledger, mempool prune, metrics) and fails when the heap in use grows by
// more than the payload bytes, which the test holds in the decisions as a
// replica does, plus footprintPerTx per transaction. It then does the same
// on a node with a store that cuts a checkpoint every 16 blocks, the last
// one after the last block and installed by closing the store, and fails
// when that node keeps more than durablePerTx per transaction beyond the
// node without one.
func TestCommittedHistoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies 128000 payments")
	}
	const blocks, perBlock = 64, 1000
	storeless := committedFootprint(t, blocks, perBlock, nil)
	t.Logf("without a store: %d B per payment beside the payloads (budget %d)", storeless, footprintPerTx)
	if storeless > footprintPerTx {
		t.Errorf("a node without a store keeps %d B per payment beside the payloads, budget %d B", storeless, footprintPerTx)
	}
	durable := committedFootprint(t, blocks, perBlock, func(o *Options) { o.DataDir, o.CheckpointEvery = t.TempDir(), 16 })
	t.Logf("with a store: %d B per payment beside the payloads (budget %d)", durable, storeless+durablePerTx)
	if durable > storeless+durablePerTx {
		t.Errorf("a node with a store keeps %d B per payment beside the payloads, %d B more than one without; budget %d B",
			durable, durable-storeless, durablePerTx)
	}
}

// committedFootprint commits blocks of perBlock payments through a node
// built with tweak, holding the decisions as a replica does, and returns
// by how much the heap in use grew beyond their payload bytes, per payment.
func committedFootprint(t *testing.T, blocks, perBlock int, tweak func(*Options)) int64 {
	t.Helper()
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(2*1), tweak)

	decisions := make([]*sbc.Decision, 0, blocks)
	before := heapInUse()
	payloadTotal := 0
	for k := uint64(1); k <= uint64(blocks); k++ {
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
	// Close installs the cut the last block started: the store then holds
	// what it keeps, and no longer the snapshot its write was handed.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	after := heapInUse()

	if got := f.Status().TxsApplied; got != uint64(blocks*perBlock) {
		t.Fatalf("applied %d payments, want %d", got, blocks*perBlock)
	}
	grown := int64(after) - int64(before)
	t.Logf("heap in use grew %.1f MB over %d payments, %.1f MB of them payloads",
		float64(grown)/(1<<20), blocks*perBlock, float64(payloadTotal)/(1<<20))
	runtime.KeepAlive(decisions)
	return (grown - int64(payloadTotal)) / int64(blocks*perBlock)
}
