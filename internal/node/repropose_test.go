package node

import (
	"runtime"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// noVerifyScheme fails the test when a signature check reaches it: a
// transaction whose verdict is memoized never asks.
type noVerifyScheme struct {
	crypto.Scheme
	t *testing.T
}

func (s noVerifyScheme) Verify(crypto.PublicKey, types.Digest, crypto.Signature) bool {
	s.t.Error("a transaction verified in the instance that first delivered it was verified again")
	return false
}

// TestReproposedTransactionsCommitAsFirstDecoded replays, on one node, a
// proposal losing its slot instance after instance — what every instance
// of a sharded workload did while the reduction voted 0 at the n−t-th
// delivery, and what a proposal slower than n−t agreements still meets.
// The test drives the deliveries and decisions by hand: each instance
// delivers four disjoint proposals and selects three, and the owner of
// the dropped one proposes its transactions again one instance later, in
// front of its new ones, as a payload with different bytes. Those
// transactions must come out of the batch cache, and so reach the commit,
// as the objects the first delivery decoded and verified; the counters
// must read four delivered to three committed, as driven, and a quarter
// reused; and the dropped payloads,
// which the reused objects alias, must leave with the cache's window: the
// heap may grow by the committed payloads plus footprintPerTx per payment,
// the budget of TestCommittedHistoryFootprint.
func TestReproposedTransactionsCommitAsFirstDecoded(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies 40000 payments")
	}
	const n, rounds, perProposal = 4, 40, 250
	f := newFixture(t, tcpEnv(1), wire.NewBatchCache(2*n), nil)

	// Block 1 splits the faucet between four payers, one per proposer, so
	// that each proposer's payments chain among themselves only.
	payers, split := f.splitFaucet(t, n)
	first := encode(t, split)
	decisions := []*sbc.Decision{decide(1, map[types.ReplicaID][]byte{1: first})}
	f.Prevalidate(1, first)
	f.Commit(1, 0, decisions[0])

	before := heapInUse()
	payloadTotal, committed := 0, 1
	var carried []*utxo.Transaction // as the proposer holds them
	var decoded []*utxo.Transaction // as this node first decoded them
	for r := 0; r < rounds; r++ {
		k := uint64(r + 2)
		dropped := r % n
		// The proposer dropped last round leads with what was dropped.
		reproposer := (r + n - 1) % n
		payloads := make([][]byte, n)
		var droppedTxs []*utxo.Transaction
		for s := range payloads {
			var txs []*utxo.Transaction
			if s == reproposer {
				txs = append(txs, carried...)
			}
			for i := 0; i < perProposal; i++ {
				txs = append(txs, payers[s].pay(1))
			}
			payloads[s] = encode(t, txs...)
			if s == dropped {
				droppedTxs = txs
			} else {
				committed += len(txs)
				payloadTotal += len(payloads[s])
			}
		}
		for _, p := range payloads {
			f.Prevalidate(k, p)
		}

		// What the commit will see of the re-proposed transactions.
		selected := make(map[types.ReplicaID][]byte, n-1)
		for s, p := range payloads {
			if s != dropped {
				selected[types.ReplicaID(s+1)] = p
			}
		}
		d := decide(k, selected)
		if len(carried) > 0 {
			inBlock := make(map[*utxo.Transaction]bool)
			for _, tx := range f.blockFrom(k, d).Txs {
				inBlock[tx] = true
			}
			for i, tx := range decoded {
				if !inBlock[tx] {
					t.Fatalf("instance %d: re-proposed transaction %d reaches the commit as a second object", k, i)
				}
				if err := tx.VerifySig(noVerifyScheme{f.scheme, t}); err != nil {
					t.Fatalf("instance %d: re-proposed transaction %d: %v", k, i, err)
				}
			}
		}

		// The first delivery of what this instance drops: decoded and
		// verified now, by the speculation or (where the pool dropped the
		// task) by what stands in for it here.
		var err error
		if decoded, err = f.opts.Batches.Decode(payloads[dropped]); err != nil {
			t.Fatal(err)
		}
		for _, tx := range decoded {
			if err := tx.VerifySig(f.scheme); err != nil {
				t.Fatal(err)
			}
		}
		carried = droppedTxs

		f.Commit(k, 0, d)
		decisions = append(decisions, d)
	}
	carried, decoded = nil, nil
	after := heapInUse()

	if got := f.Status().TxsApplied; got != uint64(committed) {
		t.Errorf("applied %d payments, want %d", got, committed)
	}
	st := f.Status().Pipeline
	if st.ProposalsDelivered != 1+n*rounds || st.ProposalsCommitted != 1+(n-1)*rounds {
		t.Errorf("proposals delivered : committed = %d : %d, want %d : %d", st.ProposalsDelivered, st.ProposalsCommitted, 1+n*rounds, 1+(n-1)*rounds)
	}
	if wantDecoded, wantReused := 1+n*rounds*perProposal, (rounds-1)*perProposal; st.BatchTxsDecoded != wantDecoded || st.BatchTxsReused != wantReused {
		t.Errorf("batch transactions decoded %d reused %d, want %d and %d", st.BatchTxsDecoded, st.BatchTxsReused, wantDecoded, wantReused)
	}
	if s := f.opts.Batches.Stats(); s.Batches > 2*n || s.IndexedTxs > 2*n*2*perProposal {
		t.Errorf("batch cache holds %d batches and %d indexed transactions, the window is %d batches", s.Batches, s.IndexedTxs, 2*n)
	}

	grown, budget := int64(after)-int64(before), int64(payloadTotal)+int64(committed)*footprintPerTx
	t.Logf("heap in use grew %.1f MB over %d payments: %.1f MB of committed payloads and %d B per payment beside them (budget %d)",
		float64(grown)/(1<<20), committed, float64(payloadTotal)/(1<<20), (grown-int64(payloadTotal))/int64(committed), footprintPerTx)
	if grown > budget {
		t.Errorf("heap in use grew by %d B, budget %d B: the dropped payloads did not leave with the cache's window", grown, budget)
	}
	runtime.KeepAlive(decisions)
}
