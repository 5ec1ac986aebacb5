package main

import (
	"runtime"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/obs"
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

// TestReproposedTransactionsCommitAsFirstDecoded replays what the
// sharded workload does to one node (every transaction goes to one
// replica, so the four proposals of an instance are disjoint): each
// instance delivers four proposals and selects three, and the owner of
// the dropped one proposes its transactions again one instance later, in
// front of its new ones, as a payload with different bytes. Those
// transactions must come out of the batch cache, and so reach the commit,
// as the objects the first delivery decoded and verified; the four
// counters must read 4 : 3 and a quarter reused; and the dropped payloads,
// which the reused objects alias, must leave with the cache's window: the
// heap may grow by the committed payloads plus footprintPerTx per payment,
// the budget of TestCommittedHistoryFootprint.
func TestReproposedTransactionsCommitAsFirstDecoded(t *testing.T) {
	if testing.Short() {
		t.Skip("signs and verifies 40000 payments")
	}
	const n, rounds, perProposal = 4, 40, 250
	nodes, addrs := startCluster(t, n, 29, func(_ int, cfg *nodeConfig) { cfg.LogLevel = obs.LevelWarn })
	rn := nodes[0] // its peers have nothing to propose and stay idle
	onLoop := func(fn func()) {
		done := make(chan struct{})
		rn.node.Do(func() {
			fn()
			close(done)
		})
		<-done
	}
	decide := func(k uint64, payloads map[types.ReplicaID][]byte) *sbc.Decision {
		d := &sbc.Decision{
			Instance:  types.Instance(k),
			Bits:      make(map[types.ReplicaID]bool, len(payloads)),
			Proposals: make(map[types.ReplicaID]sbc.ProposalInfo, len(payloads)),
		}
		for id, p := range payloads {
			d.Bits[id] = true
			d.Proposals[id] = sbc.ProposalInfo{Broadcaster: id, Payload: p, Digest: types.Hash(p)}
		}
		return d
	}

	// Block 1 splits the faucet between four payers, one per proposer, so
	// that each proposer's payments chain among themselves only.
	faucet := newTestClient(t, 29, addrs)
	payers := make([]*testClient, n)
	outs := make([]utxo.Output, n)
	for s := range payers {
		kp, err := rn.txScheme.GenerateKey(crypto.NewDeterministicRand(int64(100 + s)))
		if err != nil {
			t.Fatal(err)
		}
		payers[s] = &testClient{t: t, faucet: utxo.NewWallet(kp, rn.txScheme)}
		outs[s] = utxo.Output{Account: payers[s].faucet.Address(), Value: 1_000_000}
	}
	split, err := faucet.faucet.Pay([]utxo.Input{faucet.prev}, outs)
	if err != nil {
		t.Fatal(err)
	}
	for s, p := range payers {
		p.prev = utxo.Input{Prev: utxo.Outpoint{TxID: split.ID(), Index: uint32(s)}, Value: outs[s].Value}
	}
	first, err := wire.EncodeBatch([]*utxo.Transaction{split})
	if err != nil {
		t.Fatal(err)
	}
	decisions := []*sbc.Decision{decide(1, map[types.ReplicaID][]byte{1: first})}
	onLoop(func() {
		rn.onProposal(1, first)
		rn.onCommit(1, 0, decisions[0])
	})

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
			if payloads[s], err = wire.EncodeBatch(txs); err != nil {
				t.Fatal(err)
			}
			if s == dropped {
				droppedTxs = txs
			} else {
				committed += len(txs)
				payloadTotal += len(payloads[s])
			}
		}
		onLoop(func() {
			for _, p := range payloads {
				rn.onProposal(k, p)
			}
		})

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
			for _, tx := range blockFrom(k, d, rn.batches).Txs {
				inBlock[tx] = true
			}
			for i, tx := range decoded {
				if !inBlock[tx] {
					t.Fatalf("instance %d: re-proposed transaction %d reaches the commit as a second object", k, i)
				}
				if err := tx.VerifySig(noVerifyScheme{rn.txScheme, t}); err != nil {
					t.Fatalf("instance %d: re-proposed transaction %d: %v", k, i, err)
				}
			}
		}

		// The first delivery of what this instance drops: decoded and
		// verified now, by the speculation or (where the pool dropped the
		// task) by what stands in for it here.
		if decoded, err = rn.batches.Decode(payloads[dropped]); err != nil {
			t.Fatal(err)
		}
		for _, tx := range decoded {
			if err := tx.VerifySig(rn.txScheme); err != nil {
				t.Fatal(err)
			}
		}
		carried = droppedTxs

		onLoop(func() { rn.onCommit(k, 0, d) })
		decisions = append(decisions, d)
	}
	carried, decoded = nil, nil
	after := heapInUse()

	if got := rn.metrics.txApplied.Value(); got != uint64(committed) {
		t.Errorf("applied %d payments, want %d", got, committed)
	}
	st := rn.statusSnapshot().Pipeline
	if st.ProposalsDelivered != 1+n*rounds || st.ProposalsCommitted != 1+(n-1)*rounds {
		t.Errorf("proposals delivered : committed = %d : %d, want %d : %d", st.ProposalsDelivered, st.ProposalsCommitted, 1+n*rounds, 1+(n-1)*rounds)
	}
	if wantDecoded, wantReused := 1+n*rounds*perProposal, (rounds-1)*perProposal; st.BatchTxsDecoded != wantDecoded || st.BatchTxsReused != wantReused {
		t.Errorf("batch transactions decoded %d reused %d, want %d and %d", st.BatchTxsDecoded, st.BatchTxsReused, wantDecoded, wantReused)
	}
	if s := rn.batches.Stats(); s.Batches > 2*n || s.IndexedTxs > 2*n*2*perProposal {
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
