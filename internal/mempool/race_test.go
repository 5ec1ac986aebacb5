package mempool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/utxo"
)

// TestPoolConcurrentAdmission hammers one admission-controlled pool from
// parallel submitters and a batching/pruning loop that also reads the
// counters a metrics scrape reads. The priority index and rate buckets
// must stay coherent under -race.
func TestPoolConcurrentAdmission(t *testing.T) {
	p := NewWithPolicy(Policy{
		MaxTxs:         256,
		MaxPerAccount:  64,
		RatePerAccount: 1 << 20, // windows exercised, never limiting
		RateWindow:     time.Second,
		ReplaceBumpPct: 10,
		PriorityOrder:  true,
	})
	var clock int64
	p.SetClock(func() time.Duration {
		return time.Duration(atomic.AddInt64(&clock, 1)) * time.Millisecond
	})

	const senders = 4
	const perSender = 200
	byOwner := make([][]*utxo.Transaction, senders)
	for s := 0; s < senders; s++ {
		w := testWallet(t, int64(s)+50)
		for i := 0; i < perSender; i++ {
			tx, err := w.PayWithFee(
				[]utxo.Input{{Prev: utxo.Outpoint{TxID: fakeTxID(s, i)}, Value: 100}},
				[]utxo.Output{{Account: w.Address(), Value: 90}}, 10)
			if err != nil {
				t.Fatal(err)
			}
			byOwner[s] = append(byOwner[s], tx)
		}
	}

	var submitters sync.WaitGroup
	for s := 0; s < senders; s++ {
		submitters.Add(1)
		go func(txs []*utxo.Transaction) {
			defer submitters.Done()
			for _, tx := range txs {
				_ = p.Add(tx)
			}
		}(byOwner[s])
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// The event loop: batch, occasionally prune what it batched.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := p.Take(32)
			if i%4 == 3 && len(batch) > 0 {
				p.Prune(batch[:1])
			}
			_ = p.Len()
			_ = p.Bytes()
			_ = p.Evictions()
			_ = p.Stats()
		}
	}()

	submitters.Wait()
	close(stop)
	aux.Wait()

	if p.Len() > 256 {
		t.Errorf("pool overflowed its MaxTxs bound: %d", p.Len())
	}
	// Every pending transaction is re-add-rejectable: pending entries are
	// duplicates, pruned ones committed — never silently re-queued.
	for _, tx := range p.Take(1 << 20) {
		if err := p.Add(tx); err == nil {
			t.Fatalf("pending tx %v re-admitted", tx.ID())
		}
	}
}

// fakeTxID derives a unique fake outpoint TxID per (sender, index).
func fakeTxID(s, i int) (d [32]byte) {
	d[0] = byte(s)
	d[1] = byte(i)
	d[2] = byte(i >> 8)
	return d
}
