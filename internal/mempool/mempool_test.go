package mempool

import (
	"errors"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

func testWallet(t *testing.T, seed int64) *utxo.Wallet {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeSim)
	scheme, err := crypto.NewScheme(crypto.SchemeSim, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return utxo.NewWallet(kp, scheme)
}

func testTxs(t *testing.T, n int) []*utxo.Transaction {
	t.Helper()
	w := testWallet(t, 3)
	txs := make([]*utxo.Transaction, 0, n)
	for i := 0; i < n; i++ {
		op := utxo.Outpoint{TxID: types.Hash([]byte{byte(i)}), Index: 0}
		tx, err := w.Pay([]utxo.Input{{Prev: op, Value: 50}},
			[]utxo.Output{{Account: w.Address(), Value: 50}})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

func TestAddDedupTakePrune(t *testing.T) {
	p := New()
	txs := testTxs(t, 5)
	for i, tx := range txs {
		if err := p.Add(tx); err != nil {
			t.Fatalf("tx %d rejected: %v", i, err)
		}
		if err := p.Add(tx); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("tx %d re-add: got %v, want ErrDuplicate", i, err)
		}
	}
	if p.Len() != 5 {
		t.Fatalf("len %d, want 5", p.Len())
	}

	// Take preserves insertion order and caps at max.
	take := p.Take(3)
	if len(take) != 3 {
		t.Fatalf("took %d, want 3", len(take))
	}
	for i := range take {
		if take[i].ID() != txs[i].ID() {
			t.Errorf("take[%d] out of order", i)
		}
	}
	if got := p.Take(100); len(got) != 5 {
		t.Errorf("uncapped take returned %d, want 5", len(got))
	}

	// Prune the first three (a committed block), keep the rest in order.
	p.Prune(txs[:3])
	if p.Len() != 2 {
		t.Fatalf("len after prune %d, want 2", p.Len())
	}
	rest := p.Take(10)
	if rest[0].ID() != txs[3].ID() || rest[1].ID() != txs[4].ID() {
		t.Error("prune broke queue order")
	}

	if pending(p, txs[0].ID()) {
		t.Error("pruned tx still pending")
	}
}

// pending reports whether a transaction with the given ID is queued.
func pending(p *Pool, id types.Digest) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.pending[id]
	return ok
}

// TestCommittedDuplicateRejected checks the committed predicate: a
// transaction it reports — whether or not this pool ever queued it, and
// however long ago its block committed — is rejected with ErrCommitted
// and counted under "committed", instead of re-entering the queue and
// wasting a consensus instance. The pool keeps no committed set of its
// own: pruning a block records nothing, so a transaction the block
// carried but the predicate does not report (a ledger skips the loser of
// a double spend) is admitted again.
func TestCommittedDuplicateRejected(t *testing.T) {
	p := New()
	txs := testTxs(t, 5)
	applied := map[types.Digest]bool{txs[3].ID(): true}
	p.SetCommitted(func(id types.Digest) bool { return applied[id] })
	for _, tx := range txs[:3] {
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	// A committed block carrying transactions this pool never queued
	// (other replicas proposed them) leaves the queue untouched...
	p.Prune(txs[3:])
	p.Prune(nil)
	if p.Len() != 3 {
		t.Errorf("len %d after foreign prunes, want 3", p.Len())
	}
	// ...and the one the ledger applied is refused, however often it
	// comes back.
	for i := 0; i < 2; i++ {
		if err := p.Add(txs[3]); !errors.Is(err, ErrCommitted) {
			t.Errorf("committed foreign tx re-add: got %v, want ErrCommitted", err)
		}
	}
	if got := p.Stats().Rejects["committed"]; got != 2 {
		t.Errorf("%d committed rejects, want 2", got)
	}
	// The block also carried txs[4], which the ledger skipped: nothing
	// refuses it as committed.
	if err := p.Add(txs[4]); err != nil {
		t.Errorf("skipped tx re-add: got %v, want nil", err)
	}
	// A pending transaction the ledger then applies is refused as
	// committed, not as a duplicate: the verdict follows the predicate.
	applied[txs[0].ID()] = true
	if err := p.Add(txs[0]); !errors.Is(err, ErrCommitted) {
		t.Errorf("pending tx applied elsewhere: got %v, want ErrCommitted", err)
	}
	if p.Len() != 4 {
		t.Errorf("len %d, want 4", p.Len())
	}
}
