package mempool

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// feeTx builds a self-payment from w with the given fee and nonce-unique
// shape: inputs cover value+fee, the fee stays unclaimed.
func feeTx(t *testing.T, w *utxo.Wallet, salt byte, value, fee types.Amount) *utxo.Transaction {
	t.Helper()
	op := utxo.Outpoint{TxID: types.Hash([]byte{salt}), Index: 0}
	tx, err := w.PayWithFee([]utxo.Input{{Prev: op, Value: value + fee}},
		[]utxo.Output{{Account: w.Address(), Value: value}}, fee)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// wideTx is feeTx with two inputs: a larger canonical encoding, so fee
// rate (fee per byte) differs from absolute fee.
func wideTx(t *testing.T, w *utxo.Wallet, salt byte, value, fee types.Amount) *utxo.Transaction {
	t.Helper()
	half := (value + fee) / 2
	tx, err := w.PayWithFee([]utxo.Input{
		{Prev: utxo.Outpoint{TxID: types.Hash([]byte{salt, 1})}, Value: half},
		{Prev: utxo.Outpoint{TxID: types.Hash([]byte{salt, 2})}, Value: value + fee - half},
	}, []utxo.Output{{Account: w.Address(), Value: value}}, fee)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func takeIDs(p *Pool) []types.Digest {
	txs := p.Take(1 << 20)
	ids := make([]types.Digest, len(txs))
	for i, tx := range txs {
		ids[i] = tx.ID()
	}
	return ids
}

// TestAdmissionPolicyTable drives the individual admission rules.
func TestAdmissionPolicyTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"min fee floor", func(t *testing.T) {
			p := NewWithPolicy(Policy{MinFee: 10})
			w := testWallet(t, 1)
			if err := p.Add(feeTx(t, w, 1, 100, 9)); !errors.Is(err, ErrFeeTooLow) {
				t.Errorf("fee 9 under floor 10: got %v, want ErrFeeTooLow", err)
			}
			if err := p.Add(feeTx(t, w, 2, 100, 10)); err != nil {
				t.Errorf("fee at floor rejected: %v", err)
			}
		}},
		{"per-account cap", func(t *testing.T) {
			p := NewWithPolicy(Policy{MaxPerAccount: 2})
			w1, w2 := testWallet(t, 1), testWallet(t, 2)
			a := feeTx(t, w1, 1, 100, 1)
			b := feeTx(t, w1, 2, 100, 1)
			for _, tx := range []*utxo.Transaction{a, b} {
				if err := p.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Add(feeTx(t, w1, 3, 100, 1)); !errors.Is(err, ErrAccountCap) {
				t.Errorf("third pending of one sender: got %v, want ErrAccountCap", err)
			}
			// Other senders are unaffected.
			if err := p.Add(feeTx(t, w2, 1, 100, 1)); err != nil {
				t.Errorf("other sender capped: %v", err)
			}
			// A committed block frees the sender's quota.
			p.Prune([]*utxo.Transaction{a})
			if err := p.Add(feeTx(t, w1, 4, 100, 1)); err != nil {
				t.Errorf("post-prune admission: %v", err)
			}
		}},
		{"per-account rate limit", func(t *testing.T) {
			p := NewWithPolicy(Policy{RatePerAccount: 2, RateWindow: time.Second})
			var now time.Duration
			p.SetClock(func() time.Duration { return now })
			w := testWallet(t, 1)
			for i := byte(0); i < 2; i++ {
				if err := p.Add(feeTx(t, w, i, 100, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Add(feeTx(t, w, 2, 100, 1)); !errors.Is(err, ErrRateLimited) {
				t.Errorf("third admission in window: got %v, want ErrRateLimited", err)
			}
			// The next window admits again; rejects did not consume quota.
			now = 1100 * time.Millisecond
			if err := p.Add(feeTx(t, w, 3, 100, 1)); err != nil {
				t.Errorf("fresh window admission: %v", err)
			}
		}},
		{"replacement by fee", func(t *testing.T) {
			p := NewWithPolicy(Policy{ReplaceBumpPct: 10, MaxPerAccount: 1})
			w := testWallet(t, 1)
			old := feeTx(t, w, 1, 100, 100)
			if err := p.Add(old); err != nil {
				t.Fatal(err)
			}
			// Same (sender, nonce) slot, insufficient bump: 109 < 110.
			under := feeTx(t, w, 2, 100, 109)
			under.Nonce = old.Nonce
			under.Invalidate()
			if err := p.Add(under); !errors.Is(err, ErrReplaceUnderpriced) {
				t.Errorf("9%% bump: got %v, want ErrReplaceUnderpriced", err)
			}
			// Sufficient bump replaces the incumbent — and does so within
			// MaxPerAccount=1: a replacement is not a second pending tx.
			repl := feeTx(t, w, 3, 100, 110)
			repl.Nonce = old.Nonce
			repl.Invalidate()
			if err := p.Add(repl); err != nil {
				t.Fatalf("10%% bump rejected: %v", err)
			}
			if p.Len() != 1 {
				t.Fatalf("len %d after replacement, want 1", p.Len())
			}
			if ids := takeIDs(p); len(ids) != 1 || ids[0] != repl.ID() {
				t.Error("replacement did not swap the pending entry")
			}
			if pending(p, old.ID()) {
				t.Error("replaced tx still pending")
			}
			if p.Evictions() != 1 {
				t.Errorf("evictions %d, want 1", p.Evictions())
			}
		}},
		{"count-bounded eviction order", func(t *testing.T) {
			p := NewWithPolicy(Policy{MaxTxs: 3, PriorityOrder: true})
			w := testWallet(t, 1)
			lo := feeTx(t, w, 1, 100, 10)
			mid := feeTx(t, w, 2, 100, 20)
			hi := feeTx(t, w, 3, 100, 30)
			for _, tx := range []*utxo.Transaction{mid, lo, hi} {
				if err := p.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
			// A newcomer below the floor bounces; the pool is unchanged.
			if err := p.Add(feeTx(t, w, 4, 100, 5)); !errors.Is(err, ErrPoolFull) {
				t.Errorf("low-fee newcomer on full pool: got %v, want ErrPoolFull", err)
			}
			// A better-paying newcomer evicts exactly the worst entry.
			top := feeTx(t, w, 5, 100, 40)
			if err := p.Add(top); err != nil {
				t.Fatalf("high-fee newcomer rejected: %v", err)
			}
			want := []types.Digest{top.ID(), hi.ID(), mid.ID()}
			got := takeIDs(p)
			if len(got) != len(want) {
				t.Fatalf("len %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("priority order [%d]: got %v, want %v", i, got[i], want[i])
				}
			}
			if pending(p, lo.ID()) {
				t.Error("evicted tx still pending")
			}
		}},
		{"byte-bounded eviction", func(t *testing.T) {
			w := testWallet(t, 1)
			one := feeTx(t, w, 1, 100, 1)
			sz := int64(one.CanonicalSize())
			p := NewWithPolicy(Policy{MaxBytes: 2 * sz})
			if err := p.Add(one); err != nil {
				t.Fatal(err)
			}
			if err := p.Add(feeTx(t, w, 2, 100, 2)); err != nil {
				t.Fatal(err)
			}
			if err := p.Add(feeTx(t, w, 3, 100, 3)); err != nil {
				t.Fatalf("byte eviction rejected better payer: %v", err)
			}
			if p.Len() != 2 || p.Bytes() != 2*sz {
				t.Errorf("pool %d txs / %d bytes, want 2 / %d", p.Len(), p.Bytes(), 2*sz)
			}
			if pending(p, one.ID()) {
				t.Error("lowest-fee entry survived byte eviction")
			}
		}},
		{"fee rate beats absolute fee", func(t *testing.T) {
			p := NewWithPolicy(Policy{PriorityOrder: true})
			w := testWallet(t, 1)
			small := feeTx(t, w, 1, 100, 20) // 1-input encoding
			big := wideTx(t, w, 2, 100, 25)  // 2-input encoding, higher fee
			if big.CanonicalSize() <= small.CanonicalSize() {
				t.Fatal("wideTx not larger than feeTx")
			}
			if err := p.Add(big); err != nil {
				t.Fatal(err)
			}
			if err := p.Add(small); err != nil {
				t.Fatal(err)
			}
			// 20 per ~128B outranks 25 per ~172B.
			ids := takeIDs(p)
			if ids[0] != small.ID() {
				t.Error("higher fee rate must outrank higher absolute fee")
			}
		}},
		{"arrival order preserved without PriorityOrder", func(t *testing.T) {
			p := NewWithPolicy(Policy{MaxTxs: 10})
			w := testWallet(t, 1)
			a := feeTx(t, w, 1, 100, 30)
			b := feeTx(t, w, 2, 100, 10)
			for _, tx := range []*utxo.Transaction{a, b} {
				if err := p.Add(tx); err != nil {
					t.Fatal(err)
				}
			}
			ids := takeIDs(p)
			if ids[0] != a.ID() || ids[1] != b.ID() {
				t.Error("bounded pool without PriorityOrder must keep arrival order")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestAdmissionOrderIndependentOfMapIteration is the determinism
// property test: two pools fed the identical admission sequence must
// produce identical verdicts, batch order and eviction counts — no
// decision may leak Go map iteration order (each map's iteration order
// differs between the two pools and between -count=10 repetitions).
func TestAdmissionOrderIndependentOfMapIteration(t *testing.T) {
	policy := Policy{
		MaxTxs:         24,
		MaxPerAccount:  5,
		RatePerAccount: 7,
		RateWindow:     time.Second,
		MinFee:         1,
		ReplaceBumpPct: 10,
		PriorityOrder:  true,
	}
	wallets := make([]*utxo.Wallet, 6)
	for i := range wallets {
		wallets[i] = testWallet(t, int64(i)+100)
	}
	// One deterministic admission sequence: senders interleaved, fees
	// cycling, occasional same-nonce replacements. Transactions are
	// built once and shared by both pools (exactly how a cluster's n
	// pools share pointers).
	var seq []*utxo.Transaction
	for i := 0; i < 120; i++ {
		w := wallets[i%len(wallets)]
		fee := types.Amount(1 + (i*7)%40)
		tx := feeTx(t, w, byte(i), 100, fee)
		seq = append(seq, tx)
		if i%11 == 3 {
			repl := feeTx(t, w, byte(i)+200, 100, fee*2)
			repl.Nonce = tx.Nonce
			repl.Invalidate()
			seq = append(seq, repl)
		}
	}
	run := func() ([]string, []types.Digest, uint64) {
		p := NewWithPolicy(policy)
		var now time.Duration
		p.SetClock(func() time.Duration { return now })
		verdicts := make([]string, 0, len(seq))
		for i, tx := range seq {
			now = time.Duration(i) * 40 * time.Millisecond
			verdicts = append(verdicts, fmt.Sprint(p.Add(tx)))
		}
		return verdicts, takeIDs(p), p.Evictions()
	}
	v1, ids1, ev1 := run()
	v2, ids2, ev2 := run()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d diverged: %q vs %q", i, v1[i], v2[i])
		}
	}
	if len(ids1) != len(ids2) {
		t.Fatalf("batch sizes diverged: %d vs %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("batch order diverged at %d", i)
		}
	}
	if ev1 != ev2 {
		t.Fatalf("eviction counts diverged: %d vs %d", ev1, ev2)
	}
}
