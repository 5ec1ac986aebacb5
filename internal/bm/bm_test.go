package bm

import (
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

type fixture struct {
	scheme crypto.Scheme
	alice  *utxo.Wallet
	bob    *utxo.Wallet
	carol  *utxo.Wallet
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	scheme := ed25519Scheme(t)
	mk := func(seed int64) *utxo.Wallet {
		kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return utxo.NewWallet(kp, scheme)
	}
	return &fixture{scheme: scheme, alice: mk(1), bob: mk(2), carol: mk(3)}
}

func (f *fixture) genesisLedger(t *testing.T) *Ledger {
	t.Helper()
	l := NewLedger(f.scheme)
	l.Genesis(map[utxo.Address]types.Amount{
		f.alice.Address(): 1_000_000,
	})
	return l
}

// pay builds a signed payment of amount from w against the ledger's table.
func pay(t *testing.T, l *Ledger, w *utxo.Wallet, to utxo.Address, amount types.Amount) *utxo.Transaction {
	t.Helper()
	inputs, err := l.Table().InputsFor(w.Address(), amount)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := w.Pay(inputs, []utxo.Output{{Account: to, Value: amount}})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestCommitBlockHappyPath(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	tx := pay(t, l, f.alice, f.bob.Address(), 500)
	applied := l.CommitBlock(NewBlock(1, []*utxo.Transaction{tx}))
	if applied != 1 {
		t.Fatalf("applied %d txs, want 1", applied)
	}
	if got := l.Table().Balance(f.bob.Address()); got != 500 {
		t.Fatalf("bob balance %d, want 500", got)
	}
	if !l.HasTx(tx.ID()) {
		t.Fatal("committed tx not recorded")
	}
}

// TestMergeDoubleSpendRefundsFromDeposit is the paper's Fig. 1 scenario:
// Alice double spends $1M with Bob (committed locally) and Carol (decided
// on the other branch). Merging the conflicting block funds Carol's
// payment from the slashed deposit so no honest account loses anything.
func TestMergeDoubleSpendRefundsFromDeposit(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(2_000_000) // slashed coalition stake

	// Build both spends of the same UTXO up front (the fork).
	inputs, err := l.Table().InputsFor(f.alice.Address(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	txBob, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.bob.Address(), Value: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	txCarol, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.carol.Address(), Value: 1_000_000}})
	if err != nil {
		t.Fatal(err)
	}

	// Local branch commits Bob's payment.
	l.CommitBlock(NewBlock(1, []*utxo.Transaction{txBob}))
	// The conflicting branch decided Carol's payment; reconciliation
	// merges it.
	conflicting := NewBlock(1, []*utxo.Transaction{txCarol})
	if !l.Conflicts(conflicting) {
		t.Fatal("conflicting block not detected as a fork")
	}
	merged := l.MergeBlock(conflicting)
	if merged != 1 {
		t.Fatalf("merged %d txs, want 1", merged)
	}

	if got := l.Table().Balance(f.bob.Address()); got != 1_000_000 {
		t.Fatalf("bob lost funds: %d", got)
	}
	if got := l.Table().Balance(f.carol.Address()); got != 1_000_000 {
		t.Fatalf("carol not refunded: %d", got)
	}
	// The deposit covered the double spend.
	if got := l.Deposit(); got != 1_000_000 {
		t.Fatalf("deposit = %d, want 1_000_000 (2M minus 1M funding)", got)
	}
	if l.DepositFundedTxs != 1 {
		t.Fatalf("DepositFundedTxs = %d, want 1", l.DepositFundedTxs)
	}
}

func TestMergeIdempotent(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(2_000_000)
	tx := pay(t, l, f.alice, f.bob.Address(), 100)
	b := NewBlock(1, []*utxo.Transaction{tx})
	if got := l.MergeBlock(b); got != 1 {
		t.Fatalf("first merge applied %d", got)
	}
	if got := l.MergeBlock(b); got != 0 {
		t.Fatalf("second merge applied %d, want 0", got)
	}
	if got := l.Table().Balance(f.bob.Address()); got != 100 {
		t.Fatalf("bob balance %d after re-merge, want 100", got)
	}
}

// TestRefundInputsReplenishesDeposit exercises Alg. 2 lines 24-28: an
// input funded from the deposit becomes spendable once its producing
// branch merges later, and the deposit is refilled.
func TestRefundInputsReplenishesDeposit(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(1_000_000)

	// Branch A (remote): Alice pays Bob 600; Bob pays Carol 600.
	remote := NewLedger(f.scheme)
	remote.Genesis(map[utxo.Address]types.Amount{f.alice.Address(): 1_000_000})
	txAB := pay(t, remote, f.alice, f.bob.Address(), 600)
	remote.CommitBlock(NewBlock(1, []*utxo.Transaction{txAB}))
	txBC := pay(t, remote, f.bob, f.carol.Address(), 600)
	remote.CommitBlock(NewBlock(2, []*utxo.Transaction{txBC}))

	// Local branch: nothing committed. Merge block 2 FIRST (out of
	// order): Bob's input is unknown here → funded from the deposit.
	l.MergeBlock(NewBlock(2, []*utxo.Transaction{txBC}))
	if got := l.Deposit(); got != 1_000_000-600 {
		t.Fatalf("deposit after out-of-order merge = %d, want 999400", got)
	}
	// Now merge block 1: Bob's funding tx arrives; the remembered input
	// becomes spendable and the deposit is refunded.
	l.MergeBlock(NewBlock(1, []*utxo.Transaction{txAB}))
	if got := l.Deposit(); got != 1_000_000 {
		t.Fatalf("deposit after refund = %d, want 1_000_000", got)
	}
	if l.Refunds != 1 {
		t.Fatalf("refunds = %d, want 1", l.Refunds)
	}
	if got := l.Table().Balance(f.carol.Address()); got != 600 {
		t.Fatalf("carol balance %d, want 600", got)
	}
}

func TestPunishedAccountConfiscation(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(0)

	// Bob is a deceitful replica's account holding funds.
	tx := pay(t, l, f.alice, f.bob.Address(), 300)
	l.CommitBlock(NewBlock(1, []*utxo.Transaction{tx}))
	l.PunishAccount(f.bob.Address())
	if got := l.Table().Balance(f.bob.Address()); got != 0 {
		t.Fatalf("punished account keeps %d", got)
	}
	if got := l.Deposit(); got != 300 {
		t.Fatalf("deposit %d, want 300 confiscated", got)
	}

	// New outputs to Bob in merged blocks are confiscated too (Alg. 2
	// lines 12-14).
	tx2 := pay(t, l, f.alice, f.bob.Address(), 200)
	l.MergeBlock(NewBlock(2, []*utxo.Transaction{tx2}))
	if got := l.Table().Balance(f.bob.Address()); got != 0 {
		t.Fatalf("merged output to punished account survived: %d", got)
	}
	if got := l.Deposit(); got != 500 {
		t.Fatalf("deposit %d, want 500", got)
	}
}

func TestMergeRejectsInvalidSignatures(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(1_000_000)
	tx := pay(t, l, f.alice, f.bob.Address(), 100)
	tx.Sig = append(crypto.Signature(nil), tx.Sig...)
	tx.Sig[0] ^= 0xff
	if got := l.MergeBlock(NewBlock(1, []*utxo.Transaction{tx})); got != 0 {
		t.Fatalf("merged %d invalid txs", got)
	}
}

func TestZeroLossInvariant(t *testing.T) {
	// After an arbitrary double-spend fork and merge, no honest account
	// ends with less than it would have had on its own branch.
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(5_000_000)

	inputs, err := l.Table().InputsFor(f.alice.Address(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	spends := make([]*utxo.Transaction, 3)
	recipients := []*utxo.Wallet{f.bob, f.carol, f.bob}
	for i := range spends {
		tx, err := f.alice.Pay(inputs, []utxo.Output{{Account: recipients[i].Address(), Value: 1_000_000}})
		if err != nil {
			t.Fatal(err)
		}
		spends[i] = tx
	}
	l.CommitBlock(NewBlock(1, []*utxo.Transaction{spends[0]}))
	l.MergeBlock(NewBlock(1, []*utxo.Transaction{spends[1]}))
	l.MergeBlock(NewBlock(1, []*utxo.Transaction{spends[2]}))

	if got := l.Table().Balance(f.bob.Address()); got != 2_000_000 {
		t.Fatalf("bob = %d, want 2_000_000 across branches", got)
	}
	if got := l.Table().Balance(f.carol.Address()); got != 1_000_000 {
		t.Fatalf("carol = %d, want 1_000_000", got)
	}
	// Attack cost was funded entirely by the deposit: 2M extra spend.
	if got := l.Deposit(); got != 3_000_000 {
		t.Fatalf("deposit = %d, want 3_000_000", got)
	}
}

func TestBlockDigestDeterminism(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	tx := pay(t, l, f.alice, f.bob.Address(), 10)
	b1 := NewBlock(1, []*utxo.Transaction{tx})
	b2 := NewBlock(1, []*utxo.Transaction{tx})
	if b1.Digest != b2.Digest {
		t.Fatal("same block yields different digests")
	}
	b3 := NewBlock(2, []*utxo.Transaction{tx})
	if b1.Digest == b3.Digest {
		t.Fatal("different index, same digest")
	}
}
