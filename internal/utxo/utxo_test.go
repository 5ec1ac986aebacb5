package utxo

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

func testScheme(t *testing.T) (crypto.Scheme, *crypto.Registry) {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	return scheme, reg
}

func newWallet(t *testing.T, scheme crypto.Scheme, seed int64) *Wallet {
	t.Helper()
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewWallet(kp, scheme)
}

// fund credits the wallet with one UTXO of the given value.
func fund(tbl *Table, w *Wallet, tag byte, value types.Amount) Outpoint {
	op := Outpoint{TxID: types.Hash([]byte{tag}), Index: 0}
	tbl.Credit(op, Output{Account: w.Address(), Value: value})
	return op
}

func TestPayAndApply(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	bob := newWallet(t, scheme, 2)
	tbl := NewTable()
	fund(tbl, alice, 'a', 100)

	inputs, err := tbl.InputsFor(alice.Address(), 60)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := alice.Pay(inputs, []Output{{Account: bob.Address(), Value: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Apply(tx, scheme); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Balance(bob.Address()); got != 60 {
		t.Fatalf("bob balance = %d, want 60", got)
	}
	if got := tbl.Balance(alice.Address()); got != 40 {
		t.Fatalf("alice change = %d, want 40", got)
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	bob := newWallet(t, scheme, 2)
	carol := newWallet(t, scheme, 3)
	tbl := NewTable()
	fund(tbl, alice, 'a', 100)

	inputs, _ := tbl.InputsFor(alice.Address(), 100)
	tx1, _ := alice.Pay(inputs, []Output{{Account: bob.Address(), Value: 100}})
	tx2, _ := alice.Pay(inputs, []Output{{Account: carol.Address(), Value: 100}})
	if err := tbl.Apply(tx1, scheme); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Apply(tx2, scheme); err == nil {
		t.Fatal("second spend of the same UTXO was accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	bob := newWallet(t, scheme, 2)
	mallory := newWallet(t, scheme, 66)
	tbl := NewTable()
	op := fund(tbl, alice, 'a', 100)

	t.Run("wrong owner", func(t *testing.T) {
		tx, err := mallory.Pay([]Input{{Prev: op, Value: 100}}, []Output{{Account: bob.Address(), Value: 100}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Validate(tx, scheme); err == nil {
			t.Fatal("spend of someone else's UTXO accepted")
		}
	})

	t.Run("value mismatch", func(t *testing.T) {
		tx, err := alice.Pay([]Input{{Prev: op, Value: 150}}, []Output{{Account: bob.Address(), Value: 150}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Validate(tx, scheme); err == nil {
			t.Fatal("inflated input value accepted")
		}
	})

	t.Run("tampered signature", func(t *testing.T) {
		tx, err := alice.Pay([]Input{{Prev: op, Value: 100}}, []Output{{Account: bob.Address(), Value: 100}})
		if err != nil {
			t.Fatal(err)
		}
		tx.Outputs[0].Value = 1
		tx.Outputs = append(tx.Outputs, Output{Account: mallory.Address(), Value: 99})
		tx.Invalidate() // mutated after signing: drop memoized digests
		if err := tbl.Validate(tx, scheme); err == nil {
			t.Fatal("tampered transaction accepted")
		}
	})

	t.Run("missing utxo", func(t *testing.T) {
		ghost := Outpoint{TxID: types.Hash([]byte("ghost")), Index: 9}
		tx, err := alice.Pay([]Input{{Prev: ghost, Value: 10}}, []Output{{Account: bob.Address(), Value: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Validate(tx, scheme); err == nil {
			t.Fatal("spend of non-existent UTXO accepted")
		}
	})
}

func TestCheckShape(t *testing.T) {
	tx := &Transaction{}
	if err := tx.CheckShape(); err == nil {
		t.Fatal("empty tx accepted")
	}
	tx.Inputs = []Input{{Value: 10}}
	if err := tx.CheckShape(); err == nil {
		t.Fatal("tx without outputs accepted")
	}
	tx.Outputs = []Output{{Value: 20}}
	if err := tx.CheckShape(); err == nil {
		t.Fatal("overspending tx accepted")
	}
	tx.Outputs = []Output{{Value: 0}}
	if err := tx.CheckShape(); err == nil {
		t.Fatal("zero output accepted")
	}
	tx.Outputs = []Output{{Value: 5}}
	tx.Inputs = []Input{{Value: 5}, {Value: 5}}
	tx.Inputs[1] = tx.Inputs[0]
	if err := tx.CheckShape(); err == nil {
		t.Fatal("duplicate input accepted")
	}
}

func TestTransactionSizeRealistic(t *testing.T) {
	// The paper's workload is ~400-byte Bitcoin transactions; a 2-in/2-out
	// Ed25519 transaction should be in that ballpark.
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	bob := newWallet(t, scheme, 2)
	tbl := NewTable()
	fund(tbl, alice, 'a', 70)
	op2 := Outpoint{TxID: types.Hash([]byte{'b'}), Index: 0}
	tbl.Credit(op2, Output{Account: alice.Address(), Value: 50})

	inputs, _ := tbl.InputsFor(alice.Address(), 120)
	tx, err := alice.Pay(inputs, []Output{
		{Account: bob.Address(), Value: 90},
		{Account: bob.Address(), Value: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	size := len(tx.encode(true))
	if size < 200 || size > 600 {
		t.Fatalf("2-in/2-out tx is %d bytes; want roughly 400", size)
	}
}

// TestBinaryFormIsCanonical: MarshalBinary is the canonical encoding;
// UnmarshalBinary keeps a copy of its input as the encoding, leaves the
// verdict unknown, and refuses what DecodeTransaction refuses.
func TestBinaryFormIsCanonical(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	tx, err := alice.Pay([]Input{{Prev: Outpoint{TxID: types.Hash([]byte{'a'})}, Value: 70}},
		[]Output{{Account: alice.Address(), Value: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.VerifySig(scheme); err != nil {
		t.Fatal(err)
	}
	data, err := tx.MarshalBinary()
	if err != nil || !bytes.Equal(data, tx.Canonical()) {
		t.Fatalf("MarshalBinary = %x, %v; want the canonical encoding", data, err)
	}
	buf := bytes.Clone(data)
	var got Transaction
	if err := got.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if got.ID() != tx.ID() || !bytes.Equal(got.Canonical(), data) {
		t.Fatal("the decoded transaction changed with the buffer it was decoded from")
	}
	if got.sigv != sigUnknown {
		t.Fatalf("decoded verdict %d, want unknown", got.sigv)
	}
	if err := got.UnmarshalBinary(data[:len(data)-len(tx.Sig)-1]); err == nil {
		t.Fatal("a body cut inside the sender key decodes")
	}
}

func TestInputsForSweepsDustFirst(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	tbl := NewTable()
	for i, v := range []types.Amount{50, 5, 20, 1} {
		op := Outpoint{TxID: types.Hash([]byte{byte(i)}), Index: 0}
		tbl.Credit(op, Output{Account: alice.Address(), Value: v})
	}
	inputs, err := tbl.InputsFor(alice.Address(), 25)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 5 + 20 = 26 ≥ 25: three smallest first.
	if len(inputs) != 3 {
		t.Fatalf("picked %d inputs, want 3 (dust first)", len(inputs))
	}
	if inputs[0].Value != 1 || inputs[1].Value != 5 || inputs[2].Value != 20 {
		t.Fatalf("inputs not dust-first: %+v", inputs)
	}
}

func TestConservationProperty(t *testing.T) {
	// Applying any chain of valid payments preserves total value.
	scheme, _ := testScheme(t)
	wallets := make([]*Wallet, 4)
	for i := range wallets {
		wallets[i] = newWallet(t, scheme, int64(i+1))
	}
	f := func(seed uint32, steps uint8) bool {
		tbl := NewTable()
		for i, w := range wallets {
			op := Outpoint{TxID: types.Hash([]byte{byte(i), 'g'}), Index: 0}
			tbl.Credit(op, Output{Account: w.Address(), Value: 1000})
		}
		before := tbl.TotalValue()
		s := seed
		for i := 0; i < int(steps%16)+1; i++ {
			s = s*1664525 + 1013904223
			from := wallets[s%4]
			to := wallets[(s>>8)%4]
			amount := types.Amount(s%500) + 1
			inputs, err := tbl.InputsFor(from.Address(), amount)
			if err != nil {
				continue // insufficient funds; fine
			}
			tx, err := from.Pay(inputs, []Output{{Account: to.Address(), Value: amount}})
			if err != nil {
				return false
			}
			if err := tbl.Apply(tx, scheme); err != nil {
				return false
			}
		}
		return tbl.TotalValue() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCloneIndependent(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	tbl := NewTable()
	op := fund(tbl, alice, 'a', 100)
	cp := tbl.Clone()
	tbl.Consume(op)
	if _, ok := cp.Spendable(op); !ok {
		t.Fatal("clone shares state with original")
	}
	if cp.TotalValue() != 100 {
		t.Fatalf("clone total = %d, want 100", cp.TotalValue())
	}
}

func TestNonceDistinguishesTransactions(t *testing.T) {
	scheme, _ := testScheme(t)
	alice := newWallet(t, scheme, 1)
	bob := newWallet(t, scheme, 2)
	tbl := NewTable()
	fund(tbl, alice, 'a', 100)
	inputs, _ := tbl.InputsFor(alice.Address(), 10)
	tx1, _ := alice.Pay(inputs, []Output{{Account: bob.Address(), Value: 10}})
	tx2, _ := alice.Pay(inputs, []Output{{Account: bob.Address(), Value: 10}})
	if tx1.ID() == tx2.ID() {
		t.Fatal("identical transfers with different nonces share an ID")
	}
}
