package utxo

import (
	"bytes"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

func signedTx(t *testing.T) *Transaction {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(5))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWallet(kp, scheme)
	op := Outpoint{TxID: types.Hash([]byte("prev")), Index: 1}
	tx, err := w.Pay([]Input{{Prev: op, Value: 100}},
		[]Output{{Account: w.Address(), Value: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestTransactionIDZeroAllocsWhenCached is the perf regression guard for
// the digest memoization: after the first computation, ID and SigDigest
// must be free.
func TestTransactionIDZeroAllocsWhenCached(t *testing.T) {
	tx := signedTx(t)
	want := tx.ID()
	wantSD := tx.SigDigest()
	var got types.Digest
	if allocs := testing.AllocsPerRun(100, func() {
		got = tx.ID()
	}); allocs != 0 {
		t.Errorf("cached ID allocates %.1f objects per call, want 0", allocs)
	}
	if got != want {
		t.Error("cached ID changed value")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		got = tx.SigDigest()
	}); allocs != 0 {
		t.Errorf("cached SigDigest allocates %.1f objects per call, want 0", allocs)
	}
	if got != wantSD {
		t.Error("cached SigDigest changed value")
	}
}

func TestDecodeTransactionRoundtrip(t *testing.T) {
	tx := signedTx(t)
	enc := tx.Canonical()
	got, err := DecodeTransaction(append([]byte{}, enc...))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() {
		t.Errorf("id %v, want %v", got.ID(), tx.ID())
	}
	if got.SigDigest() != tx.SigDigest() {
		t.Errorf("sig digest mismatch after roundtrip")
	}
	if !bytes.Equal(got.Canonical(), enc) {
		t.Error("re-encoding differs")
	}
	if got.Nonce != tx.Nonce || len(got.Inputs) != 1 || len(got.Outputs) != 2 {
		t.Error("fields differ after roundtrip")
	}
	if got.Inputs[0] != tx.Inputs[0] {
		t.Errorf("input %v, want %v", got.Inputs[0], tx.Inputs[0])
	}

	// Truncations at every boundary must error, not panic.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeTransaction(enc[:cut]); err == nil && cut < len(enc)-len(tx.Sig) {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestInvalidateRecomputes(t *testing.T) {
	tx := signedTx(t)
	before := tx.ID()
	tx.Outputs[0].Value++
	tx.Invalidate()
	if tx.ID() == before {
		t.Error("ID unchanged after mutation + Invalidate")
	}
}

// TestSigDigestIsHashOfSignaturelessEncoding pins SigDigest, which hashes
// a prefix of the canonical encoding, to the hash of the transaction
// encoded without its signature: for constructed and decoded
// transactions under ed25519 and ecdsa, for signatures of any length (the
// field is the unframed remainder of the encoding), and again after
// Invalidate.
func TestSigDigestIsHashOfSignaturelessEncoding(t *testing.T) {
	for _, kind := range []crypto.SchemeKind{crypto.SchemeEd25519, crypto.SchemeECDSA} {
		scheme, err := crypto.NewScheme(kind, crypto.NewRegistry(kind))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 16; seed++ {
			w := newWallet(t, scheme, seed)
			tx, err := w.Pay([]Input{{Prev: Outpoint{TxID: types.Hash([]byte("prev")), Index: uint32(seed)}, Value: 100}},
				[]Output{{Account: w.Address(), Value: 60}})
			if err != nil {
				t.Fatal(err)
			}
			want := types.Hash(tx.encode(false))
			if tx.SigDigest() != want {
				t.Fatalf("%v seed %d: constructed SigDigest differs from the hash of the signatureless encoding", kind, seed)
			}
			if !bytes.Equal(tx.Canonical(), tx.encode(true)) {
				t.Fatalf("%v seed %d: signing memoized an encoding without the signature", kind, seed)
			}
			dec, err := DecodeTransaction(append([]byte{}, tx.Canonical()...))
			if err != nil {
				t.Fatal(err)
			}
			if dec.SigDigest() != want {
				t.Fatalf("%v seed %d: decoded SigDigest differs from the hash of the signatureless encoding", kind, seed)
			}
			if err := dec.VerifySig(scheme); err != nil {
				t.Fatalf("%v seed %d: decoded transaction rejected: %v", kind, seed, err)
			}

			dec.Nonce++
			dec.Invalidate()
			if got := dec.SigDigest(); got == want || got != types.Hash(dec.encode(false)) {
				t.Fatalf("%v seed %d: SigDigest not recomputed after Invalidate", kind, seed)
			}
			if err := dec.VerifySig(scheme); err == nil {
				t.Fatalf("%v seed %d: mutated transaction still verifies", kind, seed)
			}
		}
	}

	for _, sigLen := range []int{0, 1, 63, 72, 200} {
		tx := signedTx(t)
		tx.Sig = bytes.Repeat([]byte{0xA5}, sigLen)
		tx.Invalidate()
		want := types.Hash(tx.encode(false))
		if tx.SigDigest() != want {
			t.Errorf("%d-byte signature: constructed SigDigest differs", sigLen)
		}
		dec, err := DecodeTransaction(tx.encode(true))
		if err != nil {
			t.Fatal(err)
		}
		if dec.SigDigest() != want || len(dec.Sig) != sigLen {
			t.Errorf("%d-byte signature: decoded SigDigest differs (decoded %d signature bytes)", sigLen, len(dec.Sig))
		}
	}
}

// TestInputsForOrderMatchesSeed verifies the single-sort selection picks
// the same inputs (dust first, ties by outpoint) as the seed tree's
// sort-then-stable-sort pair.
func TestInputsForOrderMatchesSeed(t *testing.T) {
	tbl := NewTable()
	var addr Address
	addr[0] = 1
	// Three 5-coin UTXOs with distinct outpoints plus one 50-coin UTXO.
	ops := []Outpoint{
		{TxID: types.Hash([]byte("c")), Index: 0},
		{TxID: types.Hash([]byte("a")), Index: 2},
		{TxID: types.Hash([]byte("a")), Index: 1},
	}
	for _, op := range ops {
		tbl.Credit(op, Output{Account: addr, Value: 5})
	}
	big := Outpoint{TxID: types.Hash([]byte("b")), Index: 0}
	tbl.Credit(big, Output{Account: addr, Value: 50})

	picked, err := tbl.InputsFor(addr, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Dust sweep: all three 5-coin outputs, ordered by (TxID, Index).
	if len(picked) != 3 {
		t.Fatalf("picked %d inputs, want 3", len(picked))
	}
	for i := 1; i < len(picked); i++ {
		a, b := picked[i-1].Prev, picked[i].Prev
		if b.TxID.Less(a.TxID) || (a.TxID == b.TxID && b.Index < a.Index) {
			t.Errorf("inputs out of deterministic order at %d: %v then %v", i, a, b)
		}
	}
	if _, err := tbl.InputsFor(addr, 1_000); err == nil {
		t.Error("underfunded request accepted")
	}
}

func TestBalanceRunning(t *testing.T) {
	tbl := NewTable()
	var addr Address
	addr[0] = 2
	op1 := Outpoint{TxID: types.Hash([]byte("x")), Index: 0}
	op2 := Outpoint{TxID: types.Hash([]byte("y")), Index: 0}
	tbl.Credit(op1, Output{Account: addr, Value: 30})
	tbl.Credit(op2, Output{Account: addr, Value: 12})
	tbl.Credit(op2, Output{Account: addr, Value: 999}) // duplicate: ignored
	if got := tbl.Balance(addr); got != 42 {
		t.Fatalf("balance %d, want 42", got)
	}
	tbl.Consume(op1)
	if got := tbl.Balance(addr); got != 12 {
		t.Fatalf("balance after consume %d, want 12", got)
	}
	tbl.Consume(op2)
	if got := tbl.Balance(addr); got != 0 {
		t.Fatalf("balance after drain %d, want 0", got)
	}
}
