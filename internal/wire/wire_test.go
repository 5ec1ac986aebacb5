package wire

import (
	"bytes"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

func testWallets(t *testing.T) (*utxo.Wallet, *utxo.Wallet) {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	rand := crypto.NewDeterministicRand(7)
	kp1, err := scheme.GenerateKey(rand)
	if err != nil {
		t.Fatal(err)
	}
	kp2, err := scheme.GenerateKey(rand)
	if err != nil {
		t.Fatal(err)
	}
	return utxo.NewWallet(kp1, scheme), utxo.NewWallet(kp2, scheme)
}

func testBatch(t *testing.T, n int) []*utxo.Transaction {
	t.Helper()
	alice, bob := testWallets(t)
	txs := make([]*utxo.Transaction, 0, n)
	for i := 0; i < n; i++ {
		op := utxo.Outpoint{TxID: types.Hash([]byte{byte(i)}), Index: uint32(i)}
		tx, err := alice.Pay(
			[]utxo.Input{{Prev: op, Value: 100}},
			[]utxo.Output{{Account: bob.Address(), Value: types.Amount(1 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return txs
}

func TestBatchRoundtrip(t *testing.T) {
	txs := testBatch(t, 5)
	payload, err := EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txs) {
		t.Fatalf("decoded %d txs, want %d", len(got), len(txs))
	}
	for i := range txs {
		if got[i].ID() != txs[i].ID() {
			t.Errorf("tx %d: id %v, want %v", i, got[i].ID(), txs[i].ID())
		}
		if !bytes.Equal(got[i].Canonical(), txs[i].Canonical()) {
			t.Errorf("tx %d: canonical encodings differ", i)
		}
		if got[i].Nonce != txs[i].Nonce || len(got[i].Inputs) != len(txs[i].Inputs) ||
			len(got[i].Outputs) != len(txs[i].Outputs) {
			t.Errorf("tx %d: fields differ after roundtrip", i)
		}
	}
}

func TestBatchRoundtripEmpty(t *testing.T) {
	payload, err := EncodeBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d txs from empty batch", len(got))
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	txs := testBatch(t, 2)
	payload, err := EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("GOB0"), payload[4:]...),
		"truncated":   payload[:len(payload)-3],
		"short count": payload[:6],
		"huge count":  {'Z', 'L', 'B', '1', 0xff, 0xff, 0xff, 0xff, 0, 0},
	}
	for name, p := range cases {
		if _, err := DecodeBatch(p); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

// TestDecodeBatchToleratesVariantTag pins the gob-compatible tolerance
// the reconciliation merge depends on: the reliable-broadcast attack
// forks a proposal by appending a partition-tag byte to a valid batch
// (adversary.VariantPayload), and the merge must still extract every
// transaction from the forked payload — rejecting it would drop the
// conflicting branch's transactions instead of merging them.
func TestDecodeBatchToleratesVariantTag(t *testing.T) {
	txs := testBatch(t, 3)
	payload, err := EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	variant := append(append([]byte{}, payload...), 0x01) // partition tag
	got, err := DecodeBatch(variant)
	if err != nil {
		t.Fatalf("variant payload rejected: %v", err)
	}
	if len(got) != len(txs) {
		t.Fatalf("decoded %d txs from variant, want %d", len(got), len(txs))
	}
	for i := range txs {
		if got[i].ID() != txs[i].ID() {
			t.Errorf("tx %d: id mismatch in variant decode", i)
		}
	}
}

func TestBatchCache(t *testing.T) {
	txs := testBatch(t, 3)
	payload, err := EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBatchCache(2)
	first, err := cache.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cache.Decode(append([]byte{}, payload...)) // equal bytes, different array
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("cache did not share the decoded batch")
	}
	if cache.Hits != 1 || cache.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", cache.Hits, cache.Misses)
	}

	// FIFO eviction: two more distinct payloads push the first one out.
	for i := 0; i < 2; i++ {
		p, err := EncodeBatch(testBatch(t, i+4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cache.Decode(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cache.Decode(payload); err != nil {
		t.Fatal(err)
	}
	if cache.Misses != 4 {
		t.Errorf("misses=%d, want 4 (evicted entry re-decoded)", cache.Misses)
	}

	// A seeded batch is served as the very objects it was encoded from,
	// without a decode; seeding a cached payload changes nothing.
	own := testBatch(t, 7)
	p, err := EncodeBatch(own)
	if err != nil {
		t.Fatal(err)
	}
	cache.Seed(p, own)
	cache.Seed(payload, own)
	got, err := cache.Decode(p)
	if err != nil || &got[0] != &own[0] || cache.Misses != 4 || cache.Len() != 2 {
		t.Errorf("seeded batch: err=%v shared=%v misses=%d len=%d", err, err == nil && &got[0] == &own[0], cache.Misses, cache.Len())
	}
	if again, _ := cache.Decode(payload); len(again) != len(txs) {
		t.Errorf("seeding over a cached payload replaced its %d transactions with %d", len(txs), len(again))
	}
}

func TestPoFsRoundtrip(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindAux,
		Instance: 3,
		Slot:     1,
		Round:    2,
		Value:    accountability.BoolDigest(true),
	}
	stmtB := stmt
	stmtB.Value = accountability.BoolDigest(false)
	a, err := accountability.SignStatement(signers[1], stmt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := accountability.SignStatement(signers[1], stmtB)
	if err != nil {
		t.Fatal(err)
	}
	pof, err := accountability.NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}

	payload, err := EncodePoFs([]accountability.PoF{pof})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePoFs(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d pofs, want 1", len(got))
	}
	if !got[0].Verify(signers[0]) {
		t.Error("decoded PoF no longer verifies")
	}
	if got[0].Culprit != pof.Culprit {
		t.Errorf("culprit %v, want %v", got[0].Culprit, pof.Culprit)
	}
	if _, err := DecodePoFs(payload[:len(payload)-2]); err == nil {
		t.Error("truncated PoF payload accepted")
	}
}

func TestReplicasRoundtrip(t *testing.T) {
	ids := []types.ReplicaID{4, 7, 19}
	payload, err := EncodeReplicas(ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReplicas(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("decoded %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Errorf("id %d: %v, want %v", i, got[i], ids[i])
		}
	}
	if _, err := DecodeReplicas(payload[:len(payload)-1]); err == nil {
		t.Error("truncated replica payload accepted")
	}
}
