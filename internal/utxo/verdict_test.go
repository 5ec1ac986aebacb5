package utxo

import (
	"sync"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// TestVerifySigVerdictMemoized pins the atomic signature-verdict memo:
// concurrent verifies agree, and Invalidate resets the verdict so a
// mutated transaction re-verifies.
func TestVerifySigVerdictMemoized(t *testing.T) {
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(17))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWallet(kp, scheme)
	tx, err := w.Pay(
		[]Input{{Prev: Outpoint{TxID: types.Hash([]byte("prev")), Index: 0}, Value: 100}},
		[]Output{{Account: w.Address(), Value: 60}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tx.VerifySig(scheme); err != nil {
				t.Errorf("valid signature rejected: %v", err)
			}
		}()
	}
	wg.Wait()
	tx.Outputs[0].Value++
	tx.Invalidate()
	if err := tx.VerifySig(scheme); err == nil {
		t.Error("mutated transaction still verifies after Invalidate")
	}
}
