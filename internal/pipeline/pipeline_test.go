package pipeline

import (
	"sync/atomic"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

func TestPoolMapCoversAllIndices(t *testing.T) {
	pools := map[string]*Pool{
		"shared":     Shared(),
		"sequential": nil,
		"two":        NewPool(2),
	}
	for name, p := range pools {
		t.Run(name, func(t *testing.T) {
			const n = 1000
			var hits [n]int32
			p.Map(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i := range hits {
				if hits[i] != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, hits[i])
				}
			}
		})
	}
}

// TestPoolMapNested guards against deadlock when a worker task itself
// fans out: the caller always participates, so Map completes even when
// every worker is busy.
func TestPoolMapNested(t *testing.T) {
	p := NewPool(2)
	var total atomic.Int32
	p.Map(8, func(int) {
		p.Map(8, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested map ran %d tasks, want 64", got)
	}
}

func TestTryDoDropsWhenSequential(t *testing.T) {
	var p *Pool
	if p.TryDo(func() { t.Fatal("nil pool ran a task") }) {
		t.Fatal("nil pool accepted a task")
	}
}

func paymentTx(t *testing.T, seed int64) (*utxo.Transaction, crypto.Scheme) {
	t.Helper()
	reg := crypto.NewRegistry(crypto.SchemeEd25519)
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, reg)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	w := utxo.NewWallet(kp, scheme)
	tx, err := w.Pay(
		[]utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("prev")), Index: 0}, Value: 100}},
		[]utxo.Output{{Account: w.Address(), Value: 100}})
	if err != nil {
		t.Fatal(err)
	}
	return tx, scheme
}

// TestPreverifyPublishesVerdicts checks the speculative path end to end:
// after SpeculateBatch the commit-time VerifySig returns the same verdict
// the inline check computes, for valid and forged transactions alike, and
// publishes it — each transaction reaches the scheme once, however often
// the commit asks.
func TestPreverifyPublishesVerdicts(t *testing.T) {
	good, inner := paymentTx(t, 11)
	bad, _ := paymentTx(t, 12)
	bad.Sig = append([]byte{}, bad.Sig...)
	bad.Sig[0] ^= 0x80
	bad.Invalidate()
	payload, err := wire.EncodeBatch([]*utxo.Transaction{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	scheme := &countingScheme{Scheme: inner}
	cache := wire.NewBatchCache(0)
	NewTxVerifier(Shared(), scheme).SpeculateBatch(payload, cache)
	txs, err := cache.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 {
		t.Fatalf("decoded %d txs, want 2", len(txs))
	}
	for range 2 {
		if err := txs[0].VerifySig(scheme); err != nil {
			t.Fatalf("valid tx rejected: %v", err)
		}
		if err := txs[1].VerifySig(scheme); err == nil {
			t.Fatal("forged tx accepted")
		}
	}
	if got := scheme.verifies.Load(); got != 2 {
		t.Fatalf("%d signature checks for 2 transactions, want 2", got)
	}
}

func TestSpeculateBatchWarmsCache(t *testing.T) {
	tx, scheme := paymentTx(t, 13)
	payload, err := wire.EncodeBatch([]*utxo.Transaction{tx})
	if err != nil {
		t.Fatal(err)
	}
	cache := wire.NewBatchCache(0)
	tv := NewTxVerifier(Shared(), scheme)
	tv.SpeculateBatch(payload, cache)
	txs, err := cache.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("decoded %d txs, want 1", len(txs))
	}
	if err := txs[0].VerifySig(scheme); err != nil {
		t.Fatalf("speculated batch tx rejected: %v", err)
	}
	// Garbage payloads must not poison anything.
	tv.SpeculateBatch([]byte("not a batch"), cache)
}

// countingScheme counts the signature checks that reach the scheme.
type countingScheme struct {
	crypto.Scheme
	verifies atomic.Int64
}

func (s *countingScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.verifies.Add(1)
	return s.Scheme.Verify(pub, digest, sig)
}

// TestSpeculateBatchVerifiesEachTransactionOnce speculates the four
// proposals of one superblock in the broadcast shape — overlapping, not
// byte-identical, each replica having taken a slightly different slice of
// the same client traffic — and then commits them. Every distinct
// transaction must reach the scheme exactly once, however many payloads
// carry it.
func TestSpeculateBatchVerifiesEachTransactionOnce(t *testing.T) {
	const distinct, n = 40, 4
	inner, err := crypto.NewScheme(crypto.SchemeEd25519, crypto.NewRegistry(crypto.SchemeEd25519))
	if err != nil {
		t.Fatal(err)
	}
	scheme := &countingScheme{Scheme: inner}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(17))
	if err != nil {
		t.Fatal(err)
	}
	w := utxo.NewWallet(kp, inner)
	txs := make([]*utxo.Transaction, distinct)
	for i := range txs {
		txs[i], err = w.Pay(
			[]utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("prev")), Index: uint32(i)}, Value: 100}},
			[]utxo.Output{{Account: w.Address(), Value: 100}})
		if err != nil {
			t.Fatal(err)
		}
	}
	payloads := make([][]byte, n)
	copies := 0
	for i := range payloads {
		slice := txs[2*i : distinct-2*(n-1-i)]
		copies += len(slice)
		if payloads[i], err = wire.EncodeBatch(slice); err != nil {
			t.Fatal(err)
		}
	}

	cache := wire.NewBatchCache(2 * n)
	tv := NewTxVerifier(Shared(), scheme)
	for _, p := range payloads {
		tv.SpeculateBatch(p, cache)
	}
	// Commit: decode through the cache and check every signature, which
	// waits for (or, where the pool dropped the task, performs) the
	// speculation.
	seen := make(map[types.Digest]bool)
	for _, p := range payloads {
		batch, err := cache.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range batch {
			if err := tx.VerifySig(scheme); err != nil {
				t.Fatal(err)
			}
			seen[tx.ID()] = true
		}
	}
	if len(seen) != distinct {
		t.Fatalf("committed %d distinct transactions, want %d", len(seen), distinct)
	}
	if got := scheme.verifies.Load(); got != distinct {
		t.Errorf("%d signature checks for %d distinct transactions carried as %d copies", got, distinct, copies)
	}
}
