package wire

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// countingScheme counts the signature checks that reach the scheme.
type countingScheme struct {
	crypto.Scheme
	verifies atomic.Int64
}

func (s *countingScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.verifies.Add(1)
	return s.Scheme.Verify(pub, digest, sig)
}

func newCountingScheme(t *testing.T, kind crypto.SchemeKind) *countingScheme {
	t.Helper()
	scheme, err := crypto.NewScheme(kind, crypto.NewRegistry(kind))
	if err != nil {
		t.Fatal(err)
	}
	return &countingScheme{Scheme: scheme}
}

func mustEncode(t *testing.T, txs ...*utxo.Transaction) []byte {
	t.Helper()
	p, err := EncodeBatch(txs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustDecode(t *testing.T, c *BatchCache, payload []byte) []*utxo.Transaction {
	t.Helper()
	txs, err := c.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	return txs
}

// TestBatchCacheSharesTransactionsAcrossPayloads: a transaction carried
// by two different payloads inside the window is one object, and its
// signature reaches the scheme once.
func TestBatchCacheSharesTransactionsAcrossPayloads(t *testing.T) {
	scheme := newCountingScheme(t, crypto.SchemeEd25519)
	txs := testBatch(t, 6)
	cache := NewBatchCache(4)
	a := mustDecode(t, cache, mustEncode(t, txs[0:4]...))
	b := mustDecode(t, cache, mustEncode(t, txs[2:6]...))
	if b[0] != a[2] || b[1] != a[3] {
		t.Error("the overlapping transactions were decoded into second objects")
	}
	if b[2] == a[2] || b[2].ID() != txs[4].ID() || b[3].ID() != txs[5].ID() {
		t.Error("the second payload's own transactions are wrong")
	}
	if s := cache.Stats(); s.TxsDecoded != 6 || s.TxsReused != 2 || s.Hits != 0 || s.Misses != 2 || s.IndexedTxs != 6 || s.Batches != 2 {
		t.Errorf("stats %+v, want 6 decoded, 2 reused, 0 hits, 2 misses, 6 indexed, 2 batches", s)
	}
	for _, batch := range [][]*utxo.Transaction{a, b} {
		for _, tx := range batch {
			if err := tx.VerifySig(scheme); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := scheme.verifies.Load(); got != 6 {
		t.Errorf("%d signature checks for 6 distinct transactions in 8 copies", got)
	}
	// A byte-identical payload is still a whole-batch hit and counts no
	// transactions.
	mustDecode(t, cache, mustEncode(t, txs[2:6]...))
	if s := cache.Stats(); s.Hits != 1 || s.TxsDecoded != 6 || s.TxsReused != 2 {
		t.Errorf("stats %+v after a payload hit, want 1 hit and unchanged transaction counts", s)
	}
}

// TestBatchCacheIndexLeavesWithItsBatch: evicting a batch unindexes the
// objects no newer batch has returned, and an object a still-cached batch
// returned stays the one object of its ID.
func TestBatchCacheIndexLeavesWithItsBatch(t *testing.T) {
	txs := testBatch(t, 9)
	cache := NewBatchCache(3)
	a := mustDecode(t, cache, mustEncode(t, txs[0:4]...))
	mustDecode(t, cache, mustEncode(t, txs[6]))
	mustDecode(t, cache, mustEncode(t, txs[2:6]...)) // 2,3 are a's objects, now under this batch
	if s := cache.Stats(); s.IndexedTxs != 7 || s.Batches != 3 || s.TxsReused != 2 {
		t.Fatalf("stats %+v, want 7 indexed in 3 batches, 2 reused", s)
	}
	mustDecode(t, cache, mustEncode(t, txs[7])) // evicts a
	if s := cache.Stats(); s.IndexedTxs != 6 || s.Batches != 3 {
		t.Fatalf("stats %+v after the first batch left, want 6 indexed (2..7) in 3 batches", s)
	}
	// The probe evicts the second batch, which alone carried 6.
	probe := mustDecode(t, cache, mustEncode(t, txs[0], txs[3], txs[6]))
	if probe[0] == a[0] || probe[0].ID() != a[0].ID() {
		t.Error("a transaction only the evicted batch carried was still served from the index")
	}
	if probe[1] != a[3] {
		t.Error("a transaction a still-cached batch carries was decoded again")
	}
	if probe[2].ID() != txs[6].ID() {
		t.Error("wrong transaction")
	}
	if s := cache.Stats(); s.IndexedTxs != 7 || s.TxsReused != 3 || s.TxsDecoded != 10 {
		t.Errorf("stats %+v, want 7 indexed (0, 2..7), 3 reused, 10 decoded", s)
	}
	// Push everything out: the index empties with the window.
	for i := 0; i < 3; i++ {
		mustDecode(t, cache, append(mustEncode(t), byte(i))) // distinct bytes, no transactions
	}
	if s := cache.Stats(); s.IndexedTxs != 0 {
		t.Errorf("%d transactions indexed with no batch holding any", s.IndexedTxs)
	}
}

// TestBatchCacheReproposedAgainAndAgain: a transaction every instance
// proposes again is one object for as long as the newest batch carrying
// it is cached, however long ago the batch that decoded it left.
func TestBatchCacheReproposedAgainAndAgain(t *testing.T) {
	scheme := newCountingScheme(t, crypto.SchemeEd25519)
	txs := testBatch(t, 12)
	cache := NewBatchCache(2)
	first := mustDecode(t, cache, mustEncode(t, txs[0]))[0]
	for i := 1; i < len(txs); i++ {
		got := mustDecode(t, cache, mustEncode(t, txs[0], txs[i]))
		if got[0] != first {
			t.Fatalf("proposal %d: the repeated transaction is a new object", i)
		}
		for _, tx := range got {
			if err := tx.VerifySig(scheme); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := scheme.verifies.Load(); got != int64(len(txs)) {
		t.Errorf("%d signature checks for %d distinct transactions", got, len(txs))
	}
	if s := cache.Stats(); s.IndexedTxs != 3 || s.Batches != 2 {
		t.Errorf("stats %+v, want 3 indexed in 2 batches", s)
	}
}

// TestBatchCacheKeysVerdictsByFullEncoding: the same body under another
// signature is another transaction. Copies are not merged, and an invalid
// one neither lends its verdict to the valid one nor borrows it.
func TestBatchCacheKeysVerdictsByFullEncoding(t *testing.T) {
	for _, invalidFirst := range []bool{false, true} {
		scheme := newCountingScheme(t, crypto.SchemeEd25519)
		good := testBatch(t, 1)[0]
		forged := *good
		forged.Sig = append(crypto.Signature{}, good.Sig...)
		forged.Sig[5] ^= 0x40
		forged.Invalidate()
		if forged.ID() == good.ID() || forged.SigDigest() != good.SigDigest() {
			t.Fatal("the forged copy must share the body and differ in ID")
		}
		payloads := [][]byte{mustEncode(t, good), mustEncode(t, &forged)}
		want := []error{nil, utxo.ErrBadSignature}
		if invalidFirst {
			payloads[0], payloads[1] = payloads[1], payloads[0]
			want[0], want[1] = want[1], want[0]
		}
		cache := NewBatchCache(4)
		var seen []*utxo.Transaction
		for i, p := range payloads {
			tx := mustDecode(t, cache, p)[0]
			if err := tx.VerifySig(scheme); err != want[i] {
				t.Errorf("invalidFirst=%v copy %d: verdict %v, want %v", invalidFirst, i, err, want[i])
			}
			seen = append(seen, tx)
		}
		if seen[0] == seen[1] {
			t.Error("copies under different signatures were merged")
		}
		if got := scheme.verifies.Load(); got != 2 {
			t.Errorf("%d signature checks, want one per copy", got)
		}
		if s := cache.Stats(); s.TxsReused != 0 || s.IndexedTxs != 2 {
			t.Errorf("stats %+v, want nothing reused and both copies indexed", s)
		}
	}

	// Two valid signatures over one body (ecdsa signs with a fresh nonce).
	scheme := newCountingScheme(t, crypto.SchemeECDSA)
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(3))
	if err != nil {
		t.Fatal(err)
	}
	w := utxo.NewWallet(kp, scheme)
	first, err := w.Pay([]utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("prev"))}, Value: 10}},
		[]utxo.Output{{Account: w.Address(), Value: 10}})
	if err != nil {
		t.Fatal(err)
	}
	second := *first
	for try := 0; bytes.Equal(second.Sig, first.Sig); try++ {
		if try == 64 {
			t.Fatal("ecdsa produced the same signature 64 times")
		}
		if second.Sig, err = scheme.Sign(kp, first.SigDigest()); err != nil {
			t.Fatal(err)
		}
	}
	second.Invalidate()
	cache := NewBatchCache(4)
	x := mustDecode(t, cache, mustEncode(t, first))[0]
	y := mustDecode(t, cache, mustEncode(t, &second))[0]
	if x == y || x.ID() == y.ID() {
		t.Error("two signatures over one body were merged")
	}
	if x.VerifySig(scheme) != nil || y.VerifySig(scheme) != nil || scheme.verifies.Load() != 2 {
		t.Errorf("both copies are valid and each is checked once; saw %d checks", scheme.verifies.Load())
	}
}

// TestBatchCacheSeedIndexesOwnObjects: a foreign payload carrying a
// seeded batch's transactions returns the seeded objects, and a seed does
// not displace objects the index already serves.
func TestBatchCacheSeedIndexesOwnObjects(t *testing.T) {
	own := testBatch(t, 5)
	cache := NewBatchCache(4)
	cache.Seed(mustEncode(t, own[0:4]...), own[0:4])
	foreign := mustDecode(t, cache, mustEncode(t, own[4], own[2], own[1]))
	if foreign[1] != own[2] || foreign[2] != own[1] {
		t.Error("a foreign payload did not return the seeded objects")
	}
	if foreign[0] == own[4] || foreign[0].ID() != own[4].ID() {
		t.Error("the unseeded transaction must be a decoded object")
	}
	if s := cache.Stats(); s.TxsDecoded != 1 || s.TxsReused != 2 || s.IndexedTxs != 5 {
		t.Errorf("stats %+v, want 1 decoded, 2 reused, 5 indexed", s)
	}
	// Seeding a batch that contains an already indexed transaction keeps
	// the indexed object for later payloads; the seeded batch itself is
	// served as given.
	later := []*utxo.Transaction{own[4], own[3]}
	p := mustEncode(t, later...)
	cache.Seed(p, later)
	if got := mustDecode(t, cache, p); got[0] != own[4] || got[1] != own[3] {
		t.Error("a seeded batch was not served as its own objects")
	}
	if got := mustDecode(t, cache, mustEncode(t, own[4])); got[0] != foreign[0] {
		t.Error("a seed displaced the object the index was serving")
	}
	// The pool's objects seeded again (a re-proposal) move under the later
	// batch. This seed is the fifth batch and evicts the first seed; the
	// probe evicts the foreign payload, the last batch to carry 2.
	cache.Seed(mustEncode(t, own[0], own[1]), own[0:2])
	if s := cache.Stats(); s.Batches != 4 || s.IndexedTxs != 5 {
		t.Fatalf("stats %+v, want 4 batches and all 5 transactions indexed", s)
	}
	if got := mustDecode(t, cache, mustEncode(t, own[1], own[2])); got[0] != own[1] || got[1] == own[2] {
		t.Error("want the re-seeded object served and the one no cached batch carries decoded anew")
	}
}

// TestBatchCacheFailedDecodeIndexesNothing: a payload that fails to
// decode after some well-formed transactions leaves neither an entry nor
// index entries behind.
func TestBatchCacheFailedDecodeIndexesNothing(t *testing.T) {
	txs := testBatch(t, 3)
	good := mustEncode(t, txs...)
	cache := NewBatchCache(4)
	for _, cut := range []int{len(good) - 1, len(good) - len(txs[2].Canonical()), 9} {
		if _, err := cache.Decode(good[:cut:cut]); err == nil {
			t.Fatalf("payload truncated to %d bytes decoded", cut)
		}
		if s := cache.Stats(); s.IndexedTxs != 0 || s.Batches != 0 || s.Misses != 0 || s.TxsDecoded != 0 || s.TxsReused != 0 {
			t.Fatalf("stats %+v after a failed decode, want all zero", s)
		}
	}
	if got := mustDecode(t, cache, good); len(got) != 3 {
		t.Fatalf("decoded %d transactions, want 3", len(got))
	}
	if s := cache.Stats(); s.IndexedTxs != 3 || s.TxsDecoded != 3 {
		t.Errorf("stats %+v, want 3 decoded and indexed", s)
	}
}

// TestBatchCacheConcurrentOverlappingDecodes decodes sliding windows over
// one transaction set from several goroutines and verifies what comes
// back. With room for every batch each transaction is one object checked
// once; with a window smaller than the decodes in flight, batches are
// evicted mid-decode and the cache must still return the right
// transactions and leave no index entry without a batch.
func TestBatchCacheConcurrentOverlappingDecodes(t *testing.T) {
	const distinct, span, workers = 48, 12, 8
	txs := testBatch(t, distinct)
	var payloads [][]byte
	var starts []int
	for start := 0; start+span <= distinct; start += 4 {
		payloads = append(payloads, mustEncode(t, txs[start:start+span]...))
		starts = append(starts, start)
	}
	for _, capacity := range []int{len(payloads), 2} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			scheme := newCountingScheme(t, crypto.SchemeEd25519)
			cache := NewBatchCache(capacity)
			results := make([][][]*utxo.Transaction, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					results[w] = make([][]*utxo.Transaction, len(payloads))
					for i := range payloads {
						j := (i + w) % len(payloads)
						// A private copy of the bytes, as each frame off the wire is.
						got, err := cache.Decode(append([]byte{}, payloads[j]...))
						if err != nil {
							t.Error(err)
							return
						}
						for _, tx := range got {
							if err := tx.VerifySig(scheme); err != nil {
								t.Error(err)
							}
						}
						results[w][j] = got
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			objects := make(map[types.Digest]map[*utxo.Transaction]bool)
			for _, perWorker := range results {
				for j, got := range perWorker {
					if len(got) != span {
						t.Fatalf("payload %d decoded to %d transactions, want %d", j, len(got), span)
					}
					for i, tx := range got {
						id := txs[starts[j]+i].ID()
						if tx.ID() != id {
							t.Fatalf("payload %d position %d: wrong transaction", j, i)
						}
						if objects[id] == nil {
							objects[id] = make(map[*utxo.Transaction]bool)
						}
						objects[id][tx] = true
					}
				}
			}
			s := cache.Stats()
			if capacity == len(payloads) {
				for id, objs := range objects {
					if len(objs) != 1 {
						t.Errorf("transaction %v exists as %d objects with every batch cached", id, len(objs))
					}
				}
				if got := scheme.verifies.Load(); got != distinct {
					t.Errorf("%d signature checks for %d distinct transactions", got, distinct)
				}
				if s.TxsDecoded != distinct || s.IndexedTxs != distinct {
					t.Errorf("stats %+v, want %d decoded and indexed", s, distinct)
				}
			}
			// Every index entry belongs to a cached batch: flushing the
			// window with empty batches must empty the index.
			for i := 0; i < capacity; i++ {
				mustDecode(t, cache, append(mustEncode(t), byte(i)))
			}
			if s := cache.Stats(); s.IndexedTxs != 0 {
				t.Errorf("%d index entries outlived their batches", s.IndexedTxs)
			}
		})
	}
}
