package bm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// testPool is wider than one worker whatever the host, so the signature
// step really leaves the caller's goroutine (pipeline.Shared is sized by
// the GOMAXPROCS it first sees).
var testPool = pipeline.NewPool(4)

func ed25519Scheme(tb testing.TB) crypto.Scheme {
	tb.Helper()
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, crypto.NewRegistry(crypto.SchemeEd25519))
	if err != nil {
		tb.Fatal(err)
	}
	return scheme
}

// buildCommitFixture creates a scheme, funded wallets and a block that
// mixes everything the ordered apply has to settle: plenty of independent
// transfers, an intra-block dependency chain, a double spend, a forged
// signature, a duplicate entry and an overspend.
func buildCommitFixture(tb testing.TB) (crypto.Scheme, map[utxo.Address]types.Amount, *Block) {
	tb.Helper()
	scheme := ed25519Scheme(tb)
	rand := crypto.NewDeterministicRand(99)
	const wallets = 40
	ws := make([]*utxo.Wallet, wallets)
	allocs := make(map[utxo.Address]types.Amount, wallets)
	for i := range ws {
		kp, err := scheme.GenerateKey(rand)
		if err != nil {
			tb.Fatal(err)
		}
		ws[i] = utxo.NewWallet(kp, scheme)
		allocs[ws[i].Address()] = 1000
	}
	// A scratch ledger supplies the genesis outpoints for input selection.
	scratch := NewLedger(scheme)
	scratch.Genesis(allocs)
	pay := func(from, to int, amount types.Amount) *utxo.Transaction {
		tb.Helper()
		ins, err := scratch.Table().InputsFor(ws[from].Address(), amount)
		if err != nil {
			tb.Fatal(err)
		}
		tx, err := ws[from].Pay(ins, []utxo.Output{{Account: ws[to].Address(), Value: amount}})
		if err != nil {
			tb.Fatal(err)
		}
		return tx
	}

	var txs []*utxo.Transaction
	// Independent transfers.
	for i := 0; i < 30; i++ {
		txs = append(txs, pay(i, (i+1)%30, types.Amount(10+i)))
	}
	// Intra-block chain: w30 pays w31, then w31 spends that very output.
	head := pay(30, 31, 500)
	txs = append(txs, head)
	chained, err := ws[31].Pay(
		[]utxo.Input{{Prev: utxo.Outpoint{TxID: head.ID(), Index: 0}, Value: 500}},
		[]utxo.Output{{Account: ws[32].Address(), Value: 500}})
	if err != nil {
		tb.Fatal(err)
	}
	txs = append(txs, chained)
	// Double spend: w33 signs two conflicting transfers; first wins.
	ins, err := scratch.Table().InputsFor(ws[33].Address(), 700)
	if err != nil {
		tb.Fatal(err)
	}
	ds1, err := ws[33].Pay(ins, []utxo.Output{{Account: ws[34].Address(), Value: 700}})
	if err != nil {
		tb.Fatal(err)
	}
	ds2, err := ws[33].Pay(ins, []utxo.Output{{Account: ws[35].Address(), Value: 700}})
	if err != nil {
		tb.Fatal(err)
	}
	txs = append(txs, ds1, ds2)
	// Forged signature: must be skipped with and without a pool.
	forged := pay(36, 37, 100)
	forged.Sig = append([]byte{}, forged.Sig...)
	forged.Sig[0] ^= 0x55
	forged.Invalidate()
	txs = append(txs, forged)
	// Duplicate entry of an earlier transaction.
	txs = append(txs, txs[0])
	// Overspend attempt (bad shape): input value below outputs.
	over := pay(38, 39, 50)
	over.Outputs[0].Value = 10_000
	over.Invalidate()
	txs = append(txs, over)

	return scheme, allocs, NewBlock(1, txs)
}

// buildPaymentFixture builds a block of the benchmark's shape
// (benchmark/loadgen): transaction i is signed by payer i%payers, pays one
// coin to a common recipient and spends the payer's own previous change.
// With rounds > 1 every payer's spends chain inside the block; with one
// round the transactions are independent.
func buildPaymentFixture(tb testing.TB, payers, rounds int) (crypto.Scheme, map[utxo.Address]types.Amount, *Block) {
	tb.Helper()
	scheme := ed25519Scheme(tb)
	rand := crypto.NewDeterministicRand(7)
	wallet := func() *utxo.Wallet {
		kp, err := scheme.GenerateKey(rand)
		if err != nil {
			tb.Fatal(err)
		}
		return utxo.NewWallet(kp, scheme)
	}
	recipient := wallet().Address()
	ws := make([]*utxo.Wallet, payers)
	allocs := make(map[utxo.Address]types.Amount, payers)
	for i := range ws {
		ws[i] = wallet()
		allocs[ws[i].Address()] = 1000
	}
	scratch := NewLedger(scheme)
	scratch.Genesis(allocs)
	next := make([]utxo.Input, payers)
	for i, w := range ws {
		ins, err := scratch.Table().InputsFor(w.Address(), 1000)
		if err != nil {
			tb.Fatal(err)
		}
		next[i] = ins[0]
	}
	txs := make([]*utxo.Transaction, payers*rounds)
	for i := range txs {
		p := i % payers
		tx, err := ws[p].Pay([]utxo.Input{next[p]}, []utxo.Output{{Account: recipient, Value: 1}})
		if err != nil {
			tb.Fatal(err)
		}
		next[p] = utxo.Input{Prev: utxo.Outpoint{TxID: tx.ID(), Index: 1}, Value: tx.Outputs[1].Value}
		txs[i] = tx
	}
	return scheme, allocs, NewBlock(1, txs)
}

// coldCopy rebuilds the first size transactions of a block from their
// canonical bytes, the way a node receives them: new objects, no
// signature verdict known. An object the block lists twice stays one
// object (the batch cache serves one object per ID).
func coldCopy(tb testing.TB, b *Block, size int) *Block {
	tb.Helper()
	fresh := make(map[*utxo.Transaction]*utxo.Transaction, size)
	txs := make([]*utxo.Transaction, size)
	for i, tx := range b.Txs[:size] {
		if fresh[tx] == nil {
			dec, err := utxo.DecodeTransaction(tx.Canonical())
			if err != nil {
				tb.Fatal(err)
			}
			fresh[tx] = dec
		}
		txs[i] = fresh[tx]
	}
	return NewBlock(b.K, txs)
}

// warm settles every signature verdict of the block ahead of its commit,
// as the speculation does.
func warm(b *Block, scheme crypto.Scheme) {
	for _, tx := range b.Txs {
		_ = tx.VerifySig(scheme)
	}
}

// sigChecksNeeded counts the signatures the ordered apply asks about on a
// fresh ledger: one per distinct transaction of valid shape.
func sigChecksNeeded(b *Block) int64 {
	seen := make(map[*utxo.Transaction]bool, len(b.Txs))
	var n int64
	for _, tx := range b.Txs {
		if !seen[tx] && tx.CheckShape() == nil {
			n++
		}
		seen[tx] = true
	}
	return n
}

// ledgerFingerprint summarizes everything the equivalence check compares.
func ledgerFingerprint(l *Ledger) string {
	s := fmt.Sprintf("height=%d deposit=%d utxos=%d total=%d\n",
		l.Height(), l.Deposit(), l.Table().Size(), l.Table().TotalValue())
	for _, e := range l.Table().Entries() {
		s += fmt.Sprintf("%v=%v:%d\n", e.Op, e.Out.Account, e.Out.Value)
	}
	return s
}

func genesisLedger(scheme crypto.Scheme, allocs map[utxo.Address]types.Amount, pool *pipeline.Pool) *Ledger {
	l := NewLedger(scheme)
	l.SetParallel(pool)
	l.Genesis(allocs)
	return l
}

// TestCommitBlockParallelMatchesSequential pins the ledger with a worker
// pool to the one without: identical applied counts, identical
// committed-transaction sets and bit-identical UTXO state, whether the
// signature verdicts are cold or already settled at commit, on a block
// mixing independent transfers with every conflict shape, on a block of
// the benchmark's shape (256 payers, each spending its own change four
// times over), and on a block too small for the fan-out.
func TestCommitBlockParallelMatchesSequential(t *testing.T) {
	fixtures := []struct {
		name  string
		build func(testing.TB) (crypto.Scheme, map[utxo.Address]types.Amount, *Block)
	}{
		{"mixed", buildCommitFixture},
		{"chained", func(tb testing.TB) (crypto.Scheme, map[utxo.Address]types.Amount, *Block) {
			return buildPaymentFixture(tb, 256, 4)
		}},
	}
	for _, fx := range fixtures {
		scheme, allocs, block := fx.build(t)
		for _, size := range []int{4, len(block.Txs)} { // 4: below minParallelTxs, no fan-out
			for _, verdicts := range []string{"cold", "warm"} {
				t.Run(fmt.Sprintf("%s/txs=%d/%s", fx.name, size, verdicts), func(t *testing.T) {
					seqBlock, parBlock := coldCopy(t, block, size), coldCopy(t, block, size)
					if verdicts == "warm" {
						warm(seqBlock, scheme)
						warm(parBlock, scheme)
					}
					seq := genesisLedger(scheme, allocs, nil)
					par := genesisLedger(scheme, allocs, testPool)

					wantApplied := seq.CommitBlock(seqBlock)
					gotApplied := par.CommitBlock(parBlock)
					if wantApplied != gotApplied {
						t.Fatalf("applied %d with a pool vs %d without", gotApplied, wantApplied)
					}
					if wantApplied == 0 {
						t.Fatal("fixture applied nothing")
					}
					for _, tx := range block.Txs[:size] {
						if seq.HasTx(tx.ID()) != par.HasTx(tx.ID()) {
							t.Errorf("tx %v committed=%v without a pool, %v with one",
								tx.ID(), seq.HasTx(tx.ID()), par.HasTx(tx.ID()))
						}
					}
					if a, b := ledgerFingerprint(seq), ledgerFingerprint(par); a != b {
						t.Errorf("ledger state diverged:\n--- no pool\n%s--- pool\n%s", a, b)
					}

					// Re-committing the same block must be a no-op on both.
					if n := seq.CommitBlock(seqBlock); n != 0 {
						t.Errorf("recommit without a pool applied %d", n)
					}
					if n := par.CommitBlock(parBlock); n != 0 {
						t.Errorf("recommit with a pool applied %d", n)
					}
					if a, b := ledgerFingerprint(seq), ledgerFingerprint(par); a != b {
						t.Errorf("ledger state diverged after recommit:\n--- no pool\n%s--- pool\n%s", a, b)
					}
				})
			}
		}
	}
}

// meteredScheme counts the signature checks that reach the scheme and
// notes whether two were ever in flight at once. With awaitOverlap a
// check waits (bounded) for a second one to arrive, so a fan-out shows as
// overlap even on one core and a serial caller shows as none.
type meteredScheme struct {
	crypto.Scheme
	awaitOverlap bool

	verifies atomic.Int64
	inflight atomic.Int64
	overlap  chan struct{} // closed once two checks overlapped
	once     sync.Once
	gaveUp   atomic.Bool
}

func newMeteredScheme(scheme crypto.Scheme, awaitOverlap bool) *meteredScheme {
	return &meteredScheme{Scheme: scheme, awaitOverlap: awaitOverlap, overlap: make(chan struct{})}
}

func (s *meteredScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.verifies.Add(1)
	if s.inflight.Add(1) > 1 {
		s.once.Do(func() { close(s.overlap) })
	}
	defer s.inflight.Add(-1)
	if s.awaitOverlap && !s.gaveUp.Load() {
		select {
		case <-s.overlap:
		case <-time.After(time.Second): // a serial caller: nobody else is coming
			s.gaveUp.Store(true)
		}
	}
	return s.Scheme.Verify(pub, digest, sig)
}

func (s *meteredScheme) overlapped() bool {
	select {
	case <-s.overlap:
		return true
	default:
		return false
	}
}

// TestSignatureStepChecksEachSignatureOnce: both entrances of the ledger
// ask the scheme about each transaction exactly once when the verdicts
// are cold — chained spends included, and fanned out over the pool, not
// serially — and not at all when they are warm.
func TestSignatureStepChecksEachSignatureOnce(t *testing.T) {
	base, allocs, block := buildPaymentFixture(t, 64, 4)
	entrances := []struct {
		name  string
		enter func(*Ledger, *Block) int
	}{
		{"CommitBlock", (*Ledger).CommitBlock},
		{"MergeBlock", (*Ledger).MergeBlock},
	}
	for _, procs := range []int{1, 4} {
		for _, e := range entrances {
			enter := e.enter
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, e.name), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				scheme := newMeteredScheme(base, true)
				cold := coldCopy(t, block, len(block.Txs))
				if got := enter(genesisLedger(scheme, allocs, testPool), cold); got != len(cold.Txs) {
					t.Fatalf("cold: %d of %d transactions entered", got, len(cold.Txs))
				}
				if got, want := scheme.verifies.Load(), sigChecksNeeded(cold); got != want {
					t.Errorf("cold: scheme asked %d times about %d signatures", got, want)
				}
				if !scheme.overlapped() {
					t.Error("cold: signatures were checked one at a time, not fanned out")
				}

				scheme = newMeteredScheme(base, false)
				settled := coldCopy(t, block, len(block.Txs))
				warm(settled, base)
				if got := enter(genesisLedger(scheme, allocs, testPool), settled); got != len(settled.Txs) {
					t.Fatalf("warm: %d of %d transactions entered", got, len(settled.Txs))
				}
				if got := scheme.verifies.Load(); got != 0 {
					t.Errorf("warm: scheme asked %d times, want 0", got)
				}
			})
		}
	}

	// The mixed block: a duplicate entry and a bad shape cost no check, a
	// forged signature and a double spend's loser cost one, with a pool
	// as without.
	_, allocs, mixed := buildCommitFixture(t)
	for _, pool := range []*pipeline.Pool{nil, testPool} {
		scheme := newMeteredScheme(base, false)
		cold := coldCopy(t, mixed, len(mixed.Txs))
		genesisLedger(scheme, allocs, pool).CommitBlock(cold)
		if got, want := scheme.verifies.Load(), sigChecksNeeded(cold); got != want {
			t.Errorf("mixed block, pool=%v: scheme asked %d times about %d signatures", pool != nil, got, want)
		}
	}
}

// TestCommitBlockWhileSpeculationRuns commits a block with a pool while
// TxVerifier.SpeculateBatch is still verifying the same payload — the
// same transaction objects, shared through one batch cache. The verdict
// slot's claim makes the two compose: same ledger as the reference, one
// check per signature. Run under -race -count=20 in CI.
func TestCommitBlockWhileSpeculationRuns(t *testing.T) {
	base, allocs, block := buildPaymentFixture(t, 64, 4)
	payload, err := wire.EncodeBatch(block.Txs)
	if err != nil {
		t.Fatal(err)
	}
	ref := genesisLedger(base, allocs, nil)
	wantApplied := ref.CommitBlock(coldCopy(t, block, len(block.Txs)))

	scheme := newMeteredScheme(base, false)
	cache := wire.NewBatchCache(0)
	pipeline.NewTxVerifier(testPool, scheme).SpeculateBatch(payload, cache)
	txs, err := cache.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	l := genesisLedger(scheme, allocs, testPool)
	if got := l.CommitBlock(NewBlock(1, txs)); got != wantApplied {
		t.Fatalf("applied %d beside the speculation, %d alone", got, wantApplied)
	}
	if a, b := ledgerFingerprint(ref), ledgerFingerprint(l); a != b {
		t.Errorf("ledger state diverged:\n--- reference\n%s--- beside the speculation\n%s", a, b)
	}
	if got, want := scheme.verifies.Load(), int64(len(txs)); got != want {
		t.Errorf("scheme asked %d times about %d signatures", got, want)
	}
}
