package bm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// decided gives b a decision digest of its own, as store.BlockFrom gives
// a block the digest of the decision it derives from.
func decided(b *Block) *Block {
	b.Decision = types.Hash(append([]byte("decision"), b.Digest[:]...))
	return b
}

// buildForkedLedger commits two blocks, merges a conflicting branch and
// punishes an account — every piece of ledger state a checkpoint must
// carry survives in the result.
func buildForkedLedger(t *testing.T, f *fixture) *Ledger {
	t.Helper()
	l := f.genesisLedger(t)
	l.AddDeposit(2_000_000)

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
	l.CommitBlock(decided(NewBlock(1, []*utxo.Transaction{txBob})))
	l.MergeBlock(decided(NewBlock(1, []*utxo.Transaction{txCarol})))
	tx2 := pay(t, l, f.bob, f.carol.Address(), 250)
	l.CommitBlock(decided(NewBlock(2, []*utxo.Transaction{tx2})))
	l.PunishAccount(f.alice.Address())
	return l
}

func TestCheckpointRoundTripRestoresLedger(t *testing.T) {
	f := newFixture(t)
	l := buildForkedLedger(t, f)

	cp := l.CheckpointState()
	// Round-trip through the wire codec, as the store does on disk.
	decoded, err := wire.DecodeCheckpoint(wire.EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	r := RestoreLedger(f.scheme, decoded)

	if got, want := r.Deposit(), l.Deposit(); got != want {
		t.Errorf("deposit %d, want %d", got, want)
	}
	for _, w := range []*utxo.Wallet{f.alice, f.bob, f.carol} {
		if got, want := r.Table().Balance(w.Address()), l.Table().Balance(w.Address()); got != want {
			t.Errorf("balance of %v: %d, want %d", w.Address(), got, want)
		}
	}
	ld, rd := l.BlockDigests(), r.BlockDigests()
	if len(ld) != len(rd) {
		t.Fatalf("digest maps differ in size: %d vs %d", len(rd), len(ld))
	}
	for k, d := range ld {
		if rd[k] != d {
			t.Errorf("block %d digest mismatch", k)
		}
	}
	if r.LastK() != l.LastK() || r.Height() != l.Height() {
		t.Errorf("chain shape: lastK %d/%d height %d/%d", r.LastK(), l.LastK(), r.Height(), l.Height())
	}
	if !r.Punished(f.alice.Address()) {
		t.Error("punished set lost")
	}
	if r.MergedTxs != l.MergedTxs || r.DepositFundedTxs != l.DepositFundedTxs || r.Refunds != l.Refunds {
		t.Errorf("stats lost: %d/%d/%d vs %d/%d/%d",
			r.MergedTxs, r.DepositFundedTxs, r.Refunds, l.MergedTxs, l.DepositFundedTxs, l.Refunds)
	}
}

// TestCheckpointRestoredLedgerKeepsWorking drives post-restore commits and
// merges: the restored ledger must behave exactly like the original —
// dedup committed txs, detect forks against restored block records, refund
// remembered deposit inputs.
func TestCheckpointRestoredLedgerKeepsWorking(t *testing.T) {
	f := newFixture(t)

	// Out-of-order merge leaves a remembered deposit input behind.
	remote := NewLedger(f.scheme)
	remote.Genesis(map[utxo.Address]types.Amount{f.alice.Address(): 1_000_000})
	txAB := pay(t, remote, f.alice, f.bob.Address(), 600)
	remote.CommitBlock(NewBlock(1, []*utxo.Transaction{txAB}))
	txBC := pay(t, remote, f.bob, f.carol.Address(), 600)
	remote.CommitBlock(NewBlock(2, []*utxo.Transaction{txBC}))

	l := f.genesisLedger(t)
	l.AddDeposit(1_000_000)
	l.MergeBlock(NewBlock(2, []*utxo.Transaction{txBC}))

	r := RestoreLedger(f.scheme, l.CheckpointState())

	// The restored ledger must still refund when the funding branch lands.
	r.MergeBlock(NewBlock(1, []*utxo.Transaction{txAB}))
	if got := r.Deposit(); got != 1_000_000 {
		t.Errorf("deposit after post-restore refund = %d, want 1_000_000", got)
	}
	// Conflict detection against a restored block record.
	other := NewBlock(2, []*utxo.Transaction{txAB})
	if !r.Conflicts(other) {
		t.Error("fork against a restored block record not detected")
	}
	// Committed-tx dedup across the restore.
	if applied := r.CommitBlock(NewBlock(3, []*utxo.Transaction{txBC})); applied != 0 {
		t.Errorf("re-committed %d txs already in the checkpoint", applied)
	}
}

// --- Merge edge cases the store's supersede records depend on ---

// TestMergeAtIndexZero pins that a merge at chain index 0 (the lowest
// possible index — ZLB's genesis slot) stores the block and applies its
// transactions like any other index; index 0 is not special-cased.
func TestMergeAtIndexZero(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(1_000_000)
	tx := pay(t, l, f.alice, f.bob.Address(), 77)
	b := NewBlock(0, []*utxo.Transaction{tx})
	if got := l.MergeBlock(b); got != 1 {
		t.Fatalf("merge at index 0 applied %d txs, want 1", got)
	}
	stored, ok := l.BlockAt(0)
	if !ok || stored.Digest != b.Digest {
		t.Fatal("block at index 0 not stored")
	}
	if got := l.Table().Balance(f.bob.Address()); got != 77 {
		t.Fatalf("bob balance %d, want 77", got)
	}
}

// TestRepeatedMergesAtSameIndex pins that distinct conflicting blocks
// merged at one index each apply once, the first stored block keeps the
// index, and re-merging any of them is a no-op — the semantics a
// supersede-record replay relies on.
func TestRepeatedMergesAtSameIndex(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(5_000_000)

	inputs, err := l.Table().InputsFor(f.alice.Address(), 900_000)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(to utxo.Address) *utxo.Transaction {
		tx, err := f.alice.Pay(inputs, []utxo.Output{{Account: to, Value: 900_000}})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	b1 := NewBlock(4, []*utxo.Transaction{mk(f.bob.Address())})
	b2 := NewBlock(4, []*utxo.Transaction{mk(f.carol.Address())})
	b3 := NewBlock(4, []*utxo.Transaction{mk(f.bob.Address())})

	if got := l.MergeBlock(b1); got != 1 {
		t.Fatalf("first merge applied %d", got)
	}
	if got := l.MergeBlock(b2); got != 1 {
		t.Fatalf("second merge at same index applied %d", got)
	}
	if got := l.MergeBlock(b3); got != 1 {
		t.Fatalf("third merge at same index applied %d", got)
	}
	// Idempotence per digest, even with siblings at the index.
	if got := l.MergeBlock(b2); got != 0 {
		t.Fatalf("re-merge applied %d, want 0", got)
	}
	stored, ok := l.BlockAt(4)
	if !ok || stored.Digest != b1.Digest {
		t.Fatal("index 4 must keep the first merged block")
	}
	if got := l.Table().Balance(f.bob.Address()); got != 1_800_000 {
		t.Fatalf("bob = %d, want 1_800_000", got)
	}
	if got := l.Table().Balance(f.carol.Address()); got != 900_000 {
		t.Fatalf("carol = %d, want 900_000", got)
	}
}

// TestMergeThenConflictDetection pins Conflicts after a merge: the block
// stored first at an index defines the fork reference; its merged
// sibling does not conflict with itself but any third digest does.
func TestMergeThenConflictDetection(t *testing.T) {
	f := newFixture(t)
	l := f.genesisLedger(t)
	l.AddDeposit(2_000_000)

	txA := pay(t, l, f.alice, f.bob.Address(), 10)
	local := NewBlock(1, []*utxo.Transaction{txA})
	l.CommitBlock(local)

	txB := pay(t, l, f.alice, f.carol.Address(), 20)
	remote := NewBlock(1, []*utxo.Transaction{txB})
	if !l.Conflicts(remote) {
		t.Fatal("sibling block must conflict before merge")
	}
	l.MergeBlock(remote)
	// After the merge the index still answers fork queries against the
	// originally committed block.
	if l.Conflicts(local) {
		t.Error("local block conflicts with itself after merge")
	}
	if !l.Conflicts(remote) {
		t.Error("merged sibling no longer detected as a fork reference")
	}
	third := NewBlock(1, []*utxo.Transaction{txA, txB})
	if !l.Conflicts(third) {
		t.Error("third digest at merged index not detected")
	}
}

// TestLiveAndRestoredLedgerAnswerAlike pins that a ledger that committed
// its blocks itself and one rebuilt from its checkpoint are one
// representation: neither keeps block bodies, every stored block keeps
// its decision digest, and Height, LastK, BlockAt, BlockDigests,
// Conflicts and a MergeBlock at an occupied index answer identically on
// both.
func TestLiveAndRestoredLedgerAnswerAlike(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name  string
		build func(t *testing.T) *Ledger
	}{
		{"empty", func(t *testing.T) *Ledger { return f.genesisLedger(t) }},
		{"chain of 12", func(t *testing.T) *Ledger {
			l := f.genesisLedger(t)
			for k := uint64(1); k <= 12; k++ {
				l.CommitBlock(decided(NewBlock(k, []*utxo.Transaction{pay(t, l, f.alice, f.bob.Address(), types.Amount(k))})))
			}
			return l
		}},
		{"gap and index zero", func(t *testing.T) *Ledger {
			l := f.genesisLedger(t)
			l.AddDeposit(1_000_000)
			l.CommitBlock(decided(NewBlock(7, []*utxo.Transaction{pay(t, l, f.alice, f.bob.Address(), 7)})))
			l.MergeBlock(decided(NewBlock(0, []*utxo.Transaction{pay(t, l, f.alice, f.carol.Address(), 9)})))
			return l
		}},
		{"merged sibling and punished account", func(t *testing.T) *Ledger { return buildForkedLedger(t, f) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.build(t)
			restored := RestoreLedger(f.scheme, live.CheckpointState())
			// A sibling for every index up to one past the chain: a fork where
			// the index is occupied, a plain merge where it is not.
			payer := f.alice
			if live.Punished(payer.Address()) {
				payer = f.bob
			}
			var probes []*Block
			for k := uint64(0); k <= live.LastK()+1; k++ {
				probes = append(probes, decided(NewBlock(k, []*utxo.Transaction{pay(t, live, payer, f.carol.Address(), types.Amount(100+k))})))
			}
			compare := func(when string) {
				t.Helper()
				if live.Height() != restored.Height() || live.LastK() != restored.LastK() {
					t.Fatalf("%s: height %d/%d, lastK %d/%d", when, live.Height(), restored.Height(), live.LastK(), restored.LastK())
				}
				ld, rd := live.BlockDigests(), restored.BlockDigests()
				if len(ld) != len(rd) {
					t.Fatalf("%s: %d/%d block digests", when, len(ld), len(rd))
				}
				// Every stored block, merged siblings included, under its
				// own decision digest.
				if !reflect.DeepEqual(live.blocks, restored.blocks) {
					t.Errorf("%s: stored blocks %+v live, %+v restored", when, live.blocks, restored.blocks)
				}
				for _, p := range probes {
					lb, lok := live.BlockAt(p.K)
					rb, rok := restored.BlockAt(p.K)
					if lok != rok || (lok && (lb.K != p.K || rb.K != p.K || lb.Txs != nil || rb.Txs != nil ||
						lb.Digest != ld[p.K] || rb.Digest != ld[p.K] || rd[p.K] != ld[p.K] ||
						lb.Decision != rb.Decision || lb.Decision == (types.Digest{}))) {
						t.Errorf("%s: BlockAt(%d) = %+v,%v live, %+v,%v restored", when, p.K, lb, lok, rb, rok)
					}
					// A probe conflicts unless it is itself what the index holds.
					if want := lok && lb.Digest != p.Digest; live.Conflicts(p) != want || restored.Conflicts(p) != want {
						t.Errorf("%s: Conflicts at %d: %v live, %v restored, want %v", when, p.K, live.Conflicts(p), restored.Conflicts(p), want)
					}
					if lok && (live.Conflicts(lb) || restored.Conflicts(lb)) {
						t.Errorf("%s: the block stored at %d conflicts with itself", when, p.K)
					}
				}
			}
			compare("after restore")
			for _, p := range probes {
				if lm, rm := live.MergeBlock(p), restored.MergeBlock(p); lm != rm || lm != 1 {
					t.Errorf("MergeBlock at %d merged %d txs live, %d restored", p.K, lm, rm)
				}
				compare("after merge")
			}
			if ls, rs := live.String(), restored.String(); ls != rs {
				t.Errorf("ledgers differ after the merges: %s vs %s", ls, rs)
			}
		})
	}
}

// TestSortCheckpointIsCanonical: SortCheckpoint orders every set of a
// snapshot as a plain sort by the same comparisons does, with half the
// digests sharing their first eight bytes and every transaction ID
// carrying two outputs.
func TestSortCheckpointIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	digest := func() (d types.Digest) {
		for i := range d {
			d[i] = byte(rng.IntN(256))
		}
		if rng.IntN(2) == 0 {
			copy(d[:], "one word")
		}
		return d
	}
	cp := &wire.CheckpointState{}
	for range 500 {
		id := digest()
		cp.Merged = append(cp.Merged, digest())
		cp.TxIDs = append(cp.TxIDs, id)
		cp.Punished = append(cp.Punished, utxo.Address(digest()))
		for _, i := range []uint32{1, 0} {
			op := utxo.Outpoint{TxID: id, Index: i}
			cp.UTXOs = append(cp.UTXOs, wire.UTXOEntry{Op: op, Out: utxo.Output{Value: types.Amount(rng.IntN(100))}})
			cp.DepositInputs = append(cp.DepositInputs, wire.DepositInput{Op: op, Value: types.Amount(rng.IntN(100))})
		}
	}
	rng.Shuffle(len(cp.UTXOs), func(i, j int) { cp.UTXOs[i], cp.UTXOs[j] = cp.UTXOs[j], cp.UTXOs[i] })
	rng.Shuffle(len(cp.DepositInputs), func(i, j int) { cp.DepositInputs[i], cp.DepositInputs[j] = cp.DepositInputs[j], cp.DepositInputs[i] })

	want := &wire.CheckpointState{
		Merged:        slices.SortedFunc(slices.Values(cp.Merged), types.Digest.Compare),
		TxIDs:         slices.SortedFunc(slices.Values(cp.TxIDs), types.Digest.Compare),
		Punished:      slices.SortedFunc(slices.Values(cp.Punished), compareKeys),
		UTXOs:         slices.SortedFunc(slices.Values(cp.UTXOs), func(a, b wire.UTXOEntry) int { return a.Op.Compare(b.Op) }),
		DepositInputs: slices.SortedFunc(slices.Values(cp.DepositInputs), func(a, b wire.DepositInput) int { return a.Op.Compare(b.Op) }),
	}
	SortCheckpoint(cp)
	if !reflect.DeepEqual(cp, want) {
		t.Fatal("SortCheckpoint's order differs from a plain sort's")
	}
}
