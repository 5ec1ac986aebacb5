package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// fixture drives a live ledger and a store in lockstep, the way a node
// does: every commit/merge writes through.
type fixture struct {
	t       *testing.T
	scheme  crypto.Scheme
	alice   *utxo.Wallet
	bob     *utxo.Wallet
	ledger  *bm.Ledger
	store   *Store
	genesis map[utxo.Address]types.Amount
}

func newFixture(t *testing.T, dir string, opts Options) *fixture {
	return newSchemeFixture(t, dir, opts, crypto.SchemeEd25519)
}

// newSchemeFixture is newFixture under a chosen payment scheme — the
// catch-up matrix test runs the sync path under every wallet-capable
// scheme.
func newSchemeFixture(t *testing.T, dir string, opts Options, kind crypto.SchemeKind) *fixture {
	t.Helper()
	reg := crypto.NewRegistry(kind)
	scheme, err := crypto.NewScheme(kind, reg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed int64) *utxo.Wallet {
		kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed))
		if err != nil {
			t.Fatal(err)
		}
		return utxo.NewWallet(kp, scheme)
	}
	f := &fixture{t: t, scheme: scheme, alice: mk(1), bob: mk(2)}
	f.genesis = map[utxo.Address]types.Amount{f.alice.Address(): 1_000_000}
	f.ledger = bm.NewLedger(scheme)
	f.seed(f.ledger)
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.store = s
	return f
}

func (f *fixture) seed(l *bm.Ledger) {
	l.Genesis(f.genesis)
	l.AddDeposit(500_000)
}

// commit pays amount from alice to bob at index k, committing to both
// the ledger and the store.
func (f *fixture) commit(k uint64, amount types.Amount) *bm.Block {
	f.t.Helper()
	b := f.pay(k, amount)
	if err := f.store.AppendBlock(b, 0); err != nil {
		f.t.Fatal(err)
	}
	return b
}

// pay pays amount from alice to bob at index k, committing to the ledger
// only.
func (f *fixture) pay(k uint64, amount types.Amount) *bm.Block {
	f.t.Helper()
	inputs, err := f.ledger.Table().InputsFor(f.alice.Address(), amount)
	if err != nil {
		f.t.Fatal(err)
	}
	tx, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.bob.Address(), Value: amount}})
	if err != nil {
		f.t.Fatal(err)
	}
	b := bm.NewBlock(k, []*utxo.Transaction{tx})
	f.ledger.CommitBlock(b)
	return b
}

// checkRecovered recovers a ledger from the store and compares it to the
// live one.
func (f *fixture) checkRecovered(s *Store) {
	f.t.Helper()
	r, err := s.Recover(f.scheme, f.seed)
	if err != nil {
		f.t.Fatal(err)
	}
	if got, want := r.Deposit(), f.ledger.Deposit(); got != want {
		f.t.Errorf("recovered deposit %d, want %d", got, want)
	}
	for _, w := range []*utxo.Wallet{f.alice, f.bob} {
		if got, want := r.Table().Balance(w.Address()), f.ledger.Table().Balance(w.Address()); got != want {
			f.t.Errorf("recovered balance %d, want %d", got, want)
		}
	}
	ld, rd := f.ledger.BlockDigests(), r.BlockDigests()
	if len(ld) != len(rd) {
		f.t.Fatalf("recovered %d block digests, want %d", len(rd), len(ld))
	}
	for k, d := range ld {
		if rd[k] != d {
			f.t.Errorf("recovered block %d digest mismatch", k)
		}
	}
}

func TestStoreRecoverAfterReopen(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	for k := uint64(1); k <= 5; k++ {
		f.commit(k, types.Amount(100*k))
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if last, ok := s.LastK(); !ok || last != 5 {
		t.Fatalf("LastK = %d/%v, want 5/true", last, ok)
	}
	f.checkRecovered(s)
}

func TestStoreTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 100)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the segment tail.
	seg := filepath.Join(dir, "log", "wal-00000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s.Close()
	// The last block is gone; the first two survive.
	if last, ok := s.LastK(); !ok || last != 2 {
		t.Fatalf("LastK after truncation = %d/%v, want 2/true", last, ok)
	}
	r, err := s.Recover(f.scheme, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Height() != 2 {
		t.Fatalf("recovered height %d, want 2", r.Height())
	}
	// And the store keeps working: re-append block 3.
	f3 := newRecordBlock(3)
	if err := s.AppendBlock(f3, 0); err != nil {
		t.Fatal(err)
	}
	if last, _ := s.LastK(); last != 3 {
		t.Fatalf("LastK after re-append = %d, want 3", last)
	}
}

// newRecordBlock builds an empty block.
func newRecordBlock(k uint64) *bm.Block { return bm.NewBlock(k, nil) }

// mustUncertified is the decision AppendBlock writes b under.
func mustUncertified(t *testing.T, b *bm.Block) *sbc.Decision {
	t.Helper()
	payload, err := wire.EncodeBatch(b.Txs)
	if err != nil {
		t.Fatal(err)
	}
	return &sbc.Decision{Instance: types.Instance(b.K), Bits: map[types.ReplicaID]bool{0: true},
		Proposals: map[types.ReplicaID]sbc.ProposalInfo{0: {Payload: payload, Digest: types.Hash(payload), ClaimedSigs: len(b.Txs)}}}
}

func TestStoreMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	// Small segments force a roll so corruption lands mid-log.
	f := newFixture(t, dir, Options{SegmentBytes: 256})
	for k := uint64(1); k <= 8; k++ {
		f.commit(k, 100)
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "log", "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments to corrupt mid-log, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 256}); err == nil {
		t.Fatal("open accepted mid-log corruption")
	}
}

func TestStoreCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{SegmentBytes: 256})
	for k := uint64(1); k <= 6; k++ {
		f.commit(k, 50)
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "log", "wal-*.seg"))
	if len(before) < 3 {
		t.Fatalf("expected ≥3 segments before checkpoint, got %d", len(before))
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "log", "wal-*.seg"))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint pruned nothing: %d → %d segments", len(before), len(after))
	}
	// More blocks on top of the checkpoint, then a crash-reopen.
	for k := uint64(7); k <= 9; k++ {
		f.commit(k, 50)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ckptFile == nil || s.cutK != 6 {
		t.Fatalf("checkpoint not recovered: held %v, cut at %d", s.ckptFile != nil, s.cutK)
	}
	f.checkRecovered(s)
}

func TestStoreSupersedeReplay(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})

	// Fork: alice double-spends the same inputs to bob and (merged
	// branch) back to herself.
	inputs, err := f.ledger.Table().InputsFor(f.alice.Address(), 400)
	if err != nil {
		t.Fatal(err)
	}
	txBob, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.bob.Address(), Value: 400}})
	if err != nil {
		t.Fatal(err)
	}
	txSelf, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.alice.Address(), Value: 400}})
	if err != nil {
		t.Fatal(err)
	}
	local := bm.NewBlock(1, []*utxo.Transaction{txBob})
	remote := bm.NewBlock(1, []*utxo.Transaction{txSelf})
	f.ledger.CommitBlock(local)
	if err := f.store.AppendBlock(local, 0); err != nil {
		t.Fatal(err)
	}
	f.ledger.MergeBlock(remote)
	if err := f.store.Append(&BlockRecord{Supersede: true, K: 1, Digest: remote.Digest, Decision: mustUncertified(t, remote)}); err != nil {
		t.Fatal(err)
	}
	f.commit(2, 100)

	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f.checkRecovered(s)
	r, err := s.Recover(f.scheme, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.MergedTxs != f.ledger.MergedTxs || r.DepositFundedTxs != f.ledger.DepositFundedTxs {
		t.Errorf("merge stats: %d/%d, want %d/%d",
			r.MergedTxs, r.DepositFundedTxs, f.ledger.MergedTxs, f.ledger.DepositFundedTxs)
	}
}

// TestStoreAppendIdempotent: a block appended again is skipped, whether
// its record is retained or the checkpoint folded it in and its segment
// is pruned.
func TestStoreAppendIdempotent(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256} // a segment per flushed record
	f := newFixture(t, dir, opts)
	b := f.commit(1, 100)
	if err := f.store.AppendBlock(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.tail); got != 1 {
		t.Fatalf("duplicate append persisted: %d tail records, want 1", got)
	}

	// Below a cut: blocks 1 and 2 folded into the checkpoint, their
	// segments pruned, block 3 after it.
	f.store = s
	b2 := f.commit(2, 100)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decision(1); !errors.Is(err, ErrPruned) {
		t.Fatalf("block 1 after the cut: %v, want its segment pruned", err)
	}
	f.commit(3, 100)
	for _, again := range []*bm.Block{b, b2} {
		if err := s.AppendBlock(again, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.tail); got != 1 {
		t.Fatalf("re-append below the cut persisted: %d tail records, want block 3's", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.tail); got != 1 || r.tail[0].k != 3 {
		t.Fatalf("reopened after a re-append below the cut: %d tail records, want block 3's", got)
	}
	f.checkRecovered(r)
}

func TestStoreShouldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{CheckpointEvery: 3})
	for k := uint64(1); k <= 2; k++ {
		f.commit(k, 10)
	}
	if f.store.ShouldCheckpoint() {
		t.Fatal("checkpoint due after 2 of 3 blocks")
	}
	f.commit(3, 10)
	if !f.store.ShouldCheckpoint() {
		t.Fatal("checkpoint not due after 3 blocks")
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	if f.store.ShouldCheckpoint() {
		t.Fatal("checkpoint still due after cut")
	}
}

// TestStoreConcurrentAppends exercises the mutex paths under the race
// detector: parallel appends, flushes and reads.
func TestStoreConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := uint64(g*50 + i + 1)
				if err := s.AppendBlock(newRecordBlock(k), 0); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
					s.LastK()
					s.Attempt(k)
					if _, err := s.Decision(k); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l, err := r.Recover(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Height(); got != 200 {
		t.Fatalf("recovered %d blocks, want 200", got)
	}
}

func TestSyncRoundTrip(t *testing.T) {
	serverDir := t.TempDir()
	f := newFixture(t, serverDir, Options{})
	for k := uint64(1); k <= 4; k++ {
		f.commit(k, 75)
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	for k := uint64(5); k <= 7; k++ {
		f.commit(k, 75)
	}

	resp, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire codec, as the transport does.
	decoded, err := wire.DecodeSyncResp(wire.EncodeSyncResp(resp))
	if err != nil {
		t.Fatal(err)
	}

	client, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ledger, err := InstallSync(client, f.scheme, decoded, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledger.Table().Balance(f.bob.Address()), f.ledger.Table().Balance(f.bob.Address()); got != want {
		t.Errorf("synced bob balance %d, want %d", got, want)
	}
	ld, sd := f.ledger.BlockDigests(), ledger.BlockDigests()
	for k, d := range ld {
		if sd[k] != d {
			t.Errorf("synced block %d digest mismatch", k)
		}
	}
	if last, ok := client.LastK(); !ok || last != 7 {
		t.Fatalf("client LastK = %d/%v, want 7/true", last, ok)
	}
}

func TestInstallSyncRejectsTamperedBody(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	b := f.commit(1, 10)
	resp, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: claim a different digest for the same body.
	rec := &BlockRecord{K: b.K, Digest: types.Hash([]byte("lie")), Decision: mustUncertified(t, b)}
	payload, _ := rec.AppendBinary(nil)
	resp.Log = wire.AppendRecord(nil, wire.RecordBlock, payload)
	client, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := InstallSync(client, f.scheme, resp, f.seed); err == nil {
		t.Fatal("tampered sync response installed")
	}
}

func TestCrossCheckMajority(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 10)
	}
	honest, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	// A lying peer forks block 1 with an empty block.
	liar := &wire.SyncResp{LastK: honest.LastK}
	rec := &BlockRecord{K: 1, Digest: bm.NewBlock(1, nil).Digest, Decision: &sbc.Decision{Instance: 1 << 10}}
	payload, _ := rec.AppendBinary(nil)
	liar.Log = wire.AppendRecord(nil, wire.RecordBlock, payload)

	picked, err := CrossCheck([]*wire.SyncResp{honest, liar, honest})
	if err != nil {
		t.Fatal(err)
	}
	key1, _ := chainKey(picked)
	key2, _ := chainKey(honest)
	if key1 != key2 {
		t.Fatal("cross-check picked the liar")
	}
	if _, err := CrossCheck([]*wire.SyncResp{honest, liar}); err == nil {
		t.Fatal("50/50 split produced a winner")
	}
}

// TestCrossCheckVotesOnTheCheckpointBytes: a responder that sends the
// majority's chain beside a checkpoint of its own — one crediting 2^40
// coins to an address nobody paid — and claims a thousand more blocks does
// not win the vote. The chain's digests do not cover the checkpoint's
// outputs, so the vote is on the checkpoint's bytes too, and the one
// installed is the one a majority sent.
func TestCrossCheckVotesOnTheCheckpointBytes(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	for k := uint64(1); k <= 4; k++ {
		f.commit(k, 75)
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	f.commit(5, 75)
	var honest [2]*wire.SyncResp
	for i := range honest {
		resp, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = resp
	}
	cp, err := wire.DecodeCheckpoint(honest[0].Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	thief := utxo.Address(types.Hash([]byte("thief")))
	cp.UTXOs = append(cp.UTXOs, wire.UTXOEntry{
		Op:  utxo.Outpoint{TxID: types.Hash([]byte("forged"))},
		Out: utxo.Output{Account: thief, Value: 1 << 40},
	})
	forged := &wire.SyncResp{LastK: honest[0].LastK + 1000, Checkpoint: wire.EncodeCheckpoint(cp), Log: honest[0].Log}

	picked, err := CrossCheck([]*wire.SyncResp{honest[0], forged, honest[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(picked.Checkpoint, honest[0].Checkpoint) {
		t.Fatalf("cross-check picked a checkpoint one responder of three sent (LastK %d)", picked.LastK)
	}
	client, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ledger, err := InstallSync(client, f.scheme, picked, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := ledger.Table().Balance(thief); got != 0 {
		t.Fatalf("installed ledger credits %d coins to an address nobody paid", got)
	}
	if _, err := CrossCheck([]*wire.SyncResp{honest[0], forged}); err == nil {
		t.Fatal("two responders with different checkpoints produced a winner")
	}
}

// TestCheckpointKeepsRacingTailRecords pins the cut filter: a block
// appended after the snapshot was captured but before WriteCheckpoint
// ran (the legal checkpoint race) must survive both in memory and
// across a reopen.
func TestCheckpointKeepsRacingTailRecords(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 40)
	}
	cp := f.ledger.CheckpointState() // snapshot captured at K=3...
	f.commit(4, 40)                  // ...block 4 races past the cut
	if err := f.store.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, at := range f.store.tail {
		if at.k == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("block 4 dropped from the in-memory tail by the checkpoint cut")
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if last, _ := s.LastK(); last != 4 {
		t.Fatalf("reopened LastK = %d, want 4", last)
	}
	f.checkRecovered(s)
}

// TestPrunedMergeLeavesTheTail: a merge, then a checkpoint whose cut
// prunes the merge's segment. The running store's tail loses the
// supersede record with its frame, as a reopen of the same directory
// does, so both answer a catch-up request with the same bytes and
// recover the same ledger.
func TestPrunedMergeLeavesTheTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 256} // a segment per flushed record
	f := newFixture(t, dir, opts)
	flush := func() {
		t.Helper()
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	f.commit(1, 100)
	flush()
	inputs, err := f.ledger.Table().InputsFor(f.alice.Address(), 400)
	if err != nil {
		t.Fatal(err)
	}
	txSelf, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.alice.Address(), Value: 400}})
	if err != nil {
		t.Fatal(err)
	}
	remote := bm.NewBlock(1, []*utxo.Transaction{txSelf})
	f.ledger.MergeBlock(remote)
	if err := f.store.Append(&BlockRecord{Supersede: true, K: 1, Digest: remote.Digest, Decision: mustUncertified(t, remote)}); err != nil {
		t.Fatal(err)
	}
	flush()
	for k := uint64(2); k <= 3; k++ {
		f.commit(k, 100)
		flush()
	}
	merged := filepath.Join(dir, "log", "wal-00000002.seg")
	if _, err := os.Stat(merged); err != nil {
		t.Fatalf("the merge's segment: %v", err)
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(merged); !os.IsNotExist(err) {
		t.Fatalf("the checkpoint kept the merge's segment: %v", err)
	}
	f.commit(4, 100)

	req := &wire.SyncReq{FromK: 1, WantCheckpoint: true}
	running, err := f.store.BuildSyncResp(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reopened, err := s.BuildSyncResp(req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := wire.EncodeSyncResp(running), wire.EncodeSyncResp(reopened); !bytes.Equal(a, b) {
		t.Fatalf("running store answers %d log bytes, the reopened one %d", len(running.Log), len(reopened.Log))
	}
	f.checkRecovered(s)
}

// TestInstallSyncRejectsGappedLog pins the gap check: a transfer whose
// log starts past block 1 with no checkpoint to bridge it must be
// rejected before anything is written.
func TestInstallSyncRejectsGappedLog(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	f.commit(1, 10)
	f.commit(2, 10)
	resp, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := InstallSync(client, f.scheme, resp, f.seed); err == nil {
		t.Fatal("gapped transfer installed")
	}
	if _, have := client.LastK(); have {
		t.Fatal("rejected transfer left state in the store")
	}
}

// TestBuildSyncRespBridgesCheckpoint pins that a server whose
// checkpoint covers the requested range includes the snapshot even when
// the requester did not ask for one: without it the transfer would have
// a silent gap.
func TestBuildSyncRespBridgesCheckpoint(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 30)
	}
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	f.commit(4, 30)
	resp, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Checkpoint) == 0 {
		t.Fatal("response omits the checkpoint its log depends on")
	}
	client, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ledger, err := InstallSync(client, f.scheme, resp, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledger.Table().Balance(f.bob.Address()), f.ledger.Table().Balance(f.bob.Address()); got != want {
		t.Fatalf("bridged install balance %d, want %d", got, want)
	}
}

// TestStoreCRCFlipInLastSegmentFailsOpen pins that a CRC mismatch with
// real data after it is corruption even in the last segment: truncating
// there would silently delete the valid records that follow.
func TestStoreCRCFlipInLastSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 100)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "log", "wal-00000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open accepted a CRC-bad frame followed by valid records")
	}
}

// TestStoreZeroPageTailTruncatedOnOpen pins the other torn-write shape:
// a tail of unwritten (all-zero) pages is truncated away like a cut
// frame.
func TestStoreZeroPageTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	for k := uint64(1); k <= 2; k++ {
		f.commit(k, 100)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "log", "wal-00000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, make([]byte, 512)...)
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after zero-page tail: %v", err)
	}
	defer s.Close()
	if last, ok := s.LastK(); !ok || last != 2 {
		t.Fatalf("LastK = %d/%v, want 2/true", last, ok)
	}
}
