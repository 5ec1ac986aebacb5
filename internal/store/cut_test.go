package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// holdCut stops every cut's background half at each stage it reaches
// ("written", "renamed") until the test releases it: the stage arrives on
// the returned channel, and release lets that stage go on. The test's end
// releases whatever is still held.
func holdCut(t *testing.T) (stages <-chan string, release func()) {
	t.Helper()
	reached, proceed := make(chan string, 2), make(chan struct{})
	var once sync.Once
	cutStage = func(stage string) error {
		reached <- stage
		<-proceed
		return nil
	}
	t.Cleanup(func() {
		once.Do(func() { close(proceed) })
		cutStage = nil
	})
	return reached, func() { proceed <- struct{}{} }
}

// within runs op on another goroutine and fails the test unless it
// returns, without error, within a few seconds.
func within(t *testing.T, name string, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for the cut's write", name)
	}
}

// TestCutLeavesTheStoreFree: while a cut's write is held between its temp
// file and its rename, an append, a decision read and a catch-up answer
// go through without waiting for it, and the store answers as it did
// before the cut started; the next install adopts the cut.
func TestCutLeavesTheStoreFree(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{Fsync: true})
	for k := uint64(1); k <= 4; k++ {
		f.commit(k, 10)
	}
	stages, release := holdCut(t)
	within(t, "StartCheckpoint", func() error {
		_, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint())
		return err
	})
	if stage := <-stages; stage != "written" {
		t.Fatalf("cut held at %q, want written", stage)
	}

	b := f.pay(5, 10)
	within(t, "Append", func() error { return f.store.AppendBlock(b, 0) })
	within(t, "Decision", func() error {
		_, err := f.store.Decision(2)
		return err
	})
	var resp *wire.SyncResp
	within(t, "BuildSyncResp", func() (err error) {
		resp, err = f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
		return err
	})
	if resp.Checkpoint != nil || resp.LastK != 5 {
		t.Errorf("answer beside the cut: checkpoint of %d bytes, last %d; want none, 5", len(resp.Checkpoint), resp.LastK)
	}

	release() // written
	if stage := <-stages; stage != "renamed" {
		t.Fatalf("cut held at %q, want renamed", stage)
	}
	release()
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cutK != 4 {
		t.Errorf("reopened at cut %d, want 4", s.cutK)
	}
	f.checkRecovered(s)
}

// reopenCopy copies dir as a crash would leave it, opens the copy and
// checks that it recovers the fixture's chain with no gap. It returns the
// copy's cut height.
func reopenCopy(t *testing.T, f *fixture, dir string) uint64 {
	t.Helper()
	s, err := Open(crashCopy(t, f, dir), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f.checkRecovered(s)
	return s.cutK
}

// crashCopy flushes the fixture's store and copies dir as a crash would
// leave it, every file as the OS holds it. It returns the copy.
func crashCopy(t *testing.T, f *fixture, dir string) string {
	t.Helper()
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(cp, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(cp, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestReopenAtEachStageOfACut: the directory, copied as a crash leaves it
// at each stage of a cut — temp file written, renamed but not installed,
// installed — reopens to the appended chain with no gap, blocks appended
// beside the cut included. Only the install prunes.
func TestReopenAtEachStageOfACut(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{SegmentBytes: 256, Fsync: true})
	for k := uint64(1); k <= 6; k++ {
		f.commit(k, 50)
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() int {
		segs, _ := filepath.Glob(filepath.Join(dir, "log", "wal-*.seg"))
		return len(segs)
	}
	before := segments()
	stages, release := holdCut(t)
	if _, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil {
		t.Fatal(err)
	}

	<-stages // written
	f.commit(7, 50)
	if k := reopenCopy(t, f, dir); k != 0 {
		t.Errorf("temp file written: the copy reopened at cut %d, want none", k)
	}
	release()

	<-stages // renamed
	f.commit(8, 50)
	if k := reopenCopy(t, f, dir); k != 6 {
		t.Errorf("renamed: the copy reopened at cut %d, want 6", k)
	}
	if f.store.cutK != 0 || segments() < before {
		t.Errorf("renamed: the running store is at cut %d with %d of %d segments, want 0 and none pruned", f.store.cutK, segments(), before)
	}
	release()

	f.commit(9, 50)
	if err := f.store.Close(); err != nil { // installs the cut
		t.Fatal(err)
	}
	if segments() >= before {
		t.Errorf("installed: %d segments, %d before the cut: nothing pruned", segments(), before)
	}
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cutK != 6 {
		t.Errorf("installed: reopened at cut %d, want 6", s.cutK)
	}
	f.checkRecovered(s)
}

// TestMergeBesideACutSurvivesItsInstall: a merge appended while a cut is
// in flight rewrites a block below the cut, and the cut's snapshot lacks
// it. The merge's segment is sealed, all of it below the cut, before the
// install; the install keeps it all the same, so the running store's
// catch-up answer holds the merge, and a reopen of the directory answers
// with the same bytes and recovers the merged ledger.
func TestMergeBesideACutSurvivesItsInstall(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{SegmentBytes: 256, Fsync: true}) // a segment per flushed record
	flush := func() {
		t.Helper()
		if err := f.store.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 50)
		flush()
	}
	stages, release := holdCut(t)
	if _, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil {
		t.Fatal(err)
	}
	<-stages // written
	release()
	<-stages // renamed
	release()

	inputs, err := f.ledger.Table().InputsFor(f.alice.Address(), 400)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.bob.Address(), Value: 400}})
	if err != nil {
		t.Fatal(err)
	}
	remote := bm.NewBlock(1, []*utxo.Transaction{tx})
	f.ledger.MergeBlock(remote)
	if err := f.store.Append(&BlockRecord{Supersede: true, K: 1, Digest: remote.Digest, Decision: mustUncertified(t, remote)}); err != nil {
		t.Fatal(err)
	}
	flush() // seals the merge's segment, whose last index is 1
	f.commit(4, 50)
	flush()
	f.commit(5, 50)

	// Install the cut at 3; hold the next one at its temp file, so the
	// directory's checkpoint stays the cut at 3.
	if cut, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil || cut == nil || cut.K != 3 {
		t.Fatalf("install: %+v, %v; want the cut at 3", cut, err)
	}
	<-stages // written
	req := &wire.SyncReq{FromK: 1, WantCheckpoint: true}
	running, err := f.store.BuildSyncResp(req)
	if err != nil {
		t.Fatal(err)
	}
	merges := 0
	for rest := running.Log; len(rest) > 0; {
		var kind wire.RecordKind
		if kind, _, rest, err = wire.DecodeRecord(rest); err != nil {
			t.Fatal(err)
		}
		if kind == wire.RecordSupersede {
			merges++
		}
	}
	if merges != 1 {
		t.Errorf("the running store's answer holds %d merges, want 1", merges)
	}

	s, err := Open(crashCopy(t, f, dir), Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reopened, err := s.BuildSyncResp(req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := wire.EncodeSyncResp(running), wire.EncodeSyncResp(reopened); !bytes.Equal(a, b) {
		t.Errorf("running store answers %d log bytes, the reopened one %d", len(running.Log), len(reopened.Log))
	}
	f.checkRecovered(s)
	r, err := s.Recover(f.scheme, f.seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.MergedTxs != f.ledger.MergedTxs {
		t.Errorf("reopened with %d merged transactions, want %d", r.MergedTxs, f.ledger.MergedTxs)
	}
	release()
	<-stages // renamed
	release()
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForTheCut: Close during a cut's write waits for it and
// installs it; the directory then reopens at that cut.
func TestCloseWaitsForTheCut(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{Fsync: true})
	for k := uint64(1); k <= 3; k++ {
		f.commit(k, 10)
	}
	stages, release := holdCut(t)
	if _, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil {
		t.Fatal(err)
	}
	<-stages // written
	closed := make(chan error, 1)
	go func() { closed <- f.store.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the cut was still writing")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	<-stages // renamed
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the cut was written")
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cutK != 3 {
		t.Errorf("reopened at cut %d, want 3", s.cutK)
	}
	f.checkRecovered(s)
}

// TestFailedCutReportedOnce: a cut whose write fails is reported by the
// call that installs it — not by the one that started it — and only
// there; the store keeps its checkpoint, its log and no temp file, and
// the next cut succeeds.
func TestFailedCutReportedOnce(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{Fsync: true})
	f.commit(1, 10)
	if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	errDisk, failures := errors.New("disk gone"), 1
	cutStage = func(stage string) error {
		if stage == "written" && failures > 0 {
			failures--
			return errDisk
		}
		return nil
	}
	t.Cleanup(func() { cutStage = nil })

	f.commit(2, 10)
	if cut, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil || cut != nil {
		t.Fatalf("starting the failing cut: %+v, %v; want nothing installed and no error", cut, err)
	}
	f.commit(3, 10)
	if cut, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); !errors.Is(err, errDisk) || cut != nil {
		t.Fatalf("install of the failed cut: %+v, %v; want its error", cut, err)
	}
	if f.store.cutK != 1 {
		t.Errorf("after the failed cut the store is at cut %d, want 1", f.store.cutK)
	}
	f.commit(4, 10)
	if cut, err := f.store.StartCheckpoint(f.ledger.CaptureCheckpoint()); err != nil || cut == nil || cut.K != 3 {
		t.Fatalf("install after the failure: %+v, %v; want the cut at 3", cut, err)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.cutK != 4 {
		t.Errorf("reopened at cut %d, want 4", s.cutK)
	}
	f.checkRecovered(s)
	if raw, _ := s.readCheckpointBytes(); !bytes.Equal(raw, wire.EncodeCheckpoint(f.ledger.CheckpointState())) {
		t.Error("the installed checkpoint is not the ledger's canonical snapshot")
	}
	if _, err := os.Stat(checkpointPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a temp file is left behind: %v", err)
	}
}
