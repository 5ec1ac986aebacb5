package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// certified is a decision at k in the shape a committee of four decides:
// slots 1–3 decided 1 with the given payloads, slot 4 decided 0, each
// slot with a binary certificate of three votes, and the slots decided 1
// with a READY certificate and a signed INIT. The signatures are bytes,
// not checked by the store.
func certified(k uint64, payloads map[types.ReplicaID][]byte) *sbc.Decision {
	d := &sbc.Decision{Instance: types.Instance(k << 10), Bits: map[types.ReplicaID]bool{4: false},
		Proposals:  map[types.ReplicaID]sbc.ProposalInfo{},
		BinCerts:   map[types.ReplicaID]*accountability.Certificate{},
		ReadyCerts: map[types.ReplicaID]*accountability.Certificate{},
		InitStmts:  map[types.ReplicaID]*accountability.Signed{},
	}
	cert := func(kind accountability.Kind, slot types.ReplicaID, value types.Digest) *accountability.Certificate {
		stmt := accountability.Statement{Context: accountability.CtxMain, Kind: kind, Instance: d.Instance, Slot: uint32(slot), Value: value}
		c := &accountability.Certificate{Stmt: stmt}
		for signer := types.ReplicaID(1); signer <= 3; signer++ {
			c.Sigs = append(c.Sigs, accountability.Signed{Stmt: stmt, Signer: signer, Sig: bytes.Repeat([]byte{byte(signer)}, 64)})
		}
		return c
	}
	for slot, payload := range payloads {
		digest := types.Hash(payload)
		d.Bits[slot] = true
		d.Proposals[slot] = sbc.ProposalInfo{Broadcaster: slot, Payload: payload, Digest: digest, ClaimedBytes: len(payload), ClaimedSigs: 1}
		d.ReadyCerts[slot] = cert(accountability.KindReady, slot, digest)
		init := cert(accountability.KindInit, slot, digest).Sigs[0]
		d.InitStmts[slot] = &init
	}
	for slot, bit := range d.Bits {
		d.BinCerts[slot] = cert(accountability.KindAux, slot, accountability.BoolDigest(bit))
	}
	return d
}

// decide pays amount from alice to bob at index k and commits the block
// the way a node does: derived from a certified decision, to the ledger
// and then to the store with the decision. With shared, the three slots
// decided 1 carry the same payload.
func (f *fixture) decide(k uint64, amount types.Amount, shared bool) *sbc.Decision {
	f.t.Helper()
	inputs, err := f.ledger.Table().InputsFor(f.alice.Address(), amount)
	if err != nil {
		f.t.Fatal(err)
	}
	tx, err := f.alice.Pay(inputs, []utxo.Output{{Account: f.bob.Address(), Value: amount}})
	if err != nil {
		f.t.Fatal(err)
	}
	payload, err := wire.EncodeBatch([]*utxo.Transaction{tx})
	if err != nil {
		f.t.Fatal(err)
	}
	payloads := map[types.ReplicaID][]byte{1: payload, 2: []byte("not a batch"), 3: nil}
	if shared {
		payloads = map[types.ReplicaID][]byte{1: payload, 2: payload, 3: payload}
	}
	d := certified(k, payloads)
	b := BlockFrom(k, d, wire.DecodeBatch)
	if len(b.Txs) != 1 {
		f.t.Fatalf("block %d derives %d transactions, want 1", k, len(b.Txs))
	}
	f.ledger.CommitBlock(b)
	if err := f.store.Append(&BlockRecord{K: k, Digest: b.Digest, Decision: d}); err != nil {
		f.t.Fatal(err)
	}
	return d
}

// TestDecisionsReadBackFromTheStore appends certified decisions, prunes
// the first ones under a checkpoint and reopens the store: each retained
// decision reads back equal to the one appended, a pruned one is
// ErrPruned, and the chain recovers from the decisions alone.
func TestDecisionsReadBackFromTheStore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2 << 10}
	f := newFixture(t, dir, opts)
	decided := make(map[uint64]*sbc.Decision)
	for k := uint64(1); k <= 6; k++ {
		decided[k] = f.decide(k, types.Amount(10*k), k%2 == 0)
		if k == 3 {
			if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := f.store.Decision(6); err != nil {
		t.Fatalf("reading a decision still buffered: %v", err)
	}
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f.checkRecovered(s)
	for k := uint64(1); k <= 3; k++ {
		if _, err := s.Decision(k); !errors.Is(err, ErrPruned) {
			t.Errorf("decision %d below the checkpoint: %v, want ErrPruned", k, err)
		}
	}
	for k := uint64(4); k <= 6; k++ {
		got, err := s.Decision(k)
		if err != nil {
			t.Fatalf("decision %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, decided[k]) || got.Digest() != decided[k].Digest() {
			t.Fatalf("decision %d read back as %+v, appended %+v", k, got, decided[k])
		}
	}
	if _, err := s.Decision(7); err == nil || errors.Is(err, ErrPruned) {
		t.Errorf("decision past the chain: %v, want an error other than ErrPruned", err)
	}
	if s.RetainedBytes() == 0 {
		t.Error("the store reports no retained bytes")
	}
}

// TestBlockRecordWritesAPayloadOnce: a payload three slots carry is
// written once in the block record and read back from a reopened store
// as one array, and encoding the record leaves the decision as it was.
func TestBlockRecordWritesAPayloadOnce(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	d := f.decide(1, 10, true)
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Decision(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != d.Digest() {
		t.Fatalf("decision read back with digest %x, appended %x", got.Digest(), d.Digest())
	}
	for _, slot := range []types.ReplicaID{2, 3} {
		if &got.Proposals[slot].Payload[0] != &got.Proposals[1].Payload[0] {
			t.Errorf("slot %d's payload is a copy of slot 1's", slot)
		}
	}
	shared := len(d.Proposals[1].Payload)
	full, _ := d.AppendBinary(nil)
	if rec, _ := (&BlockRecord{K: 1, Decision: d}).AppendBinary(nil); len(rec) > 8+4+32+len(full)-2*shared {
		t.Errorf("record of %d bytes, %d with every payload written out: the shared payload is written more than once", len(rec), 8+4+32+len(full))
	}
	if len(d.Proposals[2].Payload) != shared {
		t.Error("encoding the record changed the decision it was given")
	}
}

// TestDecisionReadRefusesDamage alters each byte of a block record on
// disk in turn, and then cuts the segment short: no read returns the
// decision.
func TestDecisionReadRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir, Options{})
	d := f.decide(1, 10, false)
	if err := f.store.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "log", "wal-00000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for off := range raw {
		if _, err := file.WriteAt([]byte{raw[off] ^ 0x41}, int64(off)); err != nil {
			t.Fatal(err)
		}
		if got, err := f.store.Decision(1); err == nil && reflect.DeepEqual(got, d) {
			t.Fatalf("byte %d altered and the same decision read back", off)
		} else if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d altered: %v, want ErrCorrupt", off, err)
		}
		if _, err := file.WriteAt(raw[off:off+1], int64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := file.Truncate(int64(len(raw) - 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := f.store.Decision(1); err == nil {
		t.Errorf("a short read decoded to %+v", got)
	}
}

// TestCheckpointThatDoesNotDecodeRefusesToOpen: a checkpoint of the
// format before decision digests, one of a foreign format and one cut
// short each fail Open as corruption, the first two named, instead of
// reopening as genesis plus the tail.
func TestCheckpointThatDoesNotDecodeRefusesToOpen(t *testing.T) {
	f := newFixture(t, t.TempDir(), Options{})
	f.commit(1, 10)
	good := wire.EncodeCheckpoint(f.ledger.CheckpointState())
	for _, c := range []struct {
		name, want string
		raw        []byte
	}{
		{"ZLC1", "ZLC1", append([]byte("ZLC1"), good[4:]...)},
		{"foreign", `"ABCD"`, append([]byte("ABCD"), good[4:]...)},
		{"truncated", "truncated", good[:len(good)/2]},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.ckpt"), c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{})
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s checkpoint: Open = %v, want ErrCorrupt naming %s", c.name, err, c.want)
		}
	}
}

// TestBlockRecordsOfTheOldFormatRefused: a log holding a block record of
// the format before blocks carried their decision fails Open, by name.
func TestBlockRecordsOfTheOldFormatRefused(t *testing.T) {
	for _, kind := range []wire.RecordKind{1, 2} {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
			t.Fatal(err)
		}
		frame := wire.AppendRecord(nil, kind, make([]byte, 8+4+32))
		if err := os.WriteFile(filepath.Join(dir, "log", "wal-00000001.seg"), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{})
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "before blocks carried their decision") {
			t.Errorf("record kind %d: Open = %v, want ErrCorrupt naming the old format", kind, err)
		}
	}
}

// TestReplayRefusesARecordWhoseDecisionDoesNotGiveItsBlock: a record
// whose decision derives a block of another digest than the one recorded
// fails Open as corruption.
func TestReplayRefusesARecordWhoseDecisionDoesNotGiveItsBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := bm.NewBlock(1, nil)
	if err := s.Append(&BlockRecord{K: 1, Digest: types.Hash([]byte("another block")), Decision: certified(1, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt (the decision derives %v)", err, other.Digest)
	}
}
