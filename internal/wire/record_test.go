package wire

import (
	"bytes"
	"errors"
	"testing"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

func TestRecordFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("zlb"), 100)}
	var buf []byte
	for i, p := range payloads {
		buf = AppendRecord(buf, RecordKind(i%3+1), p)
	}
	rest := buf
	for i, p := range payloads {
		kind, payload, r, err := DecodeRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if kind != RecordKind(i%3+1) {
			t.Errorf("record %d: kind %d, want %d", i, kind, i%3+1)
		}
		if !bytes.Equal(payload, p) {
			t.Errorf("record %d: payload %q, want %q", i, payload, p)
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
}

func TestDecodeRecordTornTail(t *testing.T) {
	full := AppendRecord(nil, RecordBlock, []byte("payload-bytes"))
	for cut := 1; cut < len(full); cut++ {
		_, _, _, err := DecodeRecord(full[:cut])
		if err == nil {
			t.Fatalf("cut at %d: torn frame decoded", cut)
		}
	}
}

func TestDecodeRecordCorrupt(t *testing.T) {
	full := AppendRecord(nil, RecordBlock, []byte("payload-bytes"))
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		kind, payload, _, err := DecodeRecord(mut)
		if err == nil && kind == RecordBlock && bytes.Equal(payload, []byte("payload-bytes")) {
			t.Fatalf("flip at %d: corruption not detected", i)
		}
	}
}

func testCheckpoint() *CheckpointState {
	return &CheckpointState{
		LastK:   9,
		Deposit: 12345,
		Blocks: []BlockDigest{
			{K: 1, Digest: types.Hash([]byte("b1")), Decision: types.Hash([]byte("d1"))},
			{K: 2, Digest: types.Hash([]byte("b2")), Decision: types.Hash([]byte("d2"))},
		},
		Merged: []types.Digest{types.Hash([]byte("m"))},
		UTXOs: []UTXOEntry{
			{Op: utxo.Outpoint{TxID: types.Hash([]byte("t")), Index: 4},
				Out: utxo.Output{Account: utxo.Address(types.Hash([]byte("a"))), Value: 55}},
		},
		TxIDs:    []types.Digest{types.Hash([]byte("x")), types.Hash([]byte("y"))},
		Punished: []utxo.Address{utxo.Address(types.Hash([]byte("p")))},
		DepositInputs: []DepositInput{
			{Op: utxo.Outpoint{TxID: types.Hash([]byte("di")), Index: 1}, Value: 99},
		},
		MergedTxs:        3,
		DepositFundedTxs: 2,
		Refunds:          1,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := testCheckpoint()
	got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got.LastK != cp.LastK || got.Deposit != cp.Deposit ||
		got.MergedTxs != cp.MergedTxs || got.DepositFundedTxs != cp.DepositFundedTxs ||
		got.Refunds != cp.Refunds {
		t.Errorf("scalars mismatch: %+v vs %+v", got, cp)
	}
	if len(got.Blocks) != 2 || got.Blocks[1] != cp.Blocks[1] {
		t.Errorf("blocks mismatch: %+v", got.Blocks)
	}
	if len(got.Merged) != 1 || got.Merged[0] != cp.Merged[0] {
		t.Errorf("merged mismatch: %+v", got.Merged)
	}
	if len(got.UTXOs) != 1 || got.UTXOs[0] != cp.UTXOs[0] {
		t.Errorf("utxos mismatch: %+v", got.UTXOs)
	}
	if len(got.TxIDs) != 2 || got.TxIDs[0] != cp.TxIDs[0] {
		t.Errorf("txids mismatch: %+v", got.TxIDs)
	}
	if len(got.Punished) != 1 || got.Punished[0] != cp.Punished[0] {
		t.Errorf("punished mismatch: %+v", got.Punished)
	}
	if len(got.DepositInputs) != 1 || got.DepositInputs[0] != cp.DepositInputs[0] {
		t.Errorf("deposit inputs mismatch: %+v", got.DepositInputs)
	}
}

func TestCheckpointDecodeTruncated(t *testing.T) {
	enc := EncodeCheckpoint(testCheckpoint())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCheckpoint(enc[:cut]); err == nil {
			t.Fatalf("cut at %d: truncated checkpoint decoded", cut)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestSyncReqRoundTrip(t *testing.T) {
	for _, req := range []*SyncReq{{FromK: 0}, {FromK: 17, WantCheckpoint: true}} {
		got, err := DecodeSyncReq(EncodeSyncReq(req))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *req {
			t.Errorf("got %+v, want %+v", got, req)
		}
	}
	if _, err := DecodeSyncReq([]byte{1, 2}); err == nil {
		t.Fatal("short sync req decoded")
	}
	// The flag is 0 or 1: a request reading {…, 2} would re-encode as
	// {…, 0}, so it is refused.
	if _, err := DecodeSyncReq([]byte{0, 0, 0, 0, 0, 0, 0, 17, 2}); !errors.Is(err, ErrNonCanonical) {
		t.Fatalf("flag byte 2: %v, want ErrNonCanonical", err)
	}
}

func TestSyncRespRoundTrip(t *testing.T) {
	log := AppendRecord(nil, RecordBlock, []byte("r1"))
	log = AppendRecord(log, RecordSupersede, []byte("r2"))
	resp := &SyncResp{LastK: 5, Checkpoint: EncodeCheckpoint(testCheckpoint()), Log: log}
	got, err := DecodeSyncResp(EncodeSyncResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.LastK != 5 || !bytes.Equal(got.Checkpoint, resp.Checkpoint) || !bytes.Equal(got.Log, resp.Log) {
		t.Errorf("sync resp did not round-trip")
	}
	empty := &SyncResp{LastK: 1}
	got, err = DecodeSyncResp(EncodeSyncResp(empty))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Checkpoint) != 0 || len(got.Log) != 0 {
		t.Errorf("empty sync resp did not round-trip: %+v", got)
	}
}
