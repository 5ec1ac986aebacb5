package wire_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/layouts.golden")

// goldenTx is a transaction with fixed fields, so its encoding is the same
// on every run.
func goldenTx(nonce uint64) *utxo.Transaction {
	return &utxo.Transaction{
		Inputs:  []utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("prev")), Index: 1}, Value: 50}},
		Outputs: []utxo.Output{{Account: utxo.Address(types.Hash([]byte("to"))), Value: 50}},
		Nonce:   nonce,
		Sender:  []byte("sender-key"),
		Sig:     bytes.Repeat([]byte{0x5a}, 64),
	}
}

// goldenPoFs are two proofs of fraud against replica 3 with fixed
// signature bytes.
func goldenPoFs() []accountability.PoF {
	stmt := accountability.Statement{Context: accountability.CtxMain, Kind: accountability.KindAux,
		Instance: 7 << 10, Slot: 2, Round: 1, Value: types.Hash([]byte("v"))}
	a := accountability.Signed{Stmt: stmt, Signer: 3, Sig: bytes.Repeat([]byte{3}, 64)}
	b := a
	b.Stmt.Value = types.Hash([]byte("w"))
	b.Sig = bytes.Repeat([]byte{4}, 64)
	return []accountability.PoF{{Culprit: 3, A: a, B: b}, {Culprit: 3, A: b, B: a}}
}

// goldenDecision is a decision of a committee of three with fixed
// signature bytes: slots 1 and 2 decided 1 on payload, which both carry,
// slot 3 decided 0; one binary certificate of two votes per slot, and a
// READY certificate and a signed INIT for slot 1.
func goldenDecision(payload []byte) *sbc.Decision {
	inst := types.Instance(3 << 10)
	cert := func(kind accountability.Kind, slot uint32, value types.Digest) *accountability.Certificate {
		stmt := accountability.Statement{Context: accountability.CtxMain, Kind: kind, Instance: inst, Slot: slot, Value: value}
		return &accountability.Certificate{Stmt: stmt, Sigs: []accountability.Signed{
			{Stmt: stmt, Signer: 1, Sig: bytes.Repeat([]byte{1}, 64)},
			{Stmt: stmt, Signer: 2, Sig: bytes.Repeat([]byte{2}, 64)},
		}}
	}
	digest := types.Hash(payload)
	init := cert(accountability.KindInit, 1, digest).Sigs[0]
	return &sbc.Decision{
		Instance: inst,
		Bits:     map[types.ReplicaID]bool{1: true, 2: true, 3: false},
		Proposals: map[types.ReplicaID]sbc.ProposalInfo{
			1: {Broadcaster: 1, Payload: payload, Digest: digest, ClaimedBytes: len(payload), ClaimedSigs: 2},
			2: {Broadcaster: 2, Payload: payload, Digest: digest, ClaimedBytes: len(payload), ClaimedSigs: 2},
		},
		BinCerts: map[types.ReplicaID]*accountability.Certificate{
			1: cert(accountability.KindAux, 1, accountability.BoolDigest(true)),
			2: cert(accountability.KindAux, 2, accountability.BoolDigest(true)),
			3: cert(accountability.KindAux, 3, accountability.BoolDigest(false)),
		},
		ReadyCerts: map[types.ReplicaID]*accountability.Certificate{1: cert(accountability.KindReady, 1, digest)},
		InitStmts:  map[types.ReplicaID]*accountability.Signed{1: &init},
	}
}

// TestLayoutsGolden pins the bytes of the layouts the store writes to disk
// and a -sync bootstrap sends, and of the membership proposal payloads:
// a round trip alone would pass a change made to encoder and decoder
// alike. Rewrite with -update only for a deliberate format change.
func TestLayoutsGolden(t *testing.T) {
	batch, err := wire.EncodeBatch([]*utxo.Transaction{goldenTx(1), goldenTx(2)})
	if err != nil {
		t.Fatal(err)
	}
	block, _ := (&store.BlockRecord{K: 3, Attempt: 1, Digest: types.Hash([]byte("d")),
		Decision: goldenDecision(batch)}).AppendBinary(nil)
	record := wire.AppendRecord(nil, wire.RecordSupersede, block)
	checkpoint := wire.EncodeCheckpoint(&wire.CheckpointState{
		LastK:   9,
		Deposit: 12345,
		Blocks: []wire.BlockDigest{
			{K: 1, Digest: types.Hash([]byte("b1")), Decision: types.Hash([]byte("d1"))},
			{K: 2, Digest: types.Hash([]byte("b2")), Decision: types.Hash([]byte("d2"))},
		},
		Merged: []types.Digest{types.Hash([]byte("m"))},
		UTXOs: []wire.UTXOEntry{{Op: utxo.Outpoint{TxID: types.Hash([]byte("t")), Index: 4},
			Out: utxo.Output{Account: utxo.Address(types.Hash([]byte("a"))), Value: 55}}},
		TxIDs:            []types.Digest{types.Hash([]byte("x")), types.Hash([]byte("y"))},
		Punished:         []utxo.Address{utxo.Address(types.Hash([]byte("p")))},
		DepositInputs:    []wire.DepositInput{{Op: utxo.Outpoint{TxID: types.Hash([]byte("di")), Index: 1}, Value: 99}},
		MergedTxs:        3,
		DepositFundedTxs: 2,
		Refunds:          1,
	})
	layouts := []struct {
		name string
		enc  []byte
	}{
		{"batch", batch},
		{"block-record", block},
		{"record-frame", record},
		{"checkpoint", checkpoint},
		{"sync-req", wire.EncodeSyncReq(&wire.SyncReq{FromK: 17, WantCheckpoint: true})},
		{"sync-resp", wire.EncodeSyncResp(&wire.SyncResp{LastK: 9, Checkpoint: checkpoint, Log: record})},
		{"pofs", accountability.AppendPoFs(nil, goldenPoFs())},
		{"replicas", wire.AppendReplicas(nil, []types.ReplicaID{1, 2, 5})},
	}
	var got bytes.Buffer
	for _, l := range layouts {
		fmt.Fprintf(&got, "%s %s\n", l.name, hex.EncodeToString(l.enc))
	}
	compareGolden(t, "testdata/layouts.golden", got.Bytes())
}

// compareGolden fails the test where got differs from the golden file, or
// rewrites the file under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}
