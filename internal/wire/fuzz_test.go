package wire

import (
	"testing"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// The decoders in this package parse attacker-controlled bytes: batch
// payloads arrive through consensus proposals, PoF sets and replica
// lists through membership proposals, and store-record/sync frames
// through the catch-up service. Each fuzz target pins the only
// acceptable outcomes — a successful decode or a returned error, never a
// panic — and, where cheap, that a successful decode re-encodes
// faithfully. Seed corpora live under testdata/fuzz/<Target>/; run a
// target longer with `go test -fuzz FuzzDecodeBatch ./internal/wire`.

// fuzzBatch builds a small valid batch payload for the seed corpus.
func fuzzBatch() []byte {
	tx := &utxo.Transaction{
		Inputs:  []utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("prev")), Index: 1}, Value: 50}},
		Outputs: []utxo.Output{{Account: utxo.Address(types.Hash([]byte("to"))), Value: 50}},
		Nonce:   1,
		Sender:  []byte("sender-key"),
		Sig:     []byte("signature"),
	}
	payload, _ := EncodeBatch([]*utxo.Transaction{tx})
	return payload
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ZLB1"))
	f.Add(fuzzBatch())
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		// A decoded batch must re-encode: the decoder memoizes the input
		// bytes as each transaction's canonical encoding.
		if _, err := EncodeBatch(txs); err != nil {
			t.Fatalf("decoded batch fails to re-encode: %v", err)
		}
	})
}

func FuzzDecodeTransaction(f *testing.F) {
	f.Add([]byte{})
	tx := &utxo.Transaction{
		Inputs:  []utxo.Input{{Prev: utxo.Outpoint{TxID: types.Hash([]byte("p")), Index: 0}, Value: 9}},
		Outputs: []utxo.Output{{Account: utxo.Address(types.Hash([]byte("t"))), Value: 9}},
		Sender:  []byte("k"),
	}
	f.Add(append([]byte(nil), tx.Canonical()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := utxo.DecodeTransaction(data)
		if err != nil {
			return
		}
		decoded.ID() // must hash without panicking
	})
}

func FuzzDecodeReplicas(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := Decode(data, ReadReplicas)
		if err != nil {
			return
		}
		if enc := AppendReplicas(nil, ids); string(enc) != string(data) {
			t.Fatalf("replica list did not round-trip")
		}
	})
}

func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, RecordBlock, []byte("payload")))
	f.Add(AppendRecord(AppendRecord(nil, RecordSupersede, nil), RecordCheckpoint, make([]byte, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for len(rest) > 0 {
			kind, payload, next, err := DecodeRecord(rest)
			if err != nil {
				return
			}
			reenc := AppendRecord(nil, kind, payload)
			if string(reenc) != string(rest[:len(rest)-len(next)]) {
				t.Fatalf("record frame did not round-trip")
			}
			rest = next
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeCheckpoint(&CheckpointState{}))
	f.Add(EncodeCheckpoint(&CheckpointState{
		LastK:   2,
		Deposit: 7,
		Blocks:  []BlockDigest{{K: 1, Digest: types.Hash([]byte("b")), Decision: types.Hash([]byte("d"))}},
		UTXOs: []UTXOEntry{{Op: utxo.Outpoint{TxID: types.Hash([]byte("t"))},
			Out: utxo.Output{Account: utxo.Address(types.Hash([]byte("a"))), Value: 5}}},
		TxIDs: []types.Digest{types.Hash([]byte("x"))},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		reenc := EncodeCheckpoint(cp)
		if string(reenc) != string(data) {
			t.Fatalf("checkpoint did not round-trip")
		}
	})
}

func FuzzDecodeSyncReq(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSyncReq(&SyncReq{FromK: 4, WantCheckpoint: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSyncReq(data)
		if err != nil {
			return
		}
		if reenc := EncodeSyncReq(req); string(reenc) != string(data) {
			t.Fatalf("sync req did not round-trip")
		}
	})
}

func FuzzDecodeSyncResp(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSyncResp(&SyncResp{LastK: 9, Checkpoint: EncodeCheckpoint(&CheckpointState{LastK: 9}),
		Log: AppendRecord(nil, RecordBlock, []byte("r"))}))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeSyncResp(data)
		if err != nil {
			return
		}
		reenc := EncodeSyncResp(resp)
		if string(reenc) != string(data) {
			t.Fatalf("sync resp did not round-trip")
		}
	})
}
