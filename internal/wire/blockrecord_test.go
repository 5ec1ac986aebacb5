package wire_test

import (
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// The store's block record (internal/store, record.go) is a layout this
// directory pins beside the record frame that carries it: golden_test.go
// holds its bytes, the tests below its round trip and its decoder's
// behaviour on arbitrary input.

func TestBlockRecordRoundTrip(t *testing.T) {
	batch, err := wire.EncodeBatch([]*utxo.Transaction{goldenTx(1), goldenTx(2)})
	if err != nil {
		t.Fatal(err)
	}
	rec := &store.BlockRecord{K: 42, Attempt: 3, Digest: types.Hash([]byte("d")), Decision: goldenDecision(batch)}
	enc, _ := rec.AppendBinary(nil)
	got, err := wire.Decode(enc, store.ReadBlockRecord)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) || got.Decision.Digest() != rec.Decision.Digest() {
		t.Errorf("block record read back as %+v, want %+v", got, rec)
	}
}

// TestBlockRecordEmptyTxs: a record whose decision selected no proposal
// round-trips; one without a decision does not decode.
func TestBlockRecordEmptyTxs(t *testing.T) {
	rec := &store.BlockRecord{K: 7, Digest: types.Hash([]byte("empty")), Decision: &sbc.Decision{Instance: 7 << 10, Bits: map[types.ReplicaID]bool{1: false}}}
	enc, _ := rec.AppendBinary(nil)
	got, err := wire.Decode(enc, store.ReadBlockRecord)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 7 || got.Digest != rec.Digest || got.Decision.Digest() != rec.Decision.Digest() {
		t.Errorf("record read back as %+v, want %+v", got, rec)
	}
	if got, err := wire.Decode(enc[:8+4+32+1], store.ReadBlockRecord); err == nil {
		t.Errorf("a record cut after its decision's flag decoded to %+v", got)
	}
	noDecision := append(enc[:8+4+32:8+4+32], 0)
	if got, err := wire.Decode(noDecision, store.ReadBlockRecord); err == nil {
		t.Errorf("a record without a decision decoded to %+v", got)
	}
}

func FuzzDecodeBlockRecord(f *testing.F) {
	f.Add([]byte{})
	batch, _ := wire.EncodeBatch([]*utxo.Transaction{goldenTx(1)})
	seed, _ := (&store.BlockRecord{K: 3, Attempt: 1, Digest: types.Hash([]byte("d")), Decision: goldenDecision(batch)}).AppendBinary(nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := wire.Decode(data, store.ReadBlockRecord)
		if err != nil {
			return
		}
		r.AppendBinary(nil) // a decoded record re-encodes
	})
}
