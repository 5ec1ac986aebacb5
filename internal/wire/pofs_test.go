package wire_test

import (
	"bytes"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/wire"
)

// The PoF list, the exclusion proposal payload, is encoded beside its type
// in internal/accountability (which imports this package); its tests stay
// with the other payload layouts.

func TestPoFsRoundtrip(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindAux,
		Instance: 3,
		Slot:     1,
		Round:    2,
		Value:    accountability.BoolDigest(true),
	}
	stmtB := stmt
	stmtB.Value = accountability.BoolDigest(false)
	a, err := accountability.SignStatement(signers[1], stmt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := accountability.SignStatement(signers[1], stmtB)
	if err != nil {
		t.Fatal(err)
	}
	pof, err := accountability.NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}

	payload := accountability.AppendPoFs(nil, []accountability.PoF{pof})
	got, err := wire.Decode(payload, accountability.ReadPoFs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d pofs, want 1", len(got))
	}
	if !got[0].Verify(signers[0]) {
		t.Error("decoded PoF no longer verifies")
	}
	if got[0].Culprit != pof.Culprit {
		t.Errorf("culprit %v, want %v", got[0].Culprit, pof.Culprit)
	}
	if _, err := wire.Decode(payload[:len(payload)-2], accountability.ReadPoFs); err == nil {
		t.Error("truncated PoF payload accepted")
	}
}

func FuzzDecodePoFs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pofs, err := wire.Decode(data, accountability.ReadPoFs)
		if err != nil {
			return
		}
		if again := accountability.AppendPoFs(nil, pofs); !bytes.Equal(again, data) {
			t.Fatalf("pofs re-encode to other bytes:\n  in  %x\n  out %x", data, again)
		}
	})
}
