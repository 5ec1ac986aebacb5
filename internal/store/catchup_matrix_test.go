package store

import (
	"testing"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/wire"
)

// TestCatchupMatrix runs the full standby catch-up path — BuildSyncResp,
// wire round trip, CrossCheck across responders (one lying), InstallSync
// and a post-install Recover — under every wallet-capable payment
// scheme. The store's transfer format is scheme-independent (chain
// digests + CRC-framed records, no per-certificate payload), so
// acceptance must not vary by scheme; the sim scheme is absent by
// design: its registry-backed MACs cannot sign wallet transactions, and
// the public API rejects it for payments (zlb.Config.Scheme).
func TestCatchupMatrix(t *testing.T) {
	for _, kind := range []crypto.SchemeKind{crypto.SchemeECDSA, crypto.SchemeEd25519} {
		t.Run(kind.String(), func(t *testing.T) {
			f := newSchemeFixture(t, t.TempDir(), Options{}, kind)
			for k := uint64(1); k <= 4; k++ {
				f.commit(k, 50)
			}
			if err := f.store.WriteCheckpoint(f.ledger.CheckpointState()); err != nil {
				t.Fatal(err)
			}
			for k := uint64(5); k <= 6; k++ {
				f.commit(k, 50)
			}

			honest, err := f.store.BuildSyncResp(&wire.SyncReq{FromK: 1, WantCheckpoint: true})
			if err != nil {
				t.Fatal(err)
			}
			// A lying responder forks the chain at block 1, with an empty
			// block.
			rec := &BlockRecord{K: 1, Digest: bm.NewBlock(1, nil).Digest, Decision: &sbc.Decision{Instance: 1 << 10}}
			payload, _ := rec.AppendBinary(nil)
			liar := &wire.SyncResp{
				LastK: honest.LastK,
				Log:   wire.AppendRecord(nil, wire.RecordBlock, payload),
			}

			picked, err := CrossCheck([]*wire.SyncResp{honest, liar, honest})
			if err != nil {
				t.Fatal(err)
			}
			// As the transport would deliver it.
			decoded, err := wire.DecodeSyncResp(wire.EncodeSyncResp(picked))
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
				t.Fatalf("%v: install rejected: %v", kind, err)
			}
			if got, want := ledger.Table().Balance(f.bob.Address()), f.ledger.Table().Balance(f.bob.Address()); got != want {
				t.Errorf("synced balance %d, want %d", got, want)
			}
			ld, sd := f.ledger.BlockDigests(), ledger.BlockDigests()
			for k, d := range ld {
				if sd[k] != d {
					t.Errorf("synced block %d digest mismatch", k)
				}
			}
			f.checkRecovered(client)
		})
	}
}
