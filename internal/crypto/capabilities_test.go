package crypto

import (
	"bytes"
	"errors"
	"testing"

	"github.com/zeroloss/zlb/internal/types"
)

// Regression: Register used to silently overwrite an existing identity's
// key. A deceitful replica that swapped its key mid-run would make its
// older signed statements unverifiable — and proof-of-fraud attribution
// against them impossible — so re-registration with a different key must
// be rejected.
func TestRegisterRejectsKeySwap(t *testing.T) {
	for _, kind := range []SchemeKind{SchemeECDSA, SchemeEd25519, SchemeSim} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := NewRegistry(kind)
			scheme, err := NewScheme(kind, reg)
			if err != nil {
				t.Fatal(err)
			}
			kp1, err := scheme.GenerateKey(NewDeterministicRand(1))
			if err != nil {
				t.Fatal(err)
			}
			kp2, err := scheme.GenerateKey(NewDeterministicRand(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(1, kp1); err != nil {
				t.Fatal(err)
			}
			// Same key again: idempotent no-op.
			if err := reg.Register(1, kp1); err != nil {
				t.Fatalf("re-registering the same key: %v", err)
			}
			// Different key: rejected, original binding intact.
			if err := reg.Register(1, kp2); !errors.Is(err, ErrKeyMismatch) {
				t.Fatalf("key swap accepted: %v", err)
			}
			digest := types.Hash([]byte("old statement"))
			sig, err := scheme.Sign(kp1, digest)
			if err != nil {
				t.Fatal(err)
			}
			pk, ok := reg.PublicKeyOf(1)
			if !ok || !scheme.Verify(pk, digest, sig) {
				t.Fatal("original key binding lost after rejected swap")
			}
		})
	}
}

// The capability matrix is deliberate: ECDSA lacks BatchVerifier (it
// exercises the per-signature fallback), ed25519 and sim batch.
func TestCapabilityMatrix(t *testing.T) {
	for _, tc := range []struct {
		kind  SchemeKind
		batch bool
	}{
		{SchemeECDSA, false},
		{SchemeEd25519, true},
		{SchemeSim, true},
	} {
		reg := NewRegistry(tc.kind)
		scheme, err := NewScheme(tc.kind, reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scheme.(BatchVerifier); ok != tc.batch {
			t.Errorf("%v: BatchVerifier = %v, want %v", tc.kind, ok, tc.batch)
		}
	}
}

func TestBatchVerify(t *testing.T) {
	for _, kind := range []SchemeKind{SchemeEd25519, SchemeSim} {
		t.Run(kind.String(), func(t *testing.T) {
			signers, reg, err := GenerateCluster(kind, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			bv, ok := signers[0].Scheme().(BatchVerifier)
			if !ok {
				t.Fatalf("%v lost BatchVerifier", kind)
			}
			digest := types.Hash([]byte("aux"))
			ids := make([]types.ReplicaID, len(signers))
			sigs := make([]Signature, len(signers))
			for i, s := range signers {
				ids[i] = s.ID()
				if sigs[i], err = s.Sign(digest); err != nil {
					t.Fatal(err)
				}
			}
			if got := bv.VerifyBatch(reg, ids, digest, sigs); got != -1 {
				t.Fatalf("valid batch reported bad index %d", got)
			}
			// Corrupt the middle signature: exactly that index reported.
			bad := make([]Signature, len(sigs))
			copy(bad, sigs)
			bad[2] = append(Signature(nil), sigs[2]...)
			bad[2][0] ^= 0xff
			if got := bv.VerifyBatch(reg, ids, digest, bad); got != 2 {
				t.Fatalf("corrupt index = %d, want 2", got)
			}
			if got := bv.VerifyBatch(reg, ids[:3], digest, sigs); got != 0 {
				t.Fatalf("mismatched lengths = %d, want 0", got)
			}
		})
	}
}

// TestGenerateClusterDeterministic pins that the same seed yields the
// same PKI in independent GenerateCluster calls — the property the TCP
// demo cluster (cmd/zlb-node) relies on when each process re-derives the
// shared PKI from -seed. Go 1.24's crypto/ecdsa.GenerateKey stopped
// honoring a caller-supplied deterministic reader, which silently broke
// this for ECDSA; the scheme now samples the scalar from the stream
// itself.
func TestGenerateClusterDeterministic(t *testing.T) {
	for _, kind := range []SchemeKind{SchemeECDSA, SchemeEd25519, SchemeSim} {
		t.Run(kind.String(), func(t *testing.T) {
			s1, r1, err := GenerateCluster(kind, 4, 42)
			if err != nil {
				t.Fatal(err)
			}
			s2, r2, err := GenerateCluster(kind, 4, 42)
			if err != nil {
				t.Fatal(err)
			}
			for id := types.ReplicaID(1); id <= 4; id++ {
				a, _ := r1.PublicKeyOf(id)
				b, _ := r2.PublicKeyOf(id)
				if !bytes.Equal(a, b) {
					t.Fatalf("%v: replica %d public key differs across same-seed runs", kind, id)
				}
			}
			// Cross-run verification: a signature from run 1 must verify
			// against run 2's registry (what peer processes actually do).
			digest := types.Hash([]byte("cross-process"))
			sig, err := s1[0].Sign(digest)
			if err != nil {
				t.Fatal(err)
			}
			pub, _ := r2.PublicKeyOf(s1[0].ID())
			if !s2[0].Scheme().Verify(pub, digest, sig) {
				t.Fatalf("%v: run-1 signature rejected by run-2 PKI", kind)
			}
		})
	}
}
