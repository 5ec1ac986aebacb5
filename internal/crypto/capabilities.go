package crypto

import "github.com/zeroloss/zlb/internal/types"

// This file defines the optional capability interface a Scheme may
// implement beyond core Sign/Verify. Callers discover a capability by
// type assertion — `bv, ok := scheme.(BatchVerifier)` — so schemes that
// predate (or simply lack) it keep working unchanged, and a new capability
// can be added without touching existing implementations.
//
// Capability support today:
//
//	scheme    BatchVerifier
//	ecdsa     no
//	ed25519   yes
//	sim       yes
//
// ECDSA deliberately lacks it: it exercises the fallback path the
// capability's consumer must keep (per-signature verification).

// BatchVerifier verifies many (signer, sig) pairs over the same digest
// with better constants than one Verify call per pair. Implementations
// amortize the per-call setup (key resolution, digest expansion); they do
// not change the accept/reject decision of Verify.
type BatchVerifier interface {
	// VerifyBatch checks sigs[i] as a signature by signers[i] over digest,
	// resolving public keys through reg. It returns the index of the first
	// invalid pair, or -1 if all verify. Mismatched slice lengths report
	// index 0.
	VerifyBatch(reg *Registry, signers []types.ReplicaID, digest types.Digest, sigs []Signature) int
}

// --- sim scheme capabilities ---

var _ BatchVerifier = (*simScheme)(nil)

func (s *simScheme) VerifyBatch(reg *Registry, signers []types.ReplicaID, digest types.Digest, sigs []Signature) int {
	if reg == nil {
		reg = s.reg
	}
	if len(signers) != len(sigs) {
		return 0
	}
	for i, id := range signers {
		seed, ok := reg.seedOf(id)
		if !ok {
			return i
		}
		mac := simMAC(seed, digest)
		if len(sigs[i]) != len(mac) {
			return i
		}
		var diff byte
		for j := range mac {
			diff |= mac[j] ^ sigs[i][j]
		}
		if diff != 0 {
			return i
		}
	}
	return -1
}

// --- ed25519 scheme capabilities ---

var _ BatchVerifier = edScheme{}

// VerifyBatch amortizes key resolution across the batch: one registry
// read-lock for all pairs instead of one per Verify call. (True Ed25519
// batch verification with shared doublings needs curve internals the
// stdlib does not export; the win here is the lock and map amortization,
// which dominates at simulator scale.)
func (e edScheme) VerifyBatch(reg *Registry, signers []types.ReplicaID, digest types.Digest, sigs []Signature) int {
	if reg == nil || len(signers) != len(sigs) {
		return 0
	}
	pubs := reg.publicKeys(signers)
	for i := range signers {
		if pubs[i] == nil || !e.Verify(pubs[i], digest, sigs[i]) {
			return i
		}
	}
	return -1
}
