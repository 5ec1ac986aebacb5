package accountability

import (
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Certificate is a quorum of signed statements for one slot and one value:
// the transferable justification Polygraph-style protocols attach to
// decisions (paper §2.3, "sets of 2n/3 messages signed by distinct
// replicas"). Two certificates for the same slot with different values
// overlap in at least ⌈n/3⌉ signers, every one of which is a provable
// equivocator — that intersection is exactly where membership-change PoFs
// come from.
type Certificate struct {
	Stmt Statement // the statement every signature covers (value included)
	Sigs []Signed  // distinct-signer signatures on Stmt
}

// Errors returned by certificate verification.
var (
	ErrCertMismatch  = errors.New("accountability: certificate signature covers a different statement")
	ErrCertDuplicate = errors.New("accountability: duplicate signer in certificate")
	ErrCertQuorum    = errors.New("accountability: certificate below quorum")
	ErrCertSignature = errors.New("accountability: invalid signature in certificate")
)

// NewCertificate assembles a certificate from signed statements that must
// all equal stmt.
func NewCertificate(stmt Statement, sigs []Signed) (*Certificate, error) {
	seen := types.NewReplicaSet()
	for _, s := range sigs {
		if s.Stmt != stmt {
			return nil, fmt.Errorf("%w: %v vs %v", ErrCertMismatch, s.Stmt, stmt)
		}
		if !seen.Add(s.Signer) {
			return nil, fmt.Errorf("%w: %v", ErrCertDuplicate, s.Signer)
		}
	}
	out := make([]Signed, len(sigs))
	copy(out, sigs)
	return &Certificate{Stmt: stmt, Sigs: out}, nil
}

// Signers returns the distinct signers, sorted.
func (c *Certificate) Signers() []types.ReplicaID {
	set := types.NewReplicaSet()
	for _, s := range c.Sigs {
		set.Add(s.Signer)
	}
	return set.Sorted()
}

// SignerCount counts distinct signers that belong to the given committee
// membership test; a nil test counts all distinct signers. The membership
// test is how the exclusion consensus re-checks stored certificates
// against its shrinking committee C′ (Alg. 1 lines 31-36). Distinctness
// uses a small stack scratch instead of a set allocation: committees are
// at most a few hundred replicas, and this runs for every stored
// certificate each time C′ shrinks.
func (c *Certificate) SignerCount(member func(types.ReplicaID) bool) int {
	var scratch [128]types.ReplicaID
	seen := scratch[:0]
	count := 0
	for _, s := range c.Sigs {
		if member != nil && !member(s.Signer) {
			continue
		}
		if containsReplica(seen, s.Signer) {
			continue
		}
		seen = append(seen, s.Signer)
		count++
	}
	return count
}

func containsReplica(ids []types.ReplicaID, id types.ReplicaID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Verify checks structure, distinctness, signatures and that the
// certificate reaches the quorum for committee size n among members
// accepted by the membership test (nil accepts all).
func (c *Certificate) Verify(v *crypto.Signer, n int, member func(types.ReplicaID) bool) error {
	_, err := c.checkVotes(v, nil, types.Quorum(n), member)
	return err
}

// checkVotes is the one rule a certificate's votes are held to: every vote
// covers c.Stmt, no signer appears twice (refused, not skipped), at least
// need of the signers pass the membership test (nil accepts all), and every
// signature is valid — all or nothing. held, when set, names the votes whose
// signature needs no check (the accountability log answers for the ones it
// holds); the rest go to the scheme together (verifyVotes). It returns how
// many signatures the scheme was asked about.
func (c *Certificate) checkVotes(v *crypto.Signer, held func(Signed) bool, need int, member func(types.ReplicaID) bool) (checked int, err error) {
	var scratch [128]types.ReplicaID
	seen := scratch[:0]
	counted := 0
	signers := make([]types.ReplicaID, 0, len(c.Sigs))
	sigs := make([]crypto.Signature, 0, len(c.Sigs))
	for _, s := range c.Sigs {
		if s.Stmt != c.Stmt {
			return 0, ErrCertMismatch
		}
		if containsReplica(seen, s.Signer) {
			return 0, fmt.Errorf("%w: %v", ErrCertDuplicate, s.Signer)
		}
		seen = append(seen, s.Signer)
		if member == nil || member(s.Signer) {
			counted++
		}
		if held == nil || !held(s) {
			signers = append(signers, s.Signer)
			sigs = append(sigs, s.Sig)
		}
	}
	if counted < need {
		return 0, fmt.Errorf("%w: %d of %d needed", ErrCertQuorum, counted, need)
	}
	if bad := verifyVotes(v, signers, c.Stmt.Digest(), sigs); bad >= 0 {
		return bad + 1, fmt.Errorf("%w: signer %v", ErrCertSignature, signers[bad])
	}
	return len(sigs), nil
}

// verifyVotes checks sigs[i] as signers[i]'s signature over digest, the
// statement all of them cover, and returns the index of the first invalid
// one (-1 when all verify). A scheme with the crypto.BatchVerifier
// capability takes them in one call, which amortizes the per-signature
// setup (one registry pass); any other is asked one signature at a time.
func verifyVotes(v *crypto.Signer, signers []types.ReplicaID, digest types.Digest, sigs []crypto.Signature) int {
	if len(sigs) == 0 {
		return -1
	}
	if bv, ok := v.Scheme().(crypto.BatchVerifier); ok {
		return bv.VerifyBatch(v.Registry(), signers, digest, sigs)
	}
	for i := range sigs {
		if !v.Verify(signers[i], digest, sigs[i]) {
			return i
		}
	}
	return -1
}

// signedModelBytes is the modeled wire cost of one signed statement
// (statement + signer + signature + framing) charged by the simulator's
// bandwidth model.
const signedModelBytes = 130

// ModelBytes reports the certificate's modeled wire size, nil-safe:
// signedModelBytes per vote.
func (c *Certificate) ModelBytes() int {
	if c == nil {
		return 0
	}
	return signedModelBytes * len(c.Sigs)
}

// SigOps reports the number of signature verifications checking this
// certificate costs, one per vote; used by the simulator's CPU model.
func (c *Certificate) SigOps() int {
	if c == nil {
		return 0
	}
	return len(c.Sigs)
}

// CrossCheck compares two certificates for the same equivocation slot but
// different values and returns the PoFs for every replica that signed
// both. This is the paper's core accountability step: after a
// disagreement, the intersection of the two conflicting quorums is at
// least ⌈n/3⌉ replicas, all provably deceitful.
func CrossCheck(a, b *Certificate) []PoF {
	if a.Stmt.Key() != b.Stmt.Key() || a.Stmt.Value == b.Stmt.Value {
		return nil
	}
	bySigner := make(map[types.ReplicaID]Signed, len(a.Sigs))
	for _, s := range a.Sigs {
		bySigner[s.Signer] = s
	}
	var pofs []PoF
	for _, s := range b.Sigs {
		if other, ok := bySigner[s.Signer]; ok {
			if pof, err := NewPoF(other, s); err == nil {
				pofs = append(pofs, pof)
			}
		}
	}
	return pofs
}
