package accountability

import (
	"errors"
	"fmt"
	"sort"

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
//
// A certificate takes one of two forms, chosen per scheme capability:
//
//   - signed-statement form: Sigs holds the quorum of individual signed
//     statements (Agg is nil). Works with every scheme.
//   - aggregate form: Agg holds one aggregate signature plus the sorted
//     signer set (Sigs is nil). Requires the scheme to implement
//     crypto.Aggregator; constant-size on the wire regardless of quorum.
//
// Aggregate certificates keep full PoF attribution: the signer set is
// explicit, and schemes implementing crypto.SignatureExtractor (the sim
// scheme) reconstruct each constituent signed statement bit-identically,
// so CrossCheckWith and the accountability log attribute equivocators
// exactly as they would from the signed-statement form.
type Certificate struct {
	Stmt Statement       // the statement every signature covers (value included)
	Sigs []Signed        // distinct-signer signatures on Stmt (signed-statement form)
	Agg  *AggregateProof // aggregate form; nil in signed-statement form
}

// AggregateProof is the compact quorum representation of an aggregate
// certificate: one aggregate signature over the statement digest plus the
// sorted distinct signers it covers. On the wire the signer set travels
// as a bitmap over the crypto.Registry's canonical signer index (see
// internal/wire); in memory it stays decoded so threshold checks need no
// registry. An AggregateProof is immutable after construction —
// certificates are shared across the simulated cluster.
type AggregateProof struct {
	Signers []types.ReplicaID // sorted, distinct
	Sig     crypto.Signature  // aggregate signature on Stmt.Digest()
}

// Errors returned by certificate verification.
var (
	ErrCertMismatch  = errors.New("accountability: certificate signature covers a different statement")
	ErrCertDuplicate = errors.New("accountability: duplicate signer in certificate")
	ErrCertQuorum    = errors.New("accountability: certificate below quorum")
	ErrCertSignature = errors.New("accountability: invalid signature in certificate")
	ErrCertScheme    = errors.New("accountability: scheme lacks the capability this certificate form needs")
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

// NewAggregateCertificate assembles an aggregate-form certificate from
// the same inputs NewCertificate takes. The signer's scheme must
// implement crypto.Aggregator; ErrCertScheme is returned otherwise.
func NewAggregateCertificate(signer *crypto.Signer, stmt Statement, sigs []Signed) (*Certificate, error) {
	agg, ok := signer.Scheme().(crypto.Aggregator)
	if !ok {
		return nil, ErrCertScheme
	}
	seen := types.NewReplicaSet()
	for _, s := range sigs {
		if s.Stmt != stmt {
			return nil, fmt.Errorf("%w: %v vs %v", ErrCertMismatch, s.Stmt, stmt)
		}
		if !seen.Add(s.Signer) {
			return nil, fmt.Errorf("%w: %v", ErrCertDuplicate, s.Signer)
		}
	}
	// Canonical order: the aggregate covers the sorted signer set, so two
	// replicas folding the same quorum produce byte-identical proofs.
	ordered := make([]Signed, len(sigs))
	copy(ordered, sigs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Signer < ordered[j].Signer })
	ids := make([]types.ReplicaID, len(ordered))
	raw := make([]crypto.Signature, len(ordered))
	for i, s := range ordered {
		ids[i] = s.Signer
		raw[i] = s.Sig
	}
	aggSig, err := agg.Aggregate(ids, raw)
	if err != nil {
		return nil, err
	}
	return &Certificate{Stmt: stmt, Agg: &AggregateProof{Signers: ids, Sig: aggSig}}, nil
}

// NewCertificateFor builds a certificate in the preferred form: aggregate
// when requested AND the signer's scheme supports it, signed-statement
// otherwise. This is the assembly entry point protocols use, so turning
// aggregation on is safe under every scheme.
func NewCertificateFor(signer *crypto.Signer, stmt Statement, sigs []Signed, aggregate bool) (*Certificate, error) {
	if aggregate {
		if _, ok := signer.Scheme().(crypto.Aggregator); ok {
			return NewAggregateCertificate(signer, stmt, sigs)
		}
	}
	return NewCertificate(stmt, sigs)
}

// IsAggregate reports whether the certificate is in aggregate form.
func (c *Certificate) IsAggregate() bool { return c.Agg != nil }

// Signers returns the distinct signers, sorted.
func (c *Certificate) Signers() []types.ReplicaID {
	if c.Agg != nil {
		out := make([]types.ReplicaID, len(c.Agg.Signers))
		copy(out, c.Agg.Signers)
		return out
	}
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
	if c.Agg != nil {
		count := 0
		for _, id := range c.Agg.Signers {
			if member == nil || member(id) {
				count++
			}
		}
		return count
	}
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

// checkVotes is the one rule a certificate's votes are held to, in either
// form: every vote covers c.Stmt, no signer appears twice (refused, not
// skipped), at least need of the signers pass the membership test (nil
// accepts all), and every signature is valid — all or nothing. held, when
// set, names the votes whose signature needs no check (the accountability
// log answers for the ones it holds); the rest go to the scheme together
// (verifyVotes). It returns how many signatures the scheme was asked about;
// an aggregate is one.
func (c *Certificate) checkVotes(v *crypto.Signer, held func(Signed) bool, need int, member func(types.ReplicaID) bool) (checked int, err error) {
	if c.Agg != nil {
		if counted := c.SignerCount(member); counted < need {
			return 0, fmt.Errorf("%w: %d of %d needed", ErrCertQuorum, counted, need)
		}
		return 1, c.verifyAggregate(v)
	}
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

// verifyAggregate checks the aggregate form's structure and signature:
// sorted distinct signers and a valid aggregate over the statement
// digest. Quorum/membership is the caller's concern.
func (c *Certificate) verifyAggregate(v *crypto.Signer) error {
	agg, ok := v.Scheme().(crypto.Aggregator)
	if !ok {
		return ErrCertScheme
	}
	prev := types.ReplicaID(0)
	for _, id := range c.Agg.Signers {
		if id <= prev {
			return fmt.Errorf("%w: %v", ErrCertDuplicate, id)
		}
		prev = id
	}
	if !agg.VerifyAggregate(v.Registry(), c.Agg.Signers, c.Stmt.Digest(), c.Agg.Sig) {
		return ErrCertSignature
	}
	return nil
}

// ExtractSigned returns the certificate's per-signer signed statements.
// For the signed-statement form that is simply Sigs. For the aggregate
// form the scheme must implement crypto.SignatureExtractor (the sim
// scheme does): each constituent signature is reconstructed from the
// registry, bit-identical to the one the signer produced, so downstream
// PoF attribution is unchanged. Returns false when the scheme cannot
// extract.
func (c *Certificate) ExtractSigned(v *crypto.Signer) ([]Signed, bool) {
	if c.Agg == nil {
		return c.Sigs, true
	}
	ex, ok := v.Scheme().(crypto.SignatureExtractor)
	if !ok {
		return nil, false
	}
	digest := c.Stmt.Digest()
	out := make([]Signed, 0, len(c.Agg.Signers))
	for _, id := range c.Agg.Signers {
		sig, ok := ex.ExtractSignature(v.Registry(), id, digest)
		if !ok {
			return nil, false
		}
		out = append(out, Signed{Stmt: c.Stmt, Signer: id, Sig: sig})
	}
	return out, true
}

// signedModelBytes is the modeled wire cost of one signed statement
// (statement + signer + signature + framing) charged by the simulator's
// bandwidth model; the aggregate form charges it once for the aggregate
// signature plus a bitmap over the signer index.
const signedModelBytes = 130

// ModelBytes reports the certificate's modeled wire size, nil-safe: the
// per-signed-statement cost for the signed-statement form, or one
// aggregate signature plus the signer bitmap for the aggregate form.
// Signed-statement certificates cost exactly what they did before the
// aggregate form existed, keeping virtual-time goldens bit-identical.
func (c *Certificate) ModelBytes() int {
	if c == nil {
		return 0
	}
	if c.Agg != nil {
		maxID := 0
		for _, id := range c.Agg.Signers {
			if int(id) > maxID {
				maxID = int(id)
			}
		}
		return signedModelBytes + (maxID+7)/8
	}
	return signedModelBytes * len(c.Sigs)
}

// aggregateSigOps is the modeled verification cost of one aggregate
// signature check (a BLS-style aggregate verifies in two pairings
// regardless of quorum size).
const aggregateSigOps = 2

// SigOps reports the number of signature verifications checking this
// certificate costs; used by the simulator's CPU model. The aggregate
// form costs a small constant regardless of quorum size.
func (c *Certificate) SigOps() int {
	if c == nil {
		return 0
	}
	if c.Agg != nil {
		return aggregateSigOps
	}
	return len(c.Sigs)
}

// CrossCheck compares two signed-statement certificates for the same
// equivocation slot but different values and returns the PoFs for every
// replica that signed both. This is the paper's core accountability step:
// after a disagreement, the intersection of the two conflicting quorums
// is at least ⌈n/3⌉ replicas, all provably deceitful. Aggregate-form
// certificates need a verifier to reconstruct per-signer evidence — use
// CrossCheckWith.
func CrossCheck(a, b *Certificate) []PoF {
	if a.Stmt.Key() != b.Stmt.Key() || a.Stmt.Value == b.Stmt.Value {
		return nil
	}
	return crossCheckSigs(a.Sigs, b.Sigs)
}

// CrossCheckWith is CrossCheck for any certificate form: aggregate
// certificates are expanded to per-signer signed statements through the
// verifier's scheme first (crypto.SignatureExtractor). A certificate that
// cannot be expanded contributes no PoFs.
func CrossCheckWith(v *crypto.Signer, a, b *Certificate) []PoF {
	if a.Stmt.Key() != b.Stmt.Key() || a.Stmt.Value == b.Stmt.Value {
		return nil
	}
	aSigs, ok := a.ExtractSigned(v)
	if !ok {
		return nil
	}
	bSigs, ok := b.ExtractSigned(v)
	if !ok {
		return nil
	}
	return crossCheckSigs(aSigs, bSigs)
}

func crossCheckSigs(a, b []Signed) []PoF {
	bySigner := make(map[types.ReplicaID]Signed, len(a))
	for _, s := range a {
		bySigner[s.Signer] = s
	}
	var pofs []PoF
	for _, s := range b {
		if other, ok := bySigner[s.Signer]; ok {
			if pof, err := NewPoF(other, s); err == nil {
				pofs = append(pofs, pof)
			}
		}
	}
	return pofs
}
