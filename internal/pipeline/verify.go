package pipeline

import (
	"sync"
	"sync/atomic"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// certSigsParallelMin is the signature count below which a certificate is
// checked inline: fanning out a handful of MAC checks costs more in
// scheduling than it saves.
const certSigsParallelMin = 8

// maxCachedCerts bounds the verdict cache; past it the map is reset
// wholesale. This is the backstop: the owner of a consensus instance
// forgets its verdicts when it retires the instance (ForgetInstance), so
// only certificates nobody retires (membership-change contexts, rejected
// foreign blocks) accumulate towards it. Waiters hold their entry pointer
// directly, so eviction only loses memoization — it can never block
// anyone.
const maxCachedCerts = 1 << 14

// certVerdict is the cached outcome of a certificate's structure and
// signature checks. done is closed when err is final.
type certVerdict struct {
	// claimed serializes the verify-and-memoize step: whoever wins the
	// claim computes the verdict and closes done; everyone else waits.
	claimed atomic.Bool
	done    chan struct{}
	err     error
}

// Verifier checks certificates on the worker pool and memoizes verdicts
// by certificate identity. It serves the cold audits: a decided block
// received whole (catch-up, join notice, conflicting branch) and the ready
// certificate of a pulled proposal. The certificates of a running
// instance do not come here — each replica checks those against its
// accountability log, which already holds most of their signatures. One
// Verifier serves one deployment (a simulated cluster or one TCP node
// process). In the simulator a block shipped to several replicas arrives
// as references to the same immutable certificates, so the first audit
// settles them for everyone. Over TCP every frame decodes a fresh object
// and nothing hits; each entry pins its certificate, which is why verdicts
// are grouped by the consensus instance the certificate vouches for and
// dropped with it (ForgetInstance).
//
// Only the pure part of the verdict is cached (statement mismatches,
// duplicate signers, signature validity). Quorum is evaluated per call:
// it depends on the caller's committee size and membership filter, which
// legitimately differ across epochs.
type Verifier struct {
	pool *Pool

	mu       sync.Mutex
	verdicts map[accountability.InstanceKey]map[*accountability.Certificate]*certVerdict
	cached   int // entries across verdicts
}

// NewVerifier creates a Verifier running on pool (nil = inline/sequential,
// with the verdict cache still active).
func NewVerifier(pool *Pool) *Verifier {
	return &Verifier{
		pool:     pool,
		verdicts: make(map[accountability.InstanceKey]map[*accountability.Certificate]*certVerdict),
	}
}

// store memoizes c for cert, resetting the cache first when it is full.
// Caller holds v.mu.
func (v *Verifier) store(cert *accountability.Certificate, c *certVerdict) {
	if v.cached >= maxCachedCerts {
		v.verdicts = make(map[accountability.InstanceKey]map[*accountability.Certificate]*certVerdict)
		v.cached = 0
	}
	scope := cert.Stmt.InstanceKey()
	m := v.verdicts[scope]
	if m == nil {
		m = make(map[*accountability.Certificate]*certVerdict)
		v.verdicts[scope] = m
	}
	m[cert] = c
	v.cached++
}

// ForgetInstance drops the verdicts of every certificate vouching for one
// consensus instance, releasing the certificates they pin. Verdicts are a
// pure function of the certificate, so a certificate seen again is simply
// re-checked.
func (v *Verifier) ForgetInstance(k accountability.InstanceKey) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.cached -= len(v.verdicts[k])
	delete(v.verdicts, k)
	v.mu.Unlock()
}

// Cached reports how many verdicts are memoized (test hook).
func (v *Verifier) Cached() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cached
}

// Pool exposes the verifier's worker pool (nil in sequential mode) so
// callers can fan out sibling work — e.g. the per-slot payload hashing of
// a decision audit.
func (v *Verifier) Pool() *Pool {
	if v == nil {
		return nil
	}
	return v.pool
}

// VerifyCertificate checks structure, signer distinctness, signatures and
// the quorum among members accepted by the membership test (nil accepts
// all) for committee size n — the same contract as
// accountability.(*Certificate).Verify, with the pure part of the verdict
// cached across callers and the signature checks fanned out across the
// pool.
func (v *Verifier) VerifyCertificate(cert *accountability.Certificate, signer *crypto.Signer, n int, member func(types.ReplicaID) bool) error {
	if v == nil {
		return cert.Verify(signer, n, member)
	}
	if err := v.VerifyCertSigs(cert, signer); err != nil {
		return err
	}
	if cert.SignerCount(member) < types.Quorum(n) {
		return accountability.ErrCertQuorum
	}
	return nil
}

// VerifyCertSigs checks the membership-independent part of the
// certificate — the same contract as
// accountability.(*Certificate).VerifySigs — with the verdict cached
// across callers. Callers whose quorum rule differs from
// Certificate.Verify's (ready certificates count 2t+1, not 2n/3) use this
// plus their own SignerCount threshold.
func (v *Verifier) VerifyCertSigs(cert *accountability.Certificate, signer *crypto.Signer) error {
	if v == nil {
		return cert.VerifySigs(signer)
	}
	v.mu.Lock()
	c, ok := v.verdicts[cert.Stmt.InstanceKey()][cert]
	if !ok {
		c = &certVerdict{done: make(chan struct{})}
		v.store(cert, c)
	}
	v.mu.Unlock()
	if c.claimed.CompareAndSwap(false, true) {
		c.err = v.check(cert, signer)
		close(c.done)
	} else {
		// Claimed by a goroutine that is computing right now (the claim is
		// taken by the caller itself, never by a queued task), so this
		// wait always makes progress — also when the parallel simulator
		// runs event handlers on the pool's own workers.
		<-c.done
	}
	return c.err
}

// check computes the pure verdict: statement mismatches, duplicate
// signers, and every signature — fanned out across the pool for large
// certificates, reduced in index order so the reported error is the one
// sequential verification would return. Aggregate-form certificates are
// one constant-size check, so they verify inline — no fan-out to pay for.
func (v *Verifier) check(cert *accountability.Certificate, signer *crypto.Signer) error {
	if cert.IsAggregate() {
		return cert.VerifySigs(signer)
	}
	digest := cert.Stmt.Digest()
	seen := types.NewReplicaSet()
	for i := range cert.Sigs {
		if cert.Sigs[i].Stmt != cert.Stmt {
			return accountability.ErrCertMismatch
		}
		if !seen.Add(cert.Sigs[i].Signer) {
			return accountability.ErrCertDuplicate
		}
	}
	nsigs := len(cert.Sigs)
	if v.pool == nil || nsigs < certSigsParallelMin {
		for i := range cert.Sigs {
			if !signer.Verify(cert.Sigs[i].Signer, digest, cert.Sigs[i].Sig) {
				return accountability.ErrCertSignature
			}
		}
		return nil
	}
	ok := make([]bool, nsigs)
	v.pool.Map(nsigs, func(i int) {
		ok[i] = signer.Verify(cert.Sigs[i].Signer, digest, cert.Sigs[i].Sig)
	})
	for i := range ok {
		if !ok[i] {
			return accountability.ErrCertSignature
		}
	}
	return nil
}

// VerifySignedBatch checks a slice of signed statements, fanned out
// across the pool, and returns the index of the first invalid one (-1
// when all verify). Fan-in is by index, so the result is identical to a
// sequential scan. Used for ready-certificate audits whose quorum rules
// differ from Certificate.Verify's.
func (v *Verifier) VerifySignedBatch(sigs []accountability.Signed, signer *crypto.Signer) int {
	if v == nil || v.pool == nil || len(sigs) < certSigsParallelMin {
		if i, ok := batchVerify(sigs, signer); ok {
			return i
		}
		for i := range sigs {
			if !sigs[i].Verify(signer) {
				return i
			}
		}
		return -1
	}
	ok := make([]bool, len(sigs))
	v.pool.Map(len(sigs), func(i int) {
		ok[i] = sigs[i].Verify(signer)
	})
	for i := range ok {
		if !ok[i] {
			return i
		}
	}
	return -1
}

// batchVerify routes a batch of signed statements covering one shared
// statement through the scheme's crypto.BatchVerifier capability, which
// amortizes the per-signature setup (one digest, one registry pass). It
// reports false when the scheme lacks the capability or the statements
// differ, in which case the caller scans sequentially.
func batchVerify(sigs []accountability.Signed, signer *crypto.Signer) (firstBad int, handled bool) {
	if len(sigs) == 0 {
		return -1, true
	}
	bv, ok := signer.Scheme().(crypto.BatchVerifier)
	if !ok {
		return 0, false
	}
	for i := 1; i < len(sigs); i++ {
		if sigs[i].Stmt != sigs[0].Stmt {
			return 0, false
		}
	}
	ids := make([]types.ReplicaID, len(sigs))
	raw := make([]crypto.Signature, len(sigs))
	for i, s := range sigs {
		ids[i] = s.Signer
		raw[i] = s.Sig
	}
	return bv.VerifyBatch(signer.Registry(), ids, sigs[0].Stmt.Digest(), raw), true
}
