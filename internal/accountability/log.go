package accountability

import (
	"bytes"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Log is one replica's accountable message log. Every valid signed
// statement the replica sees — directly from the network or inside a
// certificate — is recorded here; when a second statement from the same
// signer for the same slot with a different value shows up, the log emits
// a proof of fraud. This is the replicas "cross-checking their
// certificates" of paper §4.1 .
//
// The log is also the replica's set of verified statements. Nothing
// enters it unverified: a statement from outside comes in through
// RecordVerify, a certificate — whatever brought it — through
// VerifyCertificate, the replica's own statements through Sign. So a signed
// statement the log already holds — same statement, signer and signature
// bytes — needs no second signature check, and no entry point makes one:
// each signature is checked once per replica, for as long as its instance
// is in the log.
//
// A vote that arrives after the threshold it belongs to was met can no
// longer change the replica's state; the protocols hand it to Defer, which
// holds it beside the verified statements without checking it. It is
// checked when a conflicting statement by its signer makes it evidence,
// and the proof of fraud fires on that call, as it would have had the vote
// been checked on arrival. So a signature is checked at most once, and
// only when the protocol counts it or it becomes evidence.
//
// Log is not safe for concurrent use; in the simulator each node owns one
// and all its protocol components share it.
type Log struct {
	// verifier is the owning replica's signer: it checks every signature
	// and signs the replica's own statements.
	verifier *crypto.Signer
	// first statement seen per (slot, signer), grouped by the consensus
	// instance the statement belongs to, so DropInstance releases one
	// retired instance's statements in O(its entries). Within an instance
	// the map is flat — keyed by the combined (slot, signer) pair, with no
	// per-slot inner-map allocation (record runs for every signed statement
	// every replica sees).
	seen map[InstanceKey]map[slotSigner]Signed
	// statements is the number of entries across seen.
	statements int
	// unchecked holds what Defer took, indexed like seen: at most one
	// statement per (slot, signer), and only where seen has none. Nothing
	// in it is known, served or put into a certificate; record checks an
	// entry when a conflicting statement arrives and drops it otherwise.
	unchecked map[InstanceKey]map[slotSigner]Signed
	// held is the number of entries across unchecked.
	held int
	// pofs accumulated, one per culprit (the first found is kept)
	pofs map[types.ReplicaID]PoF
	// treated marks culprits whose proofs were handled by a completed
	// membership change (Forget). Proofs for a treated culprit arriving
	// afterwards — gossip still in flight, certificates replayed during
	// catch-up — must not resurrect the culprit: re-firing onPoF would
	// count an already-excluded replica towards a fresh exclusion
	// threshold and trigger a spurious membership change.
	treated map[types.ReplicaID]bool
	// proven is the monotone record of every replica ever proven deceitful
	// by this log. Unlike pofs it survives Forget: exclusion discards the
	// *proofs* (they were consumed by the membership change) but the fact
	// that the replica equivocated is permanent, and it is what audits and
	// the conformance invariants ("no honest replica is ever accused")
	// check against.
	proven map[types.ReplicaID]bool
	// onPoF, if set, fires once per new culprit.
	onPoF func(PoF)
	// SigChecks counts the statement signatures handed to the scheme,
	// SigKnown those accepted without one because the log held that exact
	// signed statement, SigDeferred those Defer held without a check.
	SigChecks, SigKnown, SigDeferred uint64
	// CertPulls counts the certificates the replica asked a peer for
	// because an announcement was news or evidence; the protocol that sends
	// the request bumps it.
	CertPulls uint64
}

// InstanceKey names one consensus instance across contexts: the unit the
// log is indexed and dropped by.
type InstanceKey struct {
	Context  uint8
	Instance types.Instance
}

// InstanceKey returns the consensus instance the statement belongs to.
func (s Statement) InstanceKey() InstanceKey {
	return InstanceKey{Context: s.Context, Instance: s.Instance}
}

// slotSigner is the log's per-instance index key: an equivocation slot
// plus the signer being tracked in it.
type slotSigner struct {
	slot   SlotKey
	signer types.ReplicaID
}

// NewLog creates an empty log for the replica that signs as signer;
// onPoF (optional) observes each newly proven culprit exactly once.
func NewLog(signer *crypto.Signer, onPoF func(PoF)) *Log {
	return &Log{
		verifier:  signer,
		seen:      make(map[InstanceKey]map[slotSigner]Signed),
		unchecked: make(map[InstanceKey]map[slotSigner]Signed),
		pofs:      make(map[types.ReplicaID]PoF),
		treated:   make(map[types.ReplicaID]bool),
		proven:    make(map[types.ReplicaID]bool),
		onPoF:     onPoF,
	}
}

// record ingests a signed statement whose signature has been verified. It
// returns a PoF if this statement completes one, or nil.
func (l *Log) record(s Signed) *PoF {
	inst := s.Stmt.InstanceKey()
	key := slotSigner{slot: s.Stmt.Key(), signer: s.Signer}
	if held, ok := l.unchecked[inst][key]; ok {
		delete(l.unchecked[inst], key)
		l.held--
		// A held vote that s conflicts with is evidence now: checked, it
		// is recorded first, as it arrived first, and s completes the
		// proof below. One that agrees with s adds nothing to it.
		if held.Stmt.Value != s.Stmt.Value && l.check(held) {
			l.record(held)
		}
	}
	stmts := l.seen[inst]
	if stmts == nil {
		stmts = make(map[slotSigner]Signed)
		l.seen[inst] = stmts
	}
	prev, dup := stmts[key]
	if !dup {
		stmts[key] = s
		l.statements++
		return nil
	}
	if prev.Stmt.Value == s.Stmt.Value {
		return nil // same statement again; harmless
	}
	pof, err := NewPoF(prev, s)
	if err != nil {
		return nil
	}
	if l.treated[pof.Culprit] {
		return nil // already excluded; evidence is stale
	}
	if _, known := l.pofs[pof.Culprit]; !known {
		l.pofs[pof.Culprit] = pof
		l.proven[pof.Culprit] = true
		if l.onPoF != nil {
			l.onPoF(pof)
		}
	}
	return &pof
}

// Defer takes a statement that can no longer change the replica's state —
// a vote that arrived after the threshold it belongs to was met — without
// checking its signature. The caller has checked the statement's shape and
// that its signer is the sender. What the log has for the statement's
// (slot, signer) decides:
//
//   - a verified statement with the same value: nothing to do;
//   - a verified statement with another value: s is evidence now and goes
//     through RecordVerify, whose proof of fraud fires on this call;
//   - a held statement with another value, or with the same value under
//     other signature bytes (either may be forged): s goes through
//     RecordVerify, which checks the held one where the two conflict;
//   - nothing: s is held, one per (slot, signer), until a statement
//     recorded under its (slot, signer) settles it or its instance is
//     dropped.
func (l *Log) Defer(s Signed) {
	inst := s.Stmt.InstanceKey()
	key := slotSigner{slot: s.Stmt.Key(), signer: s.Signer}
	if prev, ok := l.seen[inst][key]; ok {
		if prev.Stmt.Value != s.Stmt.Value {
			l.RecordVerify(s)
		}
		return
	}
	if held, ok := l.unchecked[inst][key]; ok {
		if held.Stmt.Value != s.Stmt.Value || !bytes.Equal(held.Sig, s.Sig) {
			l.RecordVerify(s)
		}
		return
	}
	stmts := l.unchecked[inst]
	if stmts == nil {
		stmts = make(map[slotSigner]Signed)
		l.unchecked[inst] = stmts
	}
	stmts[key] = s
	l.held++
	l.SigDeferred++
}

// DropInstance releases every statement recorded or held for one
// consensus instance. The owner calls it when the instance is retired:
// once an instance can no longer be forked, its individual votes are dead
// weight (proofs already extracted live on in pofs/proven). A statement
// for the instance recorded afterwards starts a fresh entry.
func (l *Log) DropInstance(k InstanceKey) {
	l.statements -= len(l.seen[k])
	l.held -= len(l.unchecked[k])
	delete(l.seen, k)
	delete(l.unchecked, k)
}

// Statements returns how many first-seen verified statements the log
// holds.
func (l *Log) Statements() int { return l.statements }

// Held returns how many statements Defer holds unchecked.
func (l *Log) Held() int { return l.held }

// holds reports whether the log holds exactly this signed statement:
// same statement, signer and signature bytes. A statement it holds under
// other bytes is not known — whoever adopts a certificate serves it later,
// so every byte of it must have been checked.
func (l *Log) holds(s Signed) bool {
	prev, ok := l.seen[s.Stmt.InstanceKey()][slotSigner{slot: s.Stmt.Key(), signer: s.Signer}]
	return ok && prev.Stmt.Value == s.Stmt.Value && bytes.Equal(prev.Sig, s.Sig)
}

// known is holds, counted: a vote accepted without a signature check.
func (l *Log) known(s Signed) bool {
	if !l.holds(s) {
		return false
	}
	l.SigKnown++
	return true
}

// check reports whether s carries a valid signature: from the log when it
// holds s, from the scheme otherwise. An invalid signature is never
// remembered.
func (l *Log) check(s Signed) bool {
	if l.known(s) {
		return true
	}
	l.SigChecks++
	return l.verifier.Verify(s.Signer, s.Stmt.Digest(), s.Sig)
}

// RecordVerify records a signed statement received from outside, checking
// its signature unless the log already holds that exact signed statement.
// It returns false, and records nothing, when the signature is invalid.
func (l *Log) RecordVerify(s Signed) bool {
	if !l.check(s) {
		return false
	}
	l.record(s)
	return true
}

// Verified is a run of signed statements the log has checked and not yet
// recorded. Only the log's Verify and VerifyCertificate add to one, so
// Record cannot be handed a statement nobody checked. A caller that adopts
// several certificates together or not at all — a block received whole —
// collects them in one Verified and records it when the last has passed.
type Verified struct{ stmts []Signed }

// Verify is RecordVerify with the recording left to Record: s is added to
// into when its signature is valid.
func (l *Log) Verify(s Signed, into *Verified) bool {
	if !l.check(s) {
		return false
	}
	into.stmts = append(into.stmts, s)
	return true
}

// Record ingests what Verify and VerifyCertificate collected, in the order
// it was checked.
func (l *Log) Record(v Verified) {
	for _, s := range v.stmts {
		l.record(s)
	}
}

// Sign signs a statement as the log's own replica and records it, so the
// copy the replica delivers to itself is known when it arrives.
func (l *Log) Sign(stmt Statement) (Signed, error) {
	s, err := SignStatement(l.verifier, stmt)
	if err != nil {
		return Signed{}, err
	}
	l.record(s)
	return s, nil
}

// VerifyCertificate is the one way a received certificate is checked,
// whatever brought it — a pulled DECIDE, a pulled proposal, a block
// received whole. The caller holds c.Stmt against the statement it
// expects and names the signer count the certificate must reach: ⌈2n/3⌉
// for a decision certificate, 2t+1 for a ready certificate. The rule is
// Certificate.Verify's (every vote covers c.Stmt, a signer appearing twice
// is refused, all or nothing), with the signatures the log already holds
// taken from it and the others sent to the scheme together. On success the
// votes are added to into, for Record; on failure nothing is. Signers
// excluded since the certificate was assembled still count, so certificates
// from before a membership change stay acceptable (paper §4.1).
func (l *Log) VerifyCertificate(c *Certificate, need int, into *Verified) error {
	checked, err := c.checkVotes(l.verifier, l.known, need, nil)
	l.SigChecks += uint64(checked)
	if err != nil {
		return err
	}
	into.stmts = append(into.stmts, c.Sigs...)
	return nil
}

// RecordVerifyCertificate is VerifyCertificate followed by Record, for a
// certificate adopted by itself.
func (l *Log) RecordVerifyCertificate(c *Certificate, need int) error {
	var v Verified
	if err := l.VerifyCertificate(c, need, &v); err != nil {
		return err
	}
	l.Record(v)
	return nil
}

// AddPoF ingests an externally received, already verified PoF (replicas
// broadcast their new PoFs during membership changes, Alg. 1 line 26).
// It reports whether the culprit was new. Duplicate proofs for the same
// culprit and proofs arriving after the culprit's exclusion (Forget) are
// both ignored, so late gossip can never re-trigger onPoF.
func (l *Log) AddPoF(p PoF) bool {
	if _, known := l.pofs[p.Culprit]; known {
		return false
	}
	if l.treated[p.Culprit] {
		return false
	}
	l.pofs[p.Culprit] = p
	l.proven[p.Culprit] = true
	if l.onPoF != nil {
		l.onPoF(p)
	}
	return true
}

// Culprits returns the proven-deceitful replicas, sorted.
func (l *Log) Culprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.pofs))
	for id := range l.pofs {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// CulpritCount returns how many distinct replicas have been proven
// deceitful.
func (l *Log) CulpritCount() int { return len(l.pofs) }

// PoFs returns the stored proofs in culprit order.
func (l *Log) PoFs() []PoF {
	out := make([]PoF, 0, len(l.pofs))
	for _, id := range l.Culprits() {
		out = append(out, l.pofs[id])
	}
	return out
}

// PoFFor returns the proof for a culprit, if any.
func (l *Log) PoFFor(id types.ReplicaID) (PoF, bool) {
	p, ok := l.pofs[id]
	return p, ok
}

// Forget removes proofs for culprits that have been handled by a completed
// membership change (Alg. 1 line 39 discards treated PoFs). Forgotten
// culprits are remembered as treated: record and AddPoF ignore further
// evidence against them, making exclusion idempotent under replayed
// gossip and certificates re-examined during catch-up.
func (l *Log) Forget(ids []types.ReplicaID) {
	for _, id := range ids {
		delete(l.pofs, id)
		l.treated[id] = true
	}
}

// Treated reports whether a culprit's proofs were already handled by a
// completed membership change.
func (l *Log) Treated(id types.ReplicaID) bool { return l.treated[id] }

// ProvenCulprits returns every replica ever proven deceitful by this log,
// sorted — including culprits whose proofs were since consumed by a
// membership change (Forget). This is the monotone audit view the
// end-of-run metrics and the conformance invariants use.
func (l *Log) ProvenCulprits() []types.ReplicaID {
	ids := make([]types.ReplicaID, 0, len(l.proven))
	for id := range l.proven {
		ids = append(ids, id)
	}
	return types.SortReplicas(ids)
}

// ProvenCount returns how many distinct replicas were ever proven
// deceitful, regardless of later Forget calls.
func (l *Log) ProvenCount() int { return len(l.proven) }
