package asmr

import (
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// Errors returned by decision verification.
var (
	ErrNoDecision   = errors.New("asmr: missing decision")
	ErrMissingCert  = errors.New("asmr: decision slot missing certificate")
	ErrBadCert      = errors.New("asmr: decision certificate invalid")
	ErrBadPayload   = errors.New("asmr: proposal payload does not match digest")
	ErrWrongContext = errors.New("asmr: certificate for a different instance")
)

// VerifyDecision audits a received decided block: every slot decided 1
// must carry a valid binary decision certificate for value 1 and its
// payload must match its digest; the reliable-broadcast delivery
// certificate, when present, must match too. n is the committee size the
// instance ran with. This is the work a replica performs when catching up
// or when auditing a conflicting branch — its cost is what makes the
// paper's Figure 5 (catch-up time grows with n) look the way it does.
func VerifyDecision(v *crypto.Signer, d *sbc.Decision, n int) error {
	return VerifyDecisionWith(nil, v, d, n)
}

// VerifyDecisionWith is VerifyDecision routed through the commit
// pipeline: certificate verdicts are shared with every other component
// that saw the same certificates, signature checks fan out across the
// worker pool, and the per-slot payload digests (the batch digests of a
// superblock) are hashed in parallel with deterministic fan-in by slot
// order. A nil verifier runs everything inline — identical verdicts.
func VerifyDecisionWith(certs *pipeline.Verifier, v *crypto.Signer, d *sbc.Decision, n int) error {
	if d == nil {
		return ErrNoDecision
	}
	// Batch digests first: hash every decided-1 payload on the pool. The
	// slots are checked in sorted order below, so the first error reported
	// does not depend on scheduling.
	slots := make([]types.ReplicaID, 0, len(d.Bits))
	for id := range d.Bits {
		slots = append(slots, id)
	}
	types.SortReplicas(slots)
	hashOK := make(map[types.ReplicaID]bool, len(slots))
	var hashed []types.ReplicaID
	for _, id := range slots {
		if d.Bits[id] {
			if _, ok := d.Proposals[id]; ok {
				hashed = append(hashed, id)
			}
		}
	}
	oks := make([]bool, len(hashed))
	certs.Pool().Map(len(hashed), func(i int) {
		p := d.Proposals[hashed[i]]
		oks[i] = types.Hash(p.Payload) == p.Digest
	})
	for i, id := range hashed {
		hashOK[id] = oks[i]
	}
	readyMin := 2*types.MaxClassicFaults(n) + 1
	for _, id := range slots {
		bit := d.Bits[id]
		cert := d.BinCerts[id]
		if cert == nil {
			return fmt.Errorf("%w: slot %v", ErrMissingCert, id)
		}
		if cert.Stmt.Kind != accountability.KindAux ||
			cert.Stmt.Instance != d.Instance ||
			cert.Stmt.Slot != uint32(id) ||
			accountability.DigestBool(cert.Stmt.Value) != bit {
			return fmt.Errorf("%w: slot %v", ErrWrongContext, id)
		}
		if err := certs.VerifyCertificate(cert, v, n, nil); err != nil {
			return fmt.Errorf("%w: slot %v: %v", ErrBadCert, id, err)
		}
		if !bit {
			continue
		}
		if _, ok := d.Proposals[id]; !ok {
			return fmt.Errorf("%w: slot %v decided 1 without payload", ErrNoDecision, id)
		}
		if !hashOK[id] {
			return fmt.Errorf("%w: slot %v", ErrBadPayload, id)
		}
		p := d.Proposals[id]
		if rc := auditedReadyCert(d, id); rc != nil {
			if rc.Stmt.Kind != accountability.KindReady ||
				rc.Stmt.Instance != d.Instance ||
				rc.Stmt.Slot != uint32(id) ||
				rc.Stmt.Value != p.Digest {
				return fmt.Errorf("%w: ready cert slot %v", ErrWrongContext, id)
			}
			if rc.IsAggregate() {
				// Aggregate ready certificates: one cached check for
				// structure + aggregate signature, then the 2t+1 rule on
				// the explicit signer set.
				if certs.VerifyCertSigs(rc, v) != nil {
					return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
				}
				if rc.SignerCount(nil) < readyMin {
					return fmt.Errorf("%w: ready cert slot %v below 2t+1", ErrBadCert, id)
				}
				continue
			}
			seen := types.NewReplicaSet()
			for _, sig := range rc.Sigs {
				if sig.Stmt != rc.Stmt {
					return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
				}
				seen.Add(sig.Signer)
			}
			if certs.VerifySignedBatch(rc.Sigs, v) >= 0 {
				return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
			}
			if seen.Len() < readyMin {
				return fmt.Errorf("%w: ready cert slot %v below 2t+1", ErrBadCert, id)
			}
		}
	}
	return nil
}

// auditedReadyCert returns the ready certificate of a slot if the audit
// covers it. A slot decided 0 selects no proposal, so there is no digest a
// ready certificate for it could be held against; an honest decision
// carries none, and one a peer attached is neither checked nor absorbed.
// VerifyDecisionWith and AbsorbDecision both read the certificate through
// here, so what is recorded is what was verified.
func auditedReadyCert(d *sbc.Decision, id types.ReplicaID) *accountability.Certificate {
	if !d.Bits[id] {
		return nil
	}
	return d.ReadyCerts[id]
}

// verifyDecisionLegacy is the original inline implementation, kept as
// the reference the equivalence test pins VerifyDecisionWith against.
func verifyDecisionLegacy(v *crypto.Signer, d *sbc.Decision, n int) error {
	if d == nil {
		return ErrNoDecision
	}
	quorum := types.Quorum(n)
	readyMin := 2*types.MaxClassicFaults(n) + 1
	for id, bit := range d.Bits {
		cert := d.BinCerts[id]
		if cert == nil {
			return fmt.Errorf("%w: slot %v", ErrMissingCert, id)
		}
		if cert.Stmt.Kind != accountability.KindAux ||
			cert.Stmt.Instance != d.Instance ||
			cert.Stmt.Slot != uint32(id) ||
			accountability.DigestBool(cert.Stmt.Value) != bit {
			return fmt.Errorf("%w: slot %v", ErrWrongContext, id)
		}
		if err := cert.Verify(v, n, nil); err != nil {
			return fmt.Errorf("%w: slot %v: %v", ErrBadCert, id, err)
		}
		_ = quorum
		if !bit {
			continue
		}
		p, ok := d.Proposals[id]
		if !ok {
			return fmt.Errorf("%w: slot %v decided 1 without payload", ErrNoDecision, id)
		}
		if types.Hash(p.Payload) != p.Digest {
			return fmt.Errorf("%w: slot %v", ErrBadPayload, id)
		}
		if rc := d.ReadyCerts[id]; rc != nil {
			if rc.Stmt.Kind != accountability.KindReady ||
				rc.Stmt.Instance != d.Instance ||
				rc.Stmt.Slot != uint32(id) ||
				rc.Stmt.Value != p.Digest {
				return fmt.Errorf("%w: ready cert slot %v", ErrWrongContext, id)
			}
			if rc.IsAggregate() {
				if rc.VerifySigs(v) != nil {
					return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
				}
				if rc.SignerCount(nil) < readyMin {
					return fmt.Errorf("%w: ready cert slot %v below 2t+1", ErrBadCert, id)
				}
				continue
			}
			seen := types.NewReplicaSet()
			for _, sig := range rc.Sigs {
				if sig.Stmt != rc.Stmt {
					return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
				}
				if !sig.Verify(v) {
					return fmt.Errorf("%w: ready cert slot %v", ErrBadCert, id)
				}
				seen.Add(sig.Signer)
			}
			if seen.Len() < readyMin {
				return fmt.Errorf("%w: ready cert slot %v below 2t+1", ErrBadCert, id)
			}
		}
	}
	return nil
}

// AbsorbDecision records the certificates of a decision VerifyDecision has
// accepted into the accountability log, surfacing PoFs against any replica
// that signed conflicting statements across branches — the cross-check of
// §4.1 . It records exactly what that audit checked: the binary
// certificate of every slot in Bits and the ready certificate of every slot
// decided 1. Anything else a peer put into the block — a certificate under
// a slot outside Bits, a ready certificate on a slot decided 0 — stays out
// of the log. The broadcasters' INIT statements are no part of the audit
// either: each is recorded only if it is the slot owner's statement for the
// proposal the decision carries and its signature verifies, and dropped
// otherwise (the block stands without it).
func AbsorbDecision(log *accountability.Log, d *sbc.Decision) {
	if d == nil {
		return
	}
	ids := make([]types.ReplicaID, 0, len(d.Bits))
	for id := range d.Bits {
		ids = append(ids, id)
	}
	types.SortReplicas(ids)
	for _, id := range ids {
		if c := d.BinCerts[id]; c != nil {
			log.RecordCertificate(c)
		}
		if c := auditedReadyCert(d, id); c != nil {
			log.RecordCertificate(c)
		}
		if s, p := d.InitStmts[id], d.Proposals[id]; s != nil && d.Bits[id] && s.Signer == id {
			want := accountability.Statement{
				Context:  accountability.CtxMain,
				Kind:     accountability.KindInit,
				Instance: d.Instance,
				Slot:     uint32(id),
				Value:    p.Digest,
			}
			if s.Stmt == want {
				log.RecordVerify(*s)
			}
		}
	}
}
