package asmr

import (
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/types"
)

// Errors returned by the block audit.
var (
	ErrNoDecision   = errors.New("asmr: missing decision")
	ErrPartial      = errors.New("asmr: decision does not cover the committee")
	ErrMissingCert  = errors.New("asmr: decision slot missing certificate")
	ErrBadCert      = errors.New("asmr: decision certificate invalid")
	ErrBadPayload   = errors.New("asmr: proposal payload does not match its slot or digest")
	ErrWrongContext = errors.New("asmr: certificate for a different instance")
)

// auditBlock is the one audit of a decided block received whole — in a
// BlockResp, a CatchupResp or a JoinNotice — and of the replica's own
// retained decision when it goes back into the log after retirement. n is
// the committee size quorums are counted against. Its cost is what makes
// the paper's Figure 5 (catch-up time grows with n) look the way it does.
//
// The block is held against what it claims to be: the decision is the one
// of the instance the record names, it decides at least the n slots of a
// full committee, and slot by slot, ascending, every statement in it equals
// the one that slot of that instance calls for — the binary decision
// certificate (⌈2n/3⌉ AUX votes of one round for the slot's bit), and for a
// slot decided 1 the payload under its digest, the ready certificate (2t+1)
// when there is one, and the broadcaster's INIT statement. Signatures are
// checked through the log, so votes the replica already holds cost nothing.
//
// What was verified comes back to be recorded (Log.Record) and nothing else
// can be: only a block that passes whole returns anything. A slot decided 0
// selects no proposal, so there is no digest a ready certificate for it
// could be held against; an honest decision carries none, and one a peer
// attached is neither checked nor returned. An INIT statement is no part of
// the verdict either: one that is not the slot owner's statement for the
// proposal the decision carries, or does not verify, is left out and the
// block stands without it.
func auditBlock(log *accountability.Log, b BlockRecord, n int) (accountability.Verified, error) {
	var verified, none accountability.Verified // all or nothing
	d := b.Decision
	if d == nil {
		return none, ErrNoDecision
	}
	if d.Instance != WireInstance(b.K, b.Attempt) {
		return none, fmt.Errorf("%w: decision of %v as block %d attempt %d", ErrWrongContext, d.Instance, b.K, b.Attempt)
	}
	if len(d.Bits) < n {
		return none, fmt.Errorf("%w: %d slots of %d", ErrPartial, len(d.Bits), n)
	}
	slots := make([]types.ReplicaID, 0, len(d.Bits))
	for id := range d.Bits {
		slots = append(slots, id)
	}
	types.SortReplicas(slots)
	selected := 0
	for _, id := range slots {
		bit := d.Bits[id]
		cert := d.BinCerts[id]
		if cert == nil {
			return none, fmt.Errorf("%w: slot %v", ErrMissingCert, id)
		}
		expect := accountability.Statement{
			Context:  accountability.CtxMain,
			Kind:     accountability.KindAux,
			Instance: d.Instance,
			Slot:     uint32(id),
			Round:    cert.Stmt.Round, // any one round
			Value:    accountability.BoolDigest(bit),
		}
		if cert.Stmt != expect {
			return none, fmt.Errorf("%w: slot %v", ErrWrongContext, id)
		}
		if err := log.VerifyCertificate(cert, types.Quorum(n), &verified); err != nil {
			return none, fmt.Errorf("%w: slot %v: %w", ErrBadCert, id, err)
		}
		if !bit {
			continue
		}
		selected++
		p, ok := d.Proposals[id]
		if !ok {
			return none, fmt.Errorf("%w: slot %v decided 1 without payload", ErrNoDecision, id)
		}
		if p.Broadcaster != id || types.Hash(p.Payload) != p.Digest {
			return none, fmt.Errorf("%w: slot %v", ErrBadPayload, id)
		}
		expect.Round, expect.Value = 0, p.Digest
		if rc := d.ReadyCerts[id]; rc != nil {
			expect.Kind = accountability.KindReady
			if rc.Stmt != expect {
				return none, fmt.Errorf("%w: ready cert slot %v", ErrWrongContext, id)
			}
			if err := log.VerifyCertificate(rc, 2*types.MaxClassicFaults(n)+1, &verified); err != nil {
				return none, fmt.Errorf("%w: ready cert slot %v: %w", ErrBadCert, id, err)
			}
		}
		expect.Kind = accountability.KindInit
		if s := d.InitStmts[id]; s != nil && s.Signer == id && s.Stmt == expect {
			log.Verify(*s, &verified)
		}
	}
	if len(d.Proposals) != selected {
		return none, fmt.Errorf("%w: %d proposals for %d slots decided 1", ErrBadPayload, len(d.Proposals), selected)
	}
	return verified, nil
}
