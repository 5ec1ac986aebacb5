package conformance

import (
	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// Mutators build adversarial protocol messages that are valid by
// construction: field layouts stay legal, and where a signature is meant
// to verify it is produced with the signer's real key. Byte-level
// corruption is the wire fuzzers' job; these mutators target the layer
// above — what a Byzantine replica that follows the message grammar but
// not the protocol can actually emit.

// FlipAux returns a fresh AUX vote for the opposite binary value,
// re-signed with the original signer's key: delivered next to the
// original, it is exactly the binary-consensus equivocation the
// accountability log turns into a PoF.
func (inj *Injector) FlipAux(a *bincon.Aux) (*bincon.Aux, error) {
	stmt := a.Stmt.Stmt
	stmt.Value = accountability.BoolDigest(!accountability.DigestBool(stmt.Value))
	signed, err := inj.Sign(a.Stmt.Signer, stmt)
	if err != nil {
		return nil, err
	}
	return &bincon.Aux{Stmt: signed}, nil
}

// TwinEcho returns an ECHO for a conflicting digest in the same
// broadcast slot, signed with the original signer's key — what the
// signer's twin (a second process holding the same key) would emit.
func (inj *Injector) TwinEcho(e *rbc.Echo) (*rbc.Echo, error) {
	stmt := e.Stmt.Stmt
	stmt.Value[0] ^= 0xa5 // deterministic conflicting digest
	signed, err := inj.Sign(e.Stmt.Signer, stmt)
	if err != nil {
		return nil, err
	}
	return &rbc.Echo{Stmt: signed}, nil
}

// ShiftEstRound returns a copy of an (unsigned) EST vote moved dr rounds
// forward. EST is deliberately not an equivocation slot, so these stale
// and future votes must be absorbed without ever producing evidence.
func ShiftEstRound(e *bincon.Est, dr uint32) *bincon.Est {
	cp := *e
	cp.Round += types.Round(dr)
	return &cp
}

// ForgeAux returns an AUX vote whose value was flipped without re-signing:
// the signature no longer covers the statement, so the receiver must
// reject it outright — and, critically, must not accuse the nominal
// signer, who never produced it.
func ForgeAux(a *bincon.Aux) *bincon.Aux {
	cp := *a
	cp.Stmt.Stmt.Value = accountability.BoolDigest(!accountability.DigestBool(cp.Stmt.Stmt.Value))
	return &cp
}

// TruncateCert returns a DECIDE whose certificate lost its last
// signature: every remaining signature is genuine, but the quorum check
// must fail.
func TruncateCert(d *bincon.Decide) *bincon.Decide {
	cp := *d
	cp.Cert = &accountability.Certificate{Stmt: d.Cert.Stmt, Sigs: d.Cert.Sigs[:len(d.Cert.Sigs)-1]}
	return &cp
}

// DuplicateSignerCert returns a DECIDE whose certificate repeats its
// first signature in place of the last: every signature verifies, the
// length still looks like a quorum, but the signers are no longer
// distinct.
func DuplicateSignerCert(d *bincon.Decide) *bincon.Decide {
	sigs := append([]accountability.Signed(nil), d.Cert.Sigs...)
	sigs[len(sigs)-1] = sigs[0]
	cp := *d
	cp.Cert = &accountability.Certificate{Stmt: d.Cert.Stmt, Sigs: sigs}
	return &cp
}

// FlipDecideValue returns a DECIDE claiming the opposite value while
// carrying the original (genuine) certificate: the certificate statement
// no longer matches the claimed decision, so receivers must refuse it.
func FlipDecideValue(d *bincon.Decide) *bincon.Decide {
	cp := *d
	cp.Value = !cp.Value
	return &cp
}

// ForgeInitStmt returns a copy of a certified block whose INIT statement
// for slot names another payload under the original signature, which no
// longer covers it. Every certificate in the block is untouched and the
// block still passes its audit; the statement is outside what the audit
// covers, so a receiver that takes it on trust holds two INIT values
// "signed" by slot's owner — an accusation against a replica that signed
// one. The block must carry an INIT statement for slot.
func ForgeInitStmt(d *sbc.Decision, slot types.ReplicaID) *sbc.Decision {
	cp := *d
	cp.InitStmts = make(map[types.ReplicaID]*accountability.Signed, len(d.InitStmts))
	for id, s := range d.InitStmts {
		cp.InitStmts[id] = s
	}
	forged := *d.InitStmts[slot]
	forged.Stmt.Value[0] ^= 0xa5
	cp.InitStmts[slot] = &forged
	return &cp
}

// PlantVote returns a copy of a certified block with a fabricated ready
// certificate on slot, which the block decided 0: a one-signature
// "certificate" for the opposite of the slot's binary decision — same
// instance, slot and round as the block's own binary certificate — under
// victim's name and no signature at all. An honest block carries no ready
// certificate on a slot decided 0 and its audit reads none there, so the
// block still passes; a receiver that records the certificate with the
// audited ones holds both votes of victim, a replica that cast one. The
// block must carry a binary certificate for slot.
func PlantVote(d *sbc.Decision, slot, victim types.ReplicaID) *sbc.Decision {
	stmt := d.BinCerts[slot].Stmt
	stmt.Value = accountability.BoolDigest(!accountability.DigestBool(stmt.Value))
	cp := *d
	cp.ReadyCerts = make(map[types.ReplicaID]*accountability.Certificate, len(d.ReadyCerts)+1)
	for id, c := range d.ReadyCerts {
		cp.ReadyCerts[id] = c
	}
	cp.ReadyCerts[slot] = &accountability.Certificate{
		Stmt: stmt,
		Sigs: []accountability.Signed{{Stmt: stmt, Signer: victim, Sig: []byte("unsigned")}},
	}
	return &cp
}
