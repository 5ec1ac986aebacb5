package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519"
	"github.com/zeroloss/zlb/internal/types"
)

// edScheme implements Scheme over Ed25519. It signs with an expanded key
// (sign.go) and verifies with verifyEd25519, which accepts exactly what
// the standard library accepts. A key registered in reg (a replica's) is
// checked against the table Register built for it; any other key (a
// wallet's) gets a table built for the one check, which is the standard
// library's cost.
type edScheme struct {
	reg *Registry
}

var _ Scheme = edScheme{}

func (edScheme) Kind() SchemeKind { return SchemeEd25519 }

func (e edScheme) Verify(pub PublicKey, digest types.Digest, sig Signature) bool {
	return verifyEd25519(pub, digest[:], sig, e.reg.keyTable(pub))
}

// newKeyTable returns the fixed-point table of −A for the Ed25519 public
// key A, or nil if pub does not decode to a point.
func newKeyTable(pub PublicKey) *edwards25519.FixedTable {
	A, err := new(edwards25519.Point).SetBytes(pub)
	if err != nil {
		return nil
	}
	return edwards25519.NewFixedTable(A.Negate(A))
}

// verifyEd25519 reports whether sig is a valid Ed25519 signature of msg
// by pub, with the standard library's rules: a 32-byte key that decodes
// to a point, a 64-byte signature R‖S with S canonical, and
// [k](−A) + [S]B encoding to R byte for byte, for k = SHA-512(R‖A‖msg)
// mod ℓ (RFC 8032 §5.1.7 without the cofactor). table is pub's
// fixed-point table; nil builds a one-chunk table for this check.
func verifyEd25519(pub PublicKey, msg []byte, sig Signature, table *edwards25519.FixedTable) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	var buf [128]byte
	h := sha512.Sum512(append(append(append(buf[:0], sig[:32]...), pub...), msg...))
	k, _ := new(edwards25519.Scalar).SetUniformBytes(h[:])
	S, err := new(edwards25519.Scalar).SetCanonicalBytes(sig[32:])
	if err != nil {
		return false
	}
	R := new(edwards25519.Point)
	if table != nil {
		R.VarTimeDoubleScalarFixedMult(k, table, S)
	} else if A, err := new(edwards25519.Point).SetBytes(pub); err != nil {
		return false
	} else {
		R.VarTimeDoubleScalarBaseMult(k, A.Negate(A), S)
	}
	return bytes.Equal(sig[:32], R.VarTimeBytes())
}
