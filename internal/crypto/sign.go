package crypto

import (
	"crypto/sha512"
	"fmt"
	"io"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519"
	"github.com/zeroloss/zlb/internal/types"
)

// An edKey is an Ed25519 private key in the form signing uses, derived
// once from its 32-byte seed as RFC 8032 §5.1.5 derives it on every
// signature: the secret scalar s, the prefix that keys each nonce, and
// the encoded public key A = [s]B.
//
// Everything derived from the seed is secret until it is sent, so it
// reaches only constant-time code: the curve package's rule is that a
// function is constant-time unless its name says otherwise.
type edKey struct {
	s      edwards25519.Scalar
	prefix [32]byte
	pub    [32]byte
}

// GenerateKey reads a 32-byte seed from rand, as crypto/ed25519's
// GenerateKey does, so the same stream yields the same keys in both.
func (edScheme) GenerateKey(rand io.Reader) (*KeyPair, error) {
	var seed [32]byte
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRandom, err)
	}
	key := newEdKey(&seed)
	return &KeyPair{kind: SchemeEd25519, pub: key.pub[:], ed: key}, nil
}

// newEdKey expands seed: SHA-512(seed) is the clamped s and the prefix.
func newEdKey(seed *[32]byte) *edKey {
	h := sha512.Sum512(seed[:])
	k := new(edKey)
	k.s.SetBytesWithClamping(h[:32]) // fails only on a length other than 32
	copy(k.prefix[:], h[32:])
	copy(k.pub[:], new(edwards25519.Point).ScalarBaseMult(&k.s).Bytes())
	return k
}

func (edScheme) Sign(kp *KeyPair, digest types.Digest) (Signature, error) {
	if kp.kind != SchemeEd25519 {
		return nil, ErrWrongScheme
	}
	return kp.ed.sign(digest[:]), nil
}

// sign returns the Ed25519 signature R‖S of msg (RFC 8032 §5.1.6), byte
// for byte what the standard library's Sign returns: r = SHA-512(prefix‖msg)
// mod ℓ, R = [r]B, k = SHA-512(R‖A‖msg) mod ℓ and S = k·s + r mod ℓ. R
// is encoded once, and a short msg is hashed from the stack: the
// signature is the one allocation.
func (k *edKey) sign(msg []byte) Signature {
	var buf [128]byte
	h := sha512.Sum512(append(append(buf[:0], k.prefix[:]...), msg...))
	r, _ := new(edwards25519.Scalar).SetUniformBytes(h[:]) // 64 bytes cannot fail
	R := new(edwards25519.Point).ScalarBaseMult(r).Bytes()

	h = sha512.Sum512(append(append(append(buf[:0], R...), k.pub[:]...), msg...))
	kh, _ := new(edwards25519.Scalar).SetUniformBytes(h[:])
	S := new(edwards25519.Scalar).Multiply(kh, &k.s)
	S.Add(S, r)

	sig := make(Signature, 64)
	copy(sig, R)
	copy(sig[32:], S.Bytes())
	return sig
}
