// Package crypto provides the signature schemes and the public-key
// infrastructure (PKI) registry that ZLB's accountability layer builds on.
//
// The paper signs transactions and protocol messages with ECDSA
// (secp256k1). The Go standard library ships P-256 but not secp256k1, so
// the paper-faithful scheme here is ECDSA over P-256 — same signature
// shape, same API, equivalent unforgeability for the protocol's purposes.
// Two more schemes are provided:
//
//   - Ed25519: the deployed node's scheme and the default for tests. It
//     signs (sign.go) and verifies (ed25519.go) on a copy of the standard
//     library's curve code, with the standard library's signatures and
//     verdicts byte for byte.
//   - Sim: a deterministic MAC-style scheme whose verification consults the
//     in-process registry. It is NOT cryptographically secure against an
//     out-of-process adversary; it exists so that simulations with 100
//     replicas and millions of signed messages finish quickly. The
//     discrete-event simulator separately charges *modeled* verification
//     time, so reported virtual-time results reflect real crypto costs.
package crypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/zeroloss/zlb/internal/types"
)

// SchemeKind enumerates the available signature schemes.
type SchemeKind int

// Scheme kinds. Enums start at one so the zero value is invalid and
// caught early.
const (
	SchemeECDSA SchemeKind = iota + 1
	SchemeEd25519
	SchemeSim
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SchemeECDSA:
		return "ecdsa-p256"
	case SchemeEd25519:
		return "ed25519"
	case SchemeSim:
		return "sim"
	default:
		return fmt.Sprintf("scheme(%d)", int(k))
	}
}

// PublicKey is an opaque encoded public key.
type PublicKey []byte

// Signature is an opaque encoded signature.
type Signature []byte

// Scheme signs and verifies 32-byte digests.
type Scheme interface {
	// Kind identifies the scheme.
	Kind() SchemeKind
	// GenerateKey derives a key pair from the random source. The source
	// must provide at least 32 bytes.
	GenerateKey(rand io.Reader) (*KeyPair, error)
	// Sign signs digest with the private key held by kp.
	Sign(kp *KeyPair, digest types.Digest) (Signature, error)
	// Verify reports whether sig is a valid signature on digest under pub.
	Verify(pub PublicKey, digest types.Digest, sig Signature) bool
}

// KeyPair holds a private key together with its encoded public key.
type KeyPair struct {
	kind SchemeKind
	pub  PublicKey
	// exactly one of the following is set, matching kind
	ecdsaPriv *ecdsa.PrivateKey
	ed        *edKey
	simSeed   []byte
}

// Public returns the encoded public key.
func (kp *KeyPair) Public() PublicKey { return kp.pub }

// Kind returns the scheme the pair belongs to.
func (kp *KeyPair) Kind() SchemeKind { return kp.kind }

var (
	// ErrBadRandom is returned when the random source fails.
	ErrBadRandom = errors.New("crypto: random source failure")
	// ErrWrongScheme is returned when a key pair is used with a scheme it
	// does not belong to.
	ErrWrongScheme = errors.New("crypto: key pair belongs to a different scheme")
)

// NewScheme returns the Scheme implementation for kind. The Sim scheme
// requires the registry it will consult for verification. The Ed25519
// scheme checks a signature under a key registered in reg against that
// key's table (ed25519.go), and under any other key as the standard
// library would; reg may be nil. ECDSA ignores reg.
func NewScheme(kind SchemeKind, reg *Registry) (Scheme, error) {
	switch kind {
	case SchemeECDSA:
		return ecdsaScheme{}, nil
	case SchemeEd25519:
		return edScheme{reg: reg}, nil
	case SchemeSim:
		if reg == nil {
			return nil, errors.New("crypto: sim scheme needs a registry")
		}
		return &simScheme{reg: reg}, nil
	default:
		return nil, fmt.Errorf("crypto: unknown scheme kind %d", int(kind))
	}
}

// ecdsaScheme implements Scheme over NIST P-256.
type ecdsaScheme struct{}

var _ Scheme = ecdsaScheme{}

func (ecdsaScheme) Kind() SchemeKind { return SchemeECDSA }

func (ecdsaScheme) GenerateKey(rand io.Reader) (*KeyPair, error) {
	// crypto/ecdsa.GenerateKey mixes its own entropy into the caller's
	// reader (Go 1.24's FIPS module ignores it outright), so a seeded
	// reader no longer reproduces the same key in every process. The
	// demo PKI derives each replica's key from a shared seed across
	// separate node processes, so derive the scalar directly instead:
	// rejection-sample d in [1, N-1] from the stream.
	curve := elliptic.P256()
	params := curve.Params()
	buf := make([]byte, (params.N.BitLen()+7)/8)
	for {
		if _, err := io.ReadFull(rand, buf); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRandom, err)
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() == 0 || d.Cmp(params.N) >= 0 {
			continue
		}
		priv := &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: curve}, D: d}
		priv.X, priv.Y = curve.ScalarBaseMult(buf)
		pub := elliptic.MarshalCompressed(curve, priv.X, priv.Y)
		return &KeyPair{kind: SchemeECDSA, pub: pub, ecdsaPriv: priv}, nil
	}
}

func (ecdsaScheme) Sign(kp *KeyPair, digest types.Digest) (Signature, error) {
	if kp.kind != SchemeECDSA {
		return nil, ErrWrongScheme
	}
	// The nonce stream is derived from key+digest; note crypto/ecdsa
	// still consumes entropy nondeterministically (MaybeReadByte), so
	// ECDSA signatures are not bit-reproducible across runs — use
	// Ed25519 or the sim scheme where reproducibility matters.
	r, s, err := ecdsa.Sign(newDetReader(kp.ecdsaPriv.D.Bytes(), digest), kp.ecdsaPriv, digest[:])
	if err != nil {
		return nil, err
	}
	sig := make([]byte, 64)
	r.FillBytes(sig[:32])
	s.FillBytes(sig[32:])
	return sig, nil
}

func (ecdsaScheme) Verify(pub PublicKey, digest types.Digest, sig Signature) bool {
	if len(sig) != 64 {
		return false
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), pub)
	if x == nil {
		return false
	}
	pk := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:])
	return ecdsa.Verify(pk, digest[:], r, s)
}

// detReader yields a deterministic byte stream for ECDSA nonce generation,
// seeded by the private scalar and the digest being signed (RFC-6979 in
// spirit, not to the letter).
type detReader struct {
	block [32]byte
	used  int
	ctr   uint8
	seed  []byte
}

func newDetReader(priv []byte, digest types.Digest) *detReader {
	seed := make([]byte, 0, len(priv)+len(digest))
	seed = append(seed, priv...)
	seed = append(seed, digest[:]...)
	r := &detReader{seed: seed, used: 32}
	return r
}

func (r *detReader) Read(p []byte) (int, error) {
	for i := range p {
		if r.used == 32 {
			h := sha256.New()
			h.Write(r.seed)
			h.Write([]byte{r.ctr})
			copy(r.block[:], h.Sum(nil))
			r.ctr++
			r.used = 0
		}
		p[i] = r.block[r.used]
		r.used++
	}
	return len(p), nil
}

// simScheme is the fast in-process scheme: sig = HMAC-SHA256(seed, digest).
// Verification looks the seed up in the registry by public key. Only the
// simulator uses it; see the package comment for the security caveat.
type simScheme struct {
	reg *Registry
}

var _ Scheme = (*simScheme)(nil)

func (*simScheme) Kind() SchemeKind { return SchemeSim }

func (*simScheme) GenerateKey(rand io.Reader) (*KeyPair, error) {
	seed := make([]byte, 32)
	if _, err := io.ReadFull(rand, seed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRandom, err)
	}
	pub := sha256.Sum256(seed)
	return &KeyPair{kind: SchemeSim, pub: pub[:], simSeed: seed}, nil
}

func (*simScheme) Sign(kp *KeyPair, digest types.Digest) (Signature, error) {
	if kp.kind != SchemeSim {
		return nil, ErrWrongScheme
	}
	mac := simMAC(kp.simSeed, digest)
	return mac[:], nil
}

func (s *simScheme) Verify(pub PublicKey, digest types.Digest, sig Signature) bool {
	seed, ok := s.reg.simSeed(pub)
	if !ok {
		return false
	}
	expect := simMAC(seed, digest)
	return hmac.Equal(expect[:], sig)
}

// simMAC computes HMAC-SHA256(seed, digest) without the ~6 heap
// allocations hmac.New costs per call: verification is the simulator's
// hottest operation (millions of calls per run), so the two SHA-256
// passes run over stack buffers. The output is bit-identical to
// crypto/hmac's.
func simMAC(seed []byte, digest types.Digest) [32]byte {
	if len(seed) > 64 {
		h := sha256.Sum256(seed)
		seed = h[:]
	}
	var ipad, opad [64]byte
	copy(ipad[:], seed)
	copy(opad[:], seed)
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	var inner [64 + 32]byte
	copy(inner[:64], ipad[:])
	copy(inner[64:], digest[:])
	innerSum := sha256.Sum256(inner[:])
	var outer [64 + 32]byte
	copy(outer[:64], opad[:])
	copy(outer[64:], innerSum[:])
	return sha256.Sum256(outer[:])
}
