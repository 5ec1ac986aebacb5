package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Certificate codec. Nothing on a node calls it yet: certificates cross
// the network inside the transport's gob frames, and the store persists
// blocks, not certificates. It is the certificate half of the one wire
// format that retires gob (ROADMAP item 6), and today's one caller outside
// the tests is the size meter of the `certs` experiment
// (internal/bench/certs.go). The format is versioned from day one:
//
//	byte 0        format version (certFormatV1)
//	byte 1        scheme kind (crypto.SchemeKind)
//	byte 2        form: certFormSigned | certFormAggregate
//	bytes 3..52   statement (accountability.EncodedLen, fixed 50 bytes)
//	then, signed-statement form:
//	    count u32, count × signed statement (appendSigned layout)
//	or, aggregate form:
//	    bitmapLen u32, bitmap, sigLen u32, aggregate signature
//
// The aggregate bitmap is over the crypto.Registry's canonical signer
// index: bit i set means the identity at registry position i signed. With
// a nil registry the identity mapping bit i ↔ ReplicaID(i+1) applies,
// which coincides with the dense 1..n registration every cluster
// bootstrap in this repository performs. Decoders reject unknown
// versions, unknown scheme kinds, non-canonical bitmaps (trailing zero
// byte), and trailing garbage, so a decoded certificate re-encodes
// byte-identically.

const (
	certFormatV1 = 1

	certFormSigned    = 0
	certFormAggregate = 1

	certHeaderLen = 3 + accountability.EncodedLen
)

// Certificate codec errors.
var (
	ErrCertVersion = errors.New("wire: unknown certificate format version")
	ErrCertScheme  = errors.New("wire: certificate scheme kind mismatch")
	ErrCertSigner  = errors.New("wire: certificate bitmap names an unregistered signer")
)

// EncodeCertificate serializes a certificate under the given scheme kind.
// reg supplies the canonical signer index for aggregate bitmaps; nil uses
// the identity mapping (bit i ↔ ReplicaID(i+1)).
func EncodeCertificate(kind crypto.SchemeKind, reg *crypto.Registry, c *accountability.Certificate) ([]byte, error) {
	buf := make([]byte, 0, certHeaderLen+16)
	buf = append(buf, certFormatV1, byte(kind))
	if c.Agg != nil {
		buf = append(buf, certFormAggregate)
		buf = append(buf, c.Stmt.Encode()...)
		bitmap, err := signerBitmap(reg, c.Agg.Signers)
		if err != nil {
			return nil, err
		}
		buf = appendUint32(buf, uint32(len(bitmap)))
		buf = append(buf, bitmap...)
		buf = appendUint32(buf, uint32(len(c.Agg.Sig)))
		return append(buf, c.Agg.Sig...), nil
	}
	buf = append(buf, certFormSigned)
	buf = append(buf, c.Stmt.Encode()...)
	buf = appendUint32(buf, uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		buf = appendSigned(buf, s)
	}
	return buf, nil
}

// DecodeCertificate parses a certificate, rejecting unknown versions and
// certificates stamped with a different scheme kind than expected.
func DecodeCertificate(kind crypto.SchemeKind, reg *crypto.Registry, data []byte) (*accountability.Certificate, error) {
	if len(data) < certHeaderLen {
		return nil, ErrTruncated
	}
	if data[0] != certFormatV1 {
		return nil, fmt.Errorf("%w: %d", ErrCertVersion, data[0])
	}
	gotKind := crypto.SchemeKind(data[1])
	switch gotKind {
	case crypto.SchemeECDSA, crypto.SchemeEd25519, crypto.SchemeSim:
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCertScheme, data[1])
	}
	if gotKind != kind {
		return nil, fmt.Errorf("%w: got %v, want %v", ErrCertScheme, gotKind, kind)
	}
	form := data[2]
	stmt, err := accountability.DecodeStatement(data[3:certHeaderLen])
	if err != nil {
		return nil, err
	}
	r := data[certHeaderLen:]
	switch form {
	case certFormSigned:
		if len(r) < 4 {
			return nil, ErrTruncated
		}
		count := binary.BigEndian.Uint32(r)
		r = r[4:]
		const minSigned = accountability.EncodedLen + 8
		if count > maxCount || int(count) > len(r)/minSigned {
			return nil, fmt.Errorf("%w: %d signatures in %d bytes", ErrTruncated, count, len(r))
		}
		sigs := make([]accountability.Signed, 0, count)
		for i := uint32(0); i < count; i++ {
			var s accountability.Signed
			if s, r, err = decodeSigned(r); err != nil {
				return nil, fmt.Errorf("wire: certificate signature %d: %w", i, err)
			}
			if s.Stmt != stmt {
				return nil, fmt.Errorf("wire: certificate signature %d covers a different statement", i)
			}
			sigs = append(sigs, s)
		}
		if len(r) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r))
		}
		c, err := accountability.NewCertificate(stmt, sigs)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
		return c, nil
	case certFormAggregate:
		if len(r) < 4 {
			return nil, ErrTruncated
		}
		bitmapLen := binary.BigEndian.Uint32(r)
		r = r[4:]
		if bitmapLen > maxCount || uint32(len(r)) < bitmapLen {
			return nil, ErrTruncated
		}
		bitmap := r[:bitmapLen]
		r = r[bitmapLen:]
		signers, err := bitmapSigners(reg, bitmap)
		if err != nil {
			return nil, err
		}
		if len(r) < 4 {
			return nil, ErrTruncated
		}
		sigLen := binary.BigEndian.Uint32(r)
		r = r[4:]
		if sigLen > maxCount || uint32(len(r)) != sigLen {
			return nil, ErrTruncated
		}
		sig := crypto.Signature(r[:sigLen:sigLen])
		return &accountability.Certificate{
			Stmt: stmt,
			Agg:  &accountability.AggregateProof{Signers: signers, Sig: sig},
		}, nil
	default:
		return nil, fmt.Errorf("wire: unknown certificate form %d", form)
	}
}

// signerBitmap encodes the sorted signer set as a canonical bitmap over
// the registry's signer index (no trailing zero bytes).
func signerBitmap(reg *crypto.Registry, signers []types.ReplicaID) ([]byte, error) {
	if len(signers) == 0 {
		return nil, errors.New("wire: aggregate certificate with no signers")
	}
	var bitmap []byte
	for _, id := range signers {
		i, ok := signerIndexOf(reg, id)
		if !ok {
			return nil, fmt.Errorf("%w: %v", ErrCertSigner, id)
		}
		for len(bitmap) <= i/8 {
			bitmap = append(bitmap, 0)
		}
		bitmap[i/8] |= 1 << (i % 8)
	}
	return bitmap, nil
}

// bitmapSigners decodes a canonical bitmap back to the sorted signer set.
func bitmapSigners(reg *crypto.Registry, bitmap []byte) ([]types.ReplicaID, error) {
	if len(bitmap) == 0 || bitmap[len(bitmap)-1] == 0 {
		return nil, errors.New("wire: non-canonical certificate bitmap")
	}
	var signers []types.ReplicaID
	for i := 0; i < len(bitmap)*8; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		id, ok := signerAtIndex(reg, i)
		if !ok {
			return nil, fmt.Errorf("%w: index %d", ErrCertSigner, i)
		}
		signers = append(signers, id)
	}
	return signers, nil
}

func signerIndexOf(reg *crypto.Registry, id types.ReplicaID) (int, bool) {
	if reg == nil {
		if id == 0 {
			return 0, false
		}
		return int(id) - 1, true
	}
	return reg.SignerIndex(id)
}

func signerAtIndex(reg *crypto.Registry, i int) (types.ReplicaID, bool) {
	if reg == nil {
		return types.ReplicaID(i + 1), true
	}
	return reg.SignerAt(i)
}
