package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
)

// Certificate codec. Nothing on a node calls it yet: certificates cross
// the network inside the transport's gob frames, and the store persists
// blocks, not certificates. It is the certificate half of the one wire
// format that retires gob (ROADMAP item 2); until then its callers are the
// tests and the fuzz target. The format is versioned from day one:
//
//	byte 0        format version (certFormatV1)
//	byte 1        scheme kind (crypto.SchemeKind)
//	byte 2        form: certFormSigned, the one form
//	bytes 3..52   statement (accountability.EncodedLen, fixed 50 bytes)
//	then          count u32, count × signed statement (appendSigned layout)
//
// Form byte 1 is retired, not free: it named an aggregate signature plus a
// signer bitmap that only the simulator's MAC scheme could produce, and is
// refused like any other unknown form. Decoders reject unknown versions,
// unknown scheme kinds, unknown forms and trailing garbage, so a decoded
// certificate re-encodes byte-identically.

const (
	certFormatV1 = 1

	certFormSigned = 0

	certHeaderLen = 3 + accountability.EncodedLen
)

// Certificate codec errors.
var (
	ErrCertVersion = errors.New("wire: unknown certificate format version")
	ErrCertScheme  = errors.New("wire: certificate scheme kind mismatch")
)

// EncodeCertificate serializes a certificate under the given scheme kind.
func EncodeCertificate(kind crypto.SchemeKind, c *accountability.Certificate) []byte {
	buf := make([]byte, 0, certHeaderLen+16)
	buf = append(buf, certFormatV1, byte(kind), certFormSigned)
	buf = append(buf, c.Stmt.Encode()...)
	buf = appendUint32(buf, uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		buf = appendSigned(buf, s)
	}
	return buf
}

// DecodeCertificate parses a certificate, rejecting unknown versions and
// certificates stamped with a different scheme kind than expected.
func DecodeCertificate(kind crypto.SchemeKind, data []byte) (*accountability.Certificate, error) {
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
	if form := data[2]; form != certFormSigned {
		return nil, fmt.Errorf("wire: unknown certificate form %d", form)
	}
	stmt, err := accountability.DecodeStatement(data[3:certHeaderLen])
	if err != nil {
		return nil, err
	}
	r := data[certHeaderLen:]
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
}
