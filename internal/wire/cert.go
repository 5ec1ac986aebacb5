package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
)

// Certificate codec. Two framings share one body. Peer links carry the
// signed form inside their frames (AppendCertificate, ReadCertificate):
//
//	byte 0        format version (certFormatV1)
//	byte 1        form: certFormSigned, the one form
//	then          body
//
// and the scheme-stamped form (EncodeCertificate, DecodeCertificate) adds
// the scheme kind (crypto.SchemeKind) between the version and the form
// byte, for a certificate read outside a deployment that fixes its
// scheme. Nothing on a node stores one yet; its callers are the tests and
// the fuzz target. The body is
//
//	statement     accountability.EncodedLen bytes, fixed 50
//	count u32, count × signed statement (AppendSigned layout)
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
	return appendCertBody(buf, c)
}

// AppendCertificate appends the signed form, without a scheme byte.
func AppendCertificate(buf []byte, c *accountability.Certificate) []byte {
	buf = append(buf, certFormatV1, certFormSigned)
	return appendCertBody(buf, c)
}

func appendCertBody(buf []byte, c *accountability.Certificate) []byte {
	buf = c.Stmt.AppendEncoding(buf)
	buf = appendUint32(buf, uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		buf = AppendSigned(buf, s)
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
	c, r, err := readCertBody(data[3:])
	if err != nil {
		return nil, err
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r))
	}
	return c, nil
}

// ReadCertificate consumes one certificate in the signed form from r and
// returns the rest.
func ReadCertificate(r []byte) (*accountability.Certificate, []byte, error) {
	if len(r) < 2 {
		return nil, nil, ErrTruncated
	}
	if r[0] != certFormatV1 {
		return nil, nil, fmt.Errorf("%w: %d", ErrCertVersion, r[0])
	}
	if form := r[1]; form != certFormSigned {
		return nil, nil, fmt.Errorf("wire: unknown certificate form %d", form)
	}
	return readCertBody(r[2:])
}

func readCertBody(r []byte) (*accountability.Certificate, []byte, error) {
	if len(r) < accountability.EncodedLen+4 {
		return nil, nil, ErrTruncated
	}
	stmt, err := accountability.DecodeStatement(r[:accountability.EncodedLen])
	if err != nil {
		return nil, nil, err
	}
	r = r[accountability.EncodedLen:]
	count := binary.BigEndian.Uint32(r)
	r = r[4:]
	if count > maxCount || int(count) > len(r)/signedMinLen {
		return nil, nil, fmt.Errorf("%w: %d signatures in %d bytes", ErrTruncated, count, len(r))
	}
	sigs := make([]accountability.Signed, 0, count)
	for i := uint32(0); i < count; i++ {
		var s accountability.Signed
		if s, r, err = ReadSigned(r); err != nil {
			return nil, nil, fmt.Errorf("wire: certificate signature %d: %w", i, err)
		}
		if s.Stmt != stmt {
			return nil, nil, fmt.Errorf("wire: certificate signature %d covers a different statement", i)
		}
		sigs = append(sigs, s)
	}
	c, err := accountability.NewCertificate(stmt, sigs)
	if err != nil {
		return nil, nil, fmt.Errorf("wire: %w", err)
	}
	return c, r, nil
}
