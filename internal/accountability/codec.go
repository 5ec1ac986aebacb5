package accountability

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/wire"
)

// Binary codecs of the accountability artifacts that travel: signed
// statements, certificates and PoF lists. Integers are big-endian.
//
//	signed       statement (EncodedLen, fixed 50) | signer u32 | sigLen u32 | sig
//	certificate  version u8 (1) | form u8 (0) | statement | count u32 | count × signed
//	PoF list     count u32 | count × (culprit u32 | signed A | signed B)
//
// A certificate has one form. Form byte 1 is retired, not free: it named
// an aggregate signature plus a signer bitmap that only the simulator's
// MAC scheme could produce, and is refused like any other unknown form.
// The readers refuse unknown versions and forms, and a certificate whose
// signatures cover another statement or repeat a signer, so a decoded
// certificate re-encodes byte-identically.

const (
	certFormatV1   = 1
	certFormSigned = 0

	// signedMinLen is the length of a signed statement with an empty
	// signature: the least any element of a list of them occupies.
	signedMinLen = EncodedLen + 8
)

// ErrCertVersion marks a certificate of an unknown format version.
var ErrCertVersion = errors.New("accountability: unknown certificate format version")

// AppendBinary appends the signed statement's layout. It cannot fail.
func (s Signed) AppendBinary(b []byte) ([]byte, error) { return appendSigned(b, s), nil }

func appendSigned(b []byte, s Signed) []byte {
	b = s.Stmt.AppendEncoding(b)
	b = binary.BigEndian.AppendUint32(b, uint32(s.Signer))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Sig)))
	return append(b, s.Sig...)
}

// ReadSigned reads one signed statement. The signature is copied out, so
// a statement kept in a log does not pin the buffer it arrived in; an
// empty one decodes as nil.
func ReadSigned(r *wire.Reader) Signed {
	s := Signed{Stmt: readStatement(r), Signer: r.ReplicaID()}
	if sig := r.Take(r.Count(1)); len(sig) > 0 {
		s.Sig = append(make([]byte, 0, len(sig)), sig...)
	}
	return s
}

func readStatement(r *wire.Reader) Statement {
	p := r.Take(EncodedLen)
	if p == nil {
		return Statement{}
	}
	s, _ := DecodeStatement(p) // only a wrong length fails
	return s
}

// AppendOptSigned writes flag 0 for nil, else flag 1 and the statement.
func AppendOptSigned(b []byte, s *Signed) []byte {
	if s == nil {
		return append(b, 0)
	}
	return appendSigned(append(b, 1), *s)
}

// ReadOptSigned reads AppendOptSigned's layout.
func ReadOptSigned(r *wire.Reader) *Signed {
	if !r.Flag() {
		return nil
	}
	s := ReadSigned(r)
	if r.Err() != nil {
		return nil
	}
	return &s
}

// AppendBinary appends the certificate's layout. It cannot fail.
func (c *Certificate) AppendBinary(b []byte) ([]byte, error) { return appendCertificate(b, c), nil }

func appendCertificate(b []byte, c *Certificate) []byte {
	b = c.Stmt.AppendEncoding(append(b, certFormatV1, certFormSigned))
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.Sigs)))
	for _, s := range c.Sigs {
		b = appendSigned(b, s)
	}
	return b
}

// ReadCertificate reads one certificate.
func ReadCertificate(r *wire.Reader) *Certificate {
	if v := r.U8(); v != certFormatV1 {
		r.Fail(fmt.Errorf("%w: %d", ErrCertVersion, v))
	}
	if form := r.U8(); form != certFormSigned {
		r.Fail(fmt.Errorf("accountability: unknown certificate form %d", form))
	}
	stmt := readStatement(r)
	sigs := make([]Signed, r.Count(signedMinLen))
	for i := range sigs {
		sigs[i] = ReadSigned(r)
	}
	if r.Err() != nil {
		return nil
	}
	c, err := NewCertificate(stmt, sigs)
	if err != nil {
		r.Fail(err)
		return nil
	}
	return c
}

// AppendOptCertificate writes flag 0 for nil, else flag 1 and the
// certificate.
func AppendOptCertificate(b []byte, c *Certificate) []byte {
	if c == nil {
		return append(b, 0)
	}
	return appendCertificate(append(b, 1), c)
}

// ReadOptCertificate reads AppendOptCertificate's layout.
func ReadOptCertificate(r *wire.Reader) *Certificate {
	if !r.Flag() {
		return nil
	}
	return ReadCertificate(r)
}

// AppendPoFs appends a PoF list, the exclusion proposal payload.
func AppendPoFs(b []byte, pofs []PoF) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(pofs)))
	for _, p := range pofs {
		b = binary.BigEndian.AppendUint32(b, uint32(p.Culprit))
		b = appendSigned(appendSigned(b, p.A), p.B)
	}
	return b
}

// ReadPoFs reads AppendPoFs' layout.
func ReadPoFs(r *wire.Reader) []PoF {
	pofs := make([]PoF, r.Count(4+2*signedMinLen))
	for i := range pofs {
		pofs[i] = PoF{Culprit: r.ReplicaID(), A: ReadSigned(r), B: ReadSigned(r)}
	}
	return pofs
}
