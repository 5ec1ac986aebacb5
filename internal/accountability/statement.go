// Package accountability implements the machinery that makes ZLB's
// consensus accountable (paper §2.1, §4.1): canonical signed protocol
// statements, certificates (quorums of signed statements supporting a
// decision), undeniable proofs of fraud (PoFs) built from two conflicting
// statements signed by the same replica, and the per-replica message log
// that cross-checks everything it sees — including statements arriving
// inside other replicas' certificates — to expose equivocators.
package accountability

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Kind is the protocol phase a statement belongs to. A replica commits a
// provable equivocation when it signs two statements of the same Kind for
// the same (Instance, Slot, Round) with different values. EST is absent
// on purpose: BV-broadcast legitimately lets a replica broadcast both
// binary values (its own estimate plus a relay), so EST messages are
// signed for authentication but never constitute equivocation evidence.
type Kind uint8

// Accountable statement kinds.
const (
	// KindInit is a reliable-broadcast proposal (one per broadcaster per
	// instance; Slot = broadcaster).
	KindInit Kind = iota + 1
	// KindEcho is a reliable-broadcast echo (one digest per slot).
	KindEcho
	// KindReady is a reliable-broadcast ready (one digest per slot).
	KindReady
	// KindCoord is the weak coordinator's value for a round (one per
	// round, coordinator only).
	KindCoord
	// KindAux is the binary-consensus auxiliary vote (exactly one value
	// per replica per round — the central equivocation slot of the
	// binary-consensus attack).
	KindAux
	// KindConfirm is the post-decision confirmation of a decision digest
	// for an ASMR instance (one per replica per instance).
	KindConfirm
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInit:
		return "INIT"
	case KindEcho:
		return "ECHO"
	case KindReady:
		return "READY"
	case KindCoord:
		return "COORD"
	case KindAux:
		return "AUX"
	case KindConfirm:
		return "CONFIRM"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Statement is the canonical, signable unit of the accountable protocols:
// "in consensus context (Context, Instance, Slot, Round), I vouch for
// Value". Context separates the main ASMR chain of consensus instances
// from the exclusion and inclusion consensus runs so their statements can
// never be confused.
type Statement struct {
	Context  uint8
	Kind     Kind
	Instance types.Instance
	Slot     uint32
	Round    types.Round
	Value    types.Digest
}

// Contexts for Statement.Context.
const (
	// CtxMain is the main chain of ASMR consensus instances Γk.
	CtxMain uint8 = iota + 1
	// CtxExclusion is an exclusion consensus (Alg. 1 line 22).
	CtxExclusion
	// CtxInclusion is an inclusion consensus (Alg. 1 line 42).
	CtxInclusion
)

// BoolDigest encodes a binary consensus value as a digest so Statements
// have a single value representation.
func BoolDigest(v bool) types.Digest {
	var d types.Digest
	if v {
		d[0] = 1
	}
	return d
}

// DigestBool decodes BoolDigest.
func DigestBool(d types.Digest) bool { return d[0] == 1 }

// EncodedLen is the fixed canonical encoding length of a Statement.
const EncodedLen = 1 + 1 + 8 + 4 + 4 + 32

// encodedLen is kept as the package-internal alias.
const encodedLen = EncodedLen

// Encode produces the canonical fixed-width encoding signatures cover.
func (s Statement) Encode() []byte {
	buf := make([]byte, encodedLen)
	s.encodeInto((*[encodedLen]byte)(buf))
	return buf
}

// AppendEncoding appends the canonical encoding to buf, allocating
// nothing beyond what buf's growth needs: frame encoders call it once per
// signed statement they send.
func (s Statement) AppendEncoding(buf []byte) []byte {
	var enc [encodedLen]byte
	s.encodeInto(&enc)
	return append(buf, enc[:]...)
}

func (s Statement) encodeInto(buf *[encodedLen]byte) {
	buf[0] = s.Context
	buf[1] = byte(s.Kind)
	binary.BigEndian.PutUint64(buf[2:], uint64(s.Instance))
	binary.BigEndian.PutUint32(buf[10:], s.Slot)
	binary.BigEndian.PutUint32(buf[14:], uint32(s.Round))
	copy(buf[18:], s.Value[:])
}

// DecodeStatement parses a canonical encoding.
func DecodeStatement(buf []byte) (Statement, error) {
	if len(buf) != encodedLen {
		return Statement{}, fmt.Errorf("accountability: bad statement length %d", len(buf))
	}
	var s Statement
	s.Context = buf[0]
	s.Kind = Kind(buf[1])
	s.Instance = types.Instance(binary.BigEndian.Uint64(buf[2:]))
	s.Slot = binary.BigEndian.Uint32(buf[10:])
	s.Round = types.Round(binary.BigEndian.Uint32(buf[14:]))
	copy(s.Value[:], buf[18:])
	return s, nil
}

// Digest returns the hash signatures are computed over. The encoding is
// assembled in a stack buffer: signature verification recomputes this for
// every signed statement received, so it must not allocate.
func (s Statement) Digest() types.Digest {
	var buf [encodedLen]byte
	s.encodeInto(&buf)
	return types.Hash(buf[:])
}

// SlotKey identifies the equivocation slot of a statement: everything but
// the value. Two signed statements with equal SlotKey and different Value
// from the same signer form a PoF.
type SlotKey struct {
	Context  uint8
	Kind     Kind
	Instance types.Instance
	Slot     uint32
	Round    types.Round
}

// Key returns the statement's equivocation slot.
func (s Statement) Key() SlotKey {
	return SlotKey{Context: s.Context, Kind: s.Kind, Instance: s.Instance, Slot: s.Slot, Round: s.Round}
}

// String implements fmt.Stringer.
func (s Statement) String() string {
	return fmt.Sprintf("%v[ctx%d,%v,slot%d,r%d]=%v", s.Kind, s.Context, s.Instance, s.Slot, s.Round, s.Value)
}

// Signed is a statement with its author and signature: the transferable
// evidence unit. Signed statements travel inside protocol messages and
// certificates.
type Signed struct {
	Stmt   Statement
	Signer types.ReplicaID
	Sig    crypto.Signature
}

// SignStatement signs a statement as the given signer.
func SignStatement(signer *crypto.Signer, stmt Statement) (Signed, error) {
	sig, err := signer.Sign(stmt.Digest())
	if err != nil {
		return Signed{}, fmt.Errorf("signing %v: %w", stmt, err)
	}
	return Signed{Stmt: stmt, Signer: signer.ID(), Sig: sig}, nil
}

// Verify reports whether the signature is valid for the claimed signer.
func (s Signed) Verify(v *crypto.Signer) bool {
	return v.Verify(s.Signer, s.Stmt.Digest(), s.Sig)
}

// ErrNotEquivocation is returned by NewPoF when the two statements do not
// prove fraud.
var ErrNotEquivocation = errors.New("accountability: statements do not prove equivocation")

// PoF is an undeniable proof of fraud: two statements for the same
// equivocation slot, with different values, both validly signed by the
// same replica (Def. 1; paper §4.1 ).
type PoF struct {
	Culprit types.ReplicaID
	A, B    Signed
}

// NewPoF validates that a and b constitute a proof of fraud and builds it.
// Signature validity is NOT checked here (the caller may have already
// verified them); use Verify for full validation.
func NewPoF(a, b Signed) (PoF, error) {
	if a.Signer != b.Signer {
		return PoF{}, fmt.Errorf("%w: different signers %v / %v", ErrNotEquivocation, a.Signer, b.Signer)
	}
	if a.Stmt.Key() != b.Stmt.Key() {
		return PoF{}, fmt.Errorf("%w: different slots %v / %v", ErrNotEquivocation, a.Stmt, b.Stmt)
	}
	if a.Stmt.Value == b.Stmt.Value {
		return PoF{}, fmt.Errorf("%w: same value", ErrNotEquivocation)
	}
	return PoF{Culprit: a.Signer, A: a, B: b}, nil
}

// Verify fully validates the PoF: structure plus both signatures.
func (p PoF) Verify(v *crypto.Signer) bool {
	if _, err := NewPoF(p.A, p.B); err != nil {
		return false
	}
	if p.Culprit != p.A.Signer {
		return false
	}
	return p.A.Verify(v) && p.B.Verify(v)
}

// String implements fmt.Stringer.
func (p PoF) String() string {
	return fmt.Sprintf("PoF(%v: %v vs %v)", p.Culprit, p.A.Stmt, p.B.Stmt)
}
