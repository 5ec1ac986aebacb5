package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// Peer-link framing. A peer's writer opens every connection with a fixed
// preamble,
//
//	0x00 | "ZLBP" | version u8 | sender ReplicaID u32
//
// which no gob stream can begin with (gob opens with a non-zero message
// length), so one listener serves peers and clients. Every later frame is
//
//	len u32 | kind u8 | body
//
// with len counting kind and body, big-endian integers throughout. Each
// message type has one kind, numbered here, and one canonical body, which
// the type encodes itself (AppendBinary) and its package reads back with a
// wire.Reader (see README.md for the table): decoders refuse unknown
// kinds, trailing bytes, map keys that are not strictly ascending, flags
// other than 0 and 1, non-minimal varints and a length over maxFrameLen,
// so a decoded frame re-encodes to the bytes it was read from.

// preamble is what a peer writer sends before its first frame.
const (
	preambleByte    = 0x00
	preambleMagic   = "ZLBP"
	preambleVersion = 2
	preambleLen     = 1 + len(preambleMagic) + 1 + 4
)

// maxFrameLen caps a frame's length prefix. A reader refuses a longer
// one before allocating anything, and Send refuses to queue one. The
// largest frames are catch-up transfers (CatchupResp, JoinNotice) that
// carry whole decided blocks.
const maxFrameLen = 256 << 20

// frameKind names a frame's message type.
type frameKind uint8

// Frame kinds, one per peer message type. The numbers are the wire format:
// append, never renumber. 14–16 carried the version 1 block pull and PoF
// gossip; they stay reserved, and a decoder refuses them as unknown.
const (
	kindInit frameKind = iota + 1
	kindEcho
	kindReady
	kindPayloadReq
	kindPayloadResp
	kindEst
	kindCoord
	kindAux
	kindDecide
	kindDecideReq
	kindProposalReq
	kindProposalResp
	kindConfirm
	_
	_
	_
	kindJoinNotice
	kindCatchupReq
	kindCatchupResp
	kindPoFBroadcast
	kindSync
	numKinds = iota
)

// Frame codec errors. A body the type's reader refuses fails with a wire
// error (wire.ErrTruncated, wire.ErrNonCanonical, wire.ErrMapOrder,
// wire.ErrTrailing) or the reader's own. A reader that meets any of them
// counts a decode error and drops the connection; the writer that meets
// errNoKind or errFrameSize refuses the message instead of queueing it.
var (
	errNoKind      = errors.New("transport: message type has no frame kind")
	errFrameSize   = errors.New("transport: frame length over the cap")
	errPreamble    = errors.New("transport: bad peer preamble")
	errFrameKind   = errors.New("transport: unknown frame kind")
	errFrameLength = errors.New("transport: length prefix disagrees with the frame")
)

// appendPreamble appends the connection preamble naming the sender.
func appendPreamble(b []byte, self types.ReplicaID) []byte {
	b = append(b, preambleByte)
	b = append(b, preambleMagic...)
	b = append(b, preambleVersion)
	return binary.BigEndian.AppendUint32(b, uint32(self))
}

// readPreamble consumes a connection's preamble and returns the sender.
func readPreamble(r io.Reader) (types.ReplicaID, error) {
	var p [preambleLen]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return 0, err
	}
	if p[0] != preambleByte || string(p[1:5]) != preambleMagic {
		return 0, fmt.Errorf("%w: % x", errPreamble, p[:5])
	}
	if p[5] != preambleVersion {
		return 0, fmt.Errorf("%w: unknown version %d", errPreamble, p[5])
	}
	return types.ReplicaID(binary.BigEndian.Uint32(p[6:])), nil
}

// readFrame reads one frame. The buffer it allocates is sized for the
// frame: a decoded payload may alias it, nothing else does.
func readFrame(r io.Reader) (simnet.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameLen {
		return nil, fmt.Errorf("%w: %d bytes", errFrameSize, size)
	}
	frame := make([]byte, 4+int(size))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return nil, err
	}
	return decodeFrame(frame)
}

// sizeHint is a capacity that holds most frames of msg's type without
// regrowing: a vote fits in 128 bytes, a confirmation in 128 plus its
// signature, a decision in 128 plus what its certificate's votes model
// (Certificate.ModelBytes), and a frame that carries a payload gets it
// whole plus room for its statements.
func sizeHint(msg simnet.Message) int {
	switch m := msg.(type) {
	case *asmr.Confirm:
		return 128 + len(m.Stmt.Sig)
	case *bincon.Decide:
		return 128 + m.Cert.ModelBytes()
	case *rbc.Init:
		return 512 + len(m.Payload)
	case *rbc.PayloadResp:
		return 512 + len(m.Payload)
	case *sbc.ProposalResp:
		return 512 + len(m.Payload)
	case *SyncFrame:
		return 512 + len(m.Payload)
	}
	return 128
}

// appendFrame appends msg's frame, length prefix included. A message type
// without a kind appends nothing and returns errNoKind.
func appendFrame(b []byte, msg simnet.Message) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length, filled in below
	var err error
	switch m := msg.(type) {
	case *rbc.Init:
		b, err = m.AppendBinary(append(b, byte(kindInit)))
	case *rbc.Echo:
		b, err = m.AppendBinary(append(b, byte(kindEcho)))
	case *rbc.Ready:
		b, err = m.AppendBinary(append(b, byte(kindReady)))
	case *rbc.PayloadReq:
		b, err = m.AppendBinary(append(b, byte(kindPayloadReq)))
	case *rbc.PayloadResp:
		b, err = m.AppendBinary(append(b, byte(kindPayloadResp)))
	case *bincon.Est:
		b, err = m.AppendBinary(append(b, byte(kindEst)))
	case *bincon.Coord:
		b, err = m.AppendBinary(append(b, byte(kindCoord)))
	case *bincon.Aux:
		b, err = m.AppendBinary(append(b, byte(kindAux)))
	case *bincon.Decide:
		b, err = m.AppendBinary(append(b, byte(kindDecide)))
	case *bincon.DecideReq:
		b, err = m.AppendBinary(append(b, byte(kindDecideReq)))
	case *sbc.ProposalReq:
		b, err = m.AppendBinary(append(b, byte(kindProposalReq)))
	case *sbc.ProposalResp:
		b, err = m.AppendBinary(append(b, byte(kindProposalResp)))
	case *asmr.Confirm:
		b, err = m.AppendBinary(append(b, byte(kindConfirm)))
	case *asmr.JoinNotice:
		b, err = m.AppendBinary(append(b, byte(kindJoinNotice)))
	case *asmr.CatchupReq:
		b, err = m.AppendBinary(append(b, byte(kindCatchupReq)))
	case *asmr.CatchupResp:
		b, err = m.AppendBinary(append(b, byte(kindCatchupResp)))
	case *membership.PoFBroadcast:
		b, err = m.AppendBinary(append(b, byte(kindPoFBroadcast)))
	case *SyncFrame:
		b, err = m.AppendBinary(append(b, byte(kindSync)))
	default:
		err = fmt.Errorf("%w: %T", errNoKind, msg)
	}
	if err != nil {
		return b[:start], err
	}
	size := len(b) - start - 4
	if size > maxFrameLen {
		return b[:start], fmt.Errorf("%w: %T of %d bytes", errFrameSize, msg, size)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(size))
	return b, nil
}

// decodeFrame decodes one whole frame, length prefix included.
func decodeFrame(frame []byte) (simnet.Message, error) {
	if len(frame) < 5 {
		return nil, wire.ErrTruncated
	}
	if size := binary.BigEndian.Uint32(frame); uint64(size) != uint64(len(frame)-4) {
		return nil, fmt.Errorf("%w: prefix %d, frame %d", errFrameLength, size, len(frame)-4)
	}
	kind := frameKind(frame[4])
	r := wire.NewReader(frame[5:])
	var msg simnet.Message
	switch kind {
	case kindInit:
		msg = rbc.ReadInit(&r)
	case kindEcho:
		msg = rbc.ReadEcho(&r)
	case kindReady:
		msg = rbc.ReadReady(&r)
	case kindPayloadReq:
		msg = rbc.ReadPayloadReq(&r)
	case kindPayloadResp:
		msg = rbc.ReadPayloadResp(&r)
	case kindEst:
		msg = bincon.ReadEst(&r)
	case kindCoord:
		msg = bincon.ReadCoord(&r)
	case kindAux:
		msg = bincon.ReadAux(&r)
	case kindDecide:
		msg = bincon.ReadDecide(&r)
	case kindDecideReq:
		msg = bincon.ReadDecideReq(&r)
	case kindProposalReq:
		msg = sbc.ReadProposalReq(&r)
	case kindProposalResp:
		msg = sbc.ReadProposalResp(&r)
	case kindConfirm:
		msg = asmr.ReadConfirm(&r)
	case kindJoinNotice:
		msg = asmr.ReadJoinNotice(&r)
	case kindCatchupReq:
		msg = asmr.ReadCatchupReq(&r)
	case kindCatchupResp:
		msg = asmr.ReadCatchupResp(&r)
	case kindPoFBroadcast:
		msg = membership.ReadPoFBroadcast(&r)
	case kindSync:
		msg = readSyncFrame(&r)
	default:
		return nil, fmt.Errorf("%w: %d", errFrameKind, kind)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("transport: frame kind %d: %w", kind, err)
	}
	return msg, nil
}
