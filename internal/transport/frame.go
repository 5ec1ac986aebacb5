package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/zeroloss/zlb/internal/accountability"
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
// message type has one kind and one canonical body built from the wire
// package's layouts (see README.md for the table): decoders refuse unknown
// kinds, trailing bytes, map keys that are not strictly ascending, flags
// other than 0 and 1, non-minimal varints and a length over maxFrameLen,
// so a decoded frame re-encodes to the bytes it was read from.

// preamble is what a peer writer sends before its first frame.
const (
	preambleByte    = 0x00
	preambleMagic   = "ZLBP"
	preambleVersion = 1
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
// append, never renumber.
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
	kindBlockReq
	kindBlockResp
	kindPoFGossip
	kindJoinNotice
	kindCatchupReq
	kindCatchupResp
	kindPoFBroadcast
	kindSync
	numKinds = iota
)

// Frame codec errors. A reader that meets one counts a decode error and
// drops the connection; the writer that meets errNoKind or errFrameSize
// refuses the message instead of queueing it.
var (
	errNoKind      = errors.New("transport: message type has no frame kind")
	errFrameSize   = errors.New("transport: frame length over the cap")
	errPreamble    = errors.New("transport: bad peer preamble")
	errFrameKind   = errors.New("transport: unknown frame kind")
	errFrameShort  = errors.New("transport: frame ends inside a field")
	errFrameTail   = errors.New("transport: trailing bytes after the frame body")
	errNonCanon    = errors.New("transport: non-canonical encoding")
	errMapOrder    = errors.New("transport: map keys not strictly ascending")
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
// regrowing: a vote fits in 128 bytes, and a frame that carries a payload
// gets it whole plus room for its statements.
func sizeHint(msg simnet.Message) int {
	switch m := msg.(type) {
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
	switch m := msg.(type) {
	case *rbc.Init:
		b = append(b, byte(kindInit))
		b = wire.AppendSigned(b, m.Stmt)
		b = appendBytes(b, m.Payload)
		b = binary.AppendVarint(b, int64(m.ClaimedBytes))
		b = binary.AppendVarint(b, int64(m.ClaimedSigs))
	case *rbc.Echo:
		b = append(b, byte(kindEcho))
		b = wire.AppendSigned(b, m.Stmt)
	case *rbc.Ready:
		b = append(b, byte(kindReady))
		b = wire.AppendSigned(b, m.Stmt)
	case *rbc.PayloadReq:
		b = append(b, byte(kindPayloadReq), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Broadcaster))
		b = append(b, m.Digest[:]...)
	case *rbc.PayloadResp:
		b = append(b, byte(kindPayloadResp), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Broadcaster))
		b = appendBytes(b, m.Payload)
		b = binary.AppendVarint(b, int64(m.ClaimedBytes))
		b = binary.AppendVarint(b, int64(m.ClaimedSigs))
		b = appendOptSigned(b, m.InitStmt)
	case *bincon.Est:
		b = append(b, byte(kindEst), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, m.Slot)
		b = binary.BigEndian.AppendUint32(b, uint32(m.Round))
		b = appendFlag(b, m.Value)
	case *bincon.Coord:
		b = append(b, byte(kindCoord))
		b = wire.AppendSigned(b, m.Stmt)
	case *bincon.Aux:
		b = append(b, byte(kindAux))
		b = wire.AppendSigned(b, m.Stmt)
	case *bincon.Decide:
		b = append(b, byte(kindDecide), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, m.Slot)
		b = appendFlag(b, m.Value)
		b = appendOptCert(b, m.Cert)
	case *bincon.DecideReq:
		b = append(b, byte(kindDecideReq), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, m.Slot)
	case *sbc.ProposalReq:
		b = append(b, byte(kindProposalReq), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Slot))
	case *sbc.ProposalResp:
		b = append(b, byte(kindProposalResp), m.Context)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Instance))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Slot))
		b = appendBytes(b, m.Payload)
		b = binary.AppendVarint(b, int64(m.ClaimedBytes))
		b = binary.AppendVarint(b, int64(m.ClaimedSigs))
		b = appendOptCert(b, m.Cert)
		b = appendOptSigned(b, m.InitStmt)
	case *asmr.Confirm:
		b = append(b, byte(kindConfirm))
		b = binary.BigEndian.AppendUint64(b, m.K)
		b = binary.BigEndian.AppendUint32(b, m.Attempt)
		b = append(b, m.Digest[:]...)
		b = wire.AppendSigned(b, m.Stmt)
	case *asmr.BlockReq:
		b = append(b, byte(kindBlockReq))
		b = binary.BigEndian.AppendUint64(b, m.K)
		b = binary.BigEndian.AppendUint32(b, m.Attempt)
	case *asmr.BlockResp:
		b = append(b, byte(kindBlockResp))
		b = binary.BigEndian.AppendUint64(b, m.K)
		b = binary.BigEndian.AppendUint32(b, m.Attempt)
		b = appendDecision(b, m.Decision)
	case *asmr.PoFGossip:
		b = append(b, byte(kindPoFGossip))
		pofs, _ := wire.EncodePoFs(m.PoFs)
		b = append(b, pofs...)
	case *asmr.JoinNotice:
		// The committee goes last: the replica-list layout runs to the end.
		b = append(b, byte(kindJoinNotice))
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint64(b, m.NextK)
		b = appendBlocks(b, m.Blocks)
		b = appendMap(b, m.PendingAttempts, binary.BigEndian.AppendUint64, binary.BigEndian.AppendUint32)
		ids, _ := wire.EncodeReplicas(m.Committee)
		b = append(b, ids...)
	case *asmr.CatchupReq:
		b = append(b, byte(kindCatchupReq))
		b = binary.BigEndian.AppendUint64(b, m.FromK)
	case *asmr.CatchupResp:
		b = append(b, byte(kindCatchupResp))
		b = appendBlocks(b, m.Blocks)
	case *membership.PoFBroadcast:
		b = append(b, byte(kindPoFBroadcast))
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		pofs, _ := wire.EncodePoFs(m.PoFs)
		b = append(b, pofs...)
	case *SyncFrame:
		b = append(b, byte(kindSync))
		b = appendFlag(b, m.Req)
		b = appendBytes(b, m.Payload)
	default:
		return b[:start], fmt.Errorf("%w: %T", errNoKind, msg)
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
		return nil, errFrameShort
	}
	if size := binary.BigEndian.Uint32(frame); uint64(size) != uint64(len(frame)-4) {
		return nil, fmt.Errorf("%w: prefix %d, frame %d", errFrameLength, size, len(frame)-4)
	}
	kind := frameKind(frame[4])
	d := &decoder{b: frame[5:]}
	var msg simnet.Message
	switch kind {
	case kindInit:
		msg = &rbc.Init{Stmt: d.signed(), Payload: d.bytes(), ClaimedBytes: d.int(), ClaimedSigs: d.int()}
	case kindEcho:
		msg = &rbc.Echo{Stmt: d.signed()}
	case kindReady:
		msg = &rbc.Ready{Stmt: d.signed()}
	case kindPayloadReq:
		msg = &rbc.PayloadReq{Context: d.u8(), Instance: types.Instance(d.u64()),
			Broadcaster: types.ReplicaID(d.u32()), Digest: d.digest()}
	case kindPayloadResp:
		msg = &rbc.PayloadResp{Context: d.u8(), Instance: types.Instance(d.u64()),
			Broadcaster: types.ReplicaID(d.u32()), Payload: d.bytes(),
			ClaimedBytes: d.int(), ClaimedSigs: d.int(), InitStmt: d.optSigned()}
	case kindEst:
		msg = &bincon.Est{Context: d.u8(), Instance: types.Instance(d.u64()), Slot: d.u32(),
			Round: types.Round(d.u32()), Value: d.flag()}
	case kindCoord:
		msg = &bincon.Coord{Stmt: d.signed()}
	case kindAux:
		msg = &bincon.Aux{Stmt: d.signed()}
	case kindDecide:
		msg = &bincon.Decide{Context: d.u8(), Instance: types.Instance(d.u64()), Slot: d.u32(),
			Value: d.flag(), Cert: d.cert()}
	case kindDecideReq:
		msg = &bincon.DecideReq{Context: d.u8(), Instance: types.Instance(d.u64()), Slot: d.u32()}
	case kindProposalReq:
		msg = &sbc.ProposalReq{Context: d.u8(), Instance: types.Instance(d.u64()), Slot: types.ReplicaID(d.u32())}
	case kindProposalResp:
		msg = &sbc.ProposalResp{Context: d.u8(), Instance: types.Instance(d.u64()),
			Slot: types.ReplicaID(d.u32()), Payload: d.bytes(), ClaimedBytes: d.int(),
			ClaimedSigs: d.int(), Cert: d.cert(), InitStmt: d.optSigned()}
	case kindConfirm:
		msg = &asmr.Confirm{K: d.u64(), Attempt: d.u32(), Digest: d.digest(), Stmt: d.signed()}
	case kindBlockReq:
		msg = &asmr.BlockReq{K: d.u64(), Attempt: d.u32()}
	case kindBlockResp:
		msg = &asmr.BlockResp{K: d.u64(), Attempt: d.u32(), Decision: d.decision()}
	case kindPoFGossip:
		msg = &asmr.PoFGossip{PoFs: tail(d, wire.DecodePoFs)}
	case kindJoinNotice:
		msg = &asmr.JoinNotice{Epoch: d.u64(), NextK: d.u64(), Blocks: d.blocks(),
			PendingAttempts: readMap(d, 12, d.u64, d.u32), Committee: tail(d, wire.DecodeReplicas)}
	case kindCatchupReq:
		msg = &asmr.CatchupReq{FromK: d.u64()}
	case kindCatchupResp:
		msg = &asmr.CatchupResp{Blocks: d.blocks()}
	case kindPoFBroadcast:
		msg = &membership.PoFBroadcast{Epoch: d.u64(), PoFs: tail(d, wire.DecodePoFs)}
	case kindSync:
		msg = &SyncFrame{Req: d.flag(), Payload: d.bytes()}
	default:
		return nil, fmt.Errorf("%w: %d", errFrameKind, kind)
	}
	if d.err != nil {
		return nil, fmt.Errorf("transport: frame kind %d: %w", kind, d.err)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after kind %d", errFrameTail, len(d.b), kind)
	}
	return msg, nil
}

// --- body encoders ---

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendBytes writes a byte string that keeps nil apart from empty:
// flag 0 for nil, else flag 1, length u32 and the bytes.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendOptSigned(b []byte, s *accountability.Signed) []byte {
	if s == nil {
		return append(b, 0)
	}
	return wire.AppendSigned(append(b, 1), *s)
}

func appendOptCert(b []byte, c *accountability.Certificate) []byte {
	if c == nil {
		return append(b, 0)
	}
	return wire.AppendCertificate(append(b, 1), c)
}

// appendMap writes count u32 and the entries in ascending key order.
func appendMap[K ~uint32 | ~uint64, V any](b []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = key(b, k)
		b = val(b, m[k])
	}
	return b
}

func appendReplicaID(b []byte, id types.ReplicaID) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(id))
}

// appendDecision writes flag 0 for nil, else flag 1, the instance and the
// decision's five maps keyed by slot.
func appendDecision(b []byte, d *sbc.Decision) []byte {
	if d == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.BigEndian.AppendUint64(b, uint64(d.Instance))
	b = appendMap(b, d.Bits, appendReplicaID, appendFlag)
	b = appendMap(b, d.Proposals, appendReplicaID, func(b []byte, p sbc.ProposalInfo) []byte {
		b = appendReplicaID(b, p.Broadcaster)
		b = appendBytes(b, p.Payload)
		b = append(b, p.Digest[:]...)
		b = binary.AppendVarint(b, int64(p.ClaimedBytes))
		return binary.AppendVarint(b, int64(p.ClaimedSigs))
	})
	b = appendMap(b, d.BinCerts, appendReplicaID, appendOptCert)
	b = appendMap(b, d.ReadyCerts, appendReplicaID, appendOptCert)
	return appendMap(b, d.InitStmts, appendReplicaID, appendOptSigned)
}

func appendBlocks(b []byte, blocks []asmr.BlockRecord) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(blocks)))
	for _, r := range blocks {
		b = binary.BigEndian.AppendUint64(b, r.K)
		b = binary.BigEndian.AppendUint32(b, r.Attempt)
		b = appendDecision(b, r.Decision)
	}
	return b
}

// --- body decoder ---

// decoder reads a frame body front to back. The first failure sticks:
// every later read returns a zero value, and decodeFrame reports the
// failure once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail(errFrameShort)
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) digest() (out types.Digest) {
	copy(out[:], d.take(len(out)))
	return out
}

func (d *decoder) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(fmt.Errorf("%w: flag byte", errNonCanon))
	return false
}

// bytes reads appendBytes' layout. The result aliases the frame.
func (d *decoder) bytes() []byte {
	if !d.flag() {
		return nil
	}
	n := d.u32()
	if uint64(n) > uint64(len(d.b)) {
		d.fail(errFrameShort)
		return nil
	}
	return d.take(int(n))
}

// int reads a varint written by binary.AppendVarint, refusing any but the
// shortest encoding of its value.
func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	var min [binary.MaxVarintLen64]byte
	if n <= 0 || n != len(binary.AppendVarint(min[:0], v)) {
		d.fail(fmt.Errorf("%w: varint", errNonCanon))
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads an element count and refuses one the rest of the body
// cannot hold at minLen bytes per element, before anything is allocated.
func (d *decoder) count(minLen int) int {
	n := d.u32()
	if uint64(n)*uint64(minLen) > uint64(len(d.b)) {
		d.fail(errFrameShort)
		return 0
	}
	return int(n)
}

func (d *decoder) signed() accountability.Signed {
	if d.err != nil {
		return accountability.Signed{}
	}
	s, rest, err := wire.ReadSigned(d.b)
	if err != nil {
		d.fail(err)
		return accountability.Signed{}
	}
	d.b = rest
	return s
}

func (d *decoder) optSigned() *accountability.Signed {
	if !d.flag() {
		return nil
	}
	s := d.signed()
	if d.err != nil {
		return nil
	}
	return &s
}

func (d *decoder) cert() *accountability.Certificate {
	if !d.flag() {
		return nil
	}
	c, rest, err := wire.ReadCertificate(d.b)
	if err != nil {
		d.fail(err)
		return nil
	}
	d.b = rest
	return c
}

// tail decodes the rest of the body with a wire decoder whose layout runs
// to its end (wire.DecodePoFs, wire.DecodeReplicas).
func tail[T any](d *decoder, decode func([]byte) (T, error)) T {
	var v T
	if d.err != nil {
		return v
	}
	v, err := decode(d.b)
	if err != nil {
		d.fail(err)
		var zero T
		return zero
	}
	d.b = nil
	return v
}

// readMap reads appendMap's layout; minLen is the least one entry takes.
// An empty map decodes as nil.
func readMap[K ~uint32 | ~uint64, V any](d *decoder, minLen int, key func() K, val func() V) map[K]V {
	n := d.count(minLen)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := 0; i < n && d.err == nil; i++ {
		k := key()
		if i > 0 && k <= prev {
			d.fail(errMapOrder)
			break
		}
		prev = k
		m[k] = val()
	}
	if d.err != nil {
		return nil
	}
	return m
}

func (d *decoder) replicaID() types.ReplicaID { return types.ReplicaID(d.u32()) }

func (d *decoder) proposal() sbc.ProposalInfo {
	return sbc.ProposalInfo{Broadcaster: d.replicaID(), Payload: d.bytes(), Digest: d.digest(),
		ClaimedBytes: d.int(), ClaimedSigs: d.int()}
}

func (d *decoder) decision() *sbc.Decision {
	if !d.flag() {
		return nil
	}
	dec := &sbc.Decision{Instance: types.Instance(d.u64())}
	dec.Bits = readMap(d, 4+1, d.replicaID, d.flag)
	dec.Proposals = readMap(d, 4+4+1+32+2, d.replicaID, d.proposal)
	dec.BinCerts = readMap(d, 4+1, d.replicaID, d.cert)
	dec.ReadyCerts = readMap(d, 4+1, d.replicaID, d.cert)
	dec.InitStmts = readMap(d, 4+1, d.replicaID, d.optSigned)
	if d.err != nil {
		return nil
	}
	return dec
}

func (d *decoder) blocks() []asmr.BlockRecord {
	n := d.count(8 + 4 + 1)
	if n == 0 {
		return nil
	}
	blocks := make([]asmr.BlockRecord, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		blocks = append(blocks, asmr.BlockRecord{K: d.u64(), Attempt: d.u32(), Decision: d.decision()})
	}
	if d.err != nil {
		return nil
	}
	return blocks
}
