// Store-record and catch-up sync codecs: the on-disk framing of
// internal/store's segmented block log and the SyncReq/SyncResp payloads
// its catch-up service exchanges between nodes.
//
// Every persisted record is framed as
//
//	payloadLen uint32 | crc32 uint32 | kind uint8 | payload
//
// with the IEEE CRC computed over kind+payload, so a torn write (partial
// frame at the tail of a segment after a crash) and a corrupted frame are
// both detectable before any payload decoding runs. The same frame bytes
// travel unchanged inside a SyncResp: a catch-up server streams its log
// tail exactly as stored, and the client re-verifies every CRC.
//
// Like every decoder in this package, the functions here must never
// panic on arbitrary input — they are fuzz targets (see fuzz_test.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// RecordKind tags one frame of the block log.
type RecordKind uint8

// Record kinds of the segmented log.
const (
	// RecordBlock is a block committed on the happy path (bm.CommitBlock).
	RecordBlock RecordKind = 1
	// RecordSupersede is a block merged by the reconciliation phase: on
	// replay it is applied through bm.MergeBlock so it replaces — rather
	// than conflicts with — the block previously stored at its index
	// (ZLB's fork merge rewrites indices; see internal/store).
	RecordSupersede RecordKind = 2
	// RecordCheckpoint marks that a UTXO checkpoint was cut at this point
	// of the log; its payload is the cut height (big-endian LastK). The
	// marker is forensic — recovery trusts the checkpoint file itself,
	// whose durability is not ordered with the marker's.
	RecordCheckpoint RecordKind = 3
)

// Errors returned by the record decoders.
var (
	// ErrRecordTruncated marks an incomplete frame: at the tail of the
	// last segment this is a torn write and recovery truncates it away.
	ErrRecordTruncated = errors.New("wire: truncated record frame")
	// ErrRecordCorrupt marks a CRC mismatch or an impossible length.
	ErrRecordCorrupt = errors.New("wire: corrupt record frame")
)

// recordHeaderLen is payloadLen + crc + kind.
const recordHeaderLen = 4 + 4 + 1

// maxRecordPayload bounds a single record so a corrupt length prefix
// cannot trigger a huge allocation (64 MiB ≫ any batch the codecs allow).
const maxRecordPayload = 64 << 20

// AppendRecord appends one framed record to dst and returns the extended
// slice.
func AppendRecord(dst []byte, kind RecordKind, payload []byte) []byte {
	dst = appendUint32(dst, uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write([]byte{byte(kind)})
	crc.Write(payload)
	dst = appendUint32(dst, crc.Sum32())
	dst = append(dst, byte(kind))
	return append(dst, payload...)
}

// DecodeRecord reads one framed record from buf, returning the remainder.
// The returned payload aliases buf.
func DecodeRecord(buf []byte) (kind RecordKind, payload, rest []byte, err error) {
	if len(buf) < recordHeaderLen {
		return 0, nil, nil, ErrRecordTruncated
	}
	n := binary.BigEndian.Uint32(buf)
	if n > maxRecordPayload {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte payload", ErrRecordCorrupt, n)
	}
	want := binary.BigEndian.Uint32(buf[4:])
	kind = RecordKind(buf[8])
	body := buf[recordHeaderLen:]
	if uint32(len(body)) < n {
		return 0, nil, nil, ErrRecordTruncated
	}
	payload = body[:n:n]
	crc := crc32.NewIEEE()
	crc.Write(buf[8:9])
	crc.Write(payload)
	if crc.Sum32() != want {
		return 0, nil, nil, fmt.Errorf("%w: crc mismatch", ErrRecordCorrupt)
	}
	return kind, payload, body[n:], nil
}

// BlockRecord is the payload of a RecordBlock / RecordSupersede frame: a
// decided block with the consensus coordinates needed to resume after a
// restart. Txs may be empty.
type BlockRecord struct {
	K       uint64
	Attempt uint32
	Digest  types.Digest
	Txs     []*utxo.Transaction
}

// EncodeBlockRecord serializes a block record payload:
//
//	k uint64 | attempt uint32 | digest [32]byte | batch (EncodeBatch)
func EncodeBlockRecord(r *BlockRecord) ([]byte, error) {
	batch, err := EncodeBatch(r.Txs)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 8+4+32+len(batch))
	buf = appendUint64(buf, r.K)
	buf = appendUint32(buf, r.Attempt)
	buf = append(buf, r.Digest[:]...)
	return append(buf, batch...), nil
}

// DecodeBlockRecord parses a block record payload. The decoded
// transactions alias the payload.
func DecodeBlockRecord(payload []byte) (*BlockRecord, error) {
	if len(payload) < 8+4+32 {
		return nil, ErrTruncated
	}
	r := &BlockRecord{
		K:       binary.BigEndian.Uint64(payload),
		Attempt: binary.BigEndian.Uint32(payload[8:]),
	}
	copy(r.Digest[:], payload[12:44])
	txs, err := DecodeBatch(payload[44:])
	if err != nil {
		return nil, err
	}
	r.Txs = txs
	return r, nil
}

// CheckpointState is a complete snapshot of a bm.Ledger at a chain
// height: everything needed to resume committing and merging without the
// pruned block bodies. Block bodies below the checkpoint are dropped —
// only their digests survive, for fork detection on replay.
type CheckpointState struct {
	// LastK is the highest chain index covered by the snapshot.
	LastK uint64
	// Deposit is the pooled slashed stake at the snapshot point.
	Deposit types.Amount
	// Blocks are the digests of every stored block, by index.
	Blocks []BlockDigest
	// Merged are the digests of blocks absorbed through MergeBlock.
	Merged []types.Digest
	// UTXOs is the full unspent-output table.
	UTXOs []UTXOEntry
	// TxIDs is the committed-transaction set.
	TxIDs []types.Digest
	// Punished are the addresses marked as deceitful-owned.
	Punished []utxo.Address
	// DepositInputs are the remembered deposit-funded inputs awaiting
	// refund (Alg. 2 lines 24-28).
	DepositInputs []DepositInput
	// MergedTxs / DepositFundedTxs / Refunds restore the experiment
	// counters so post-recovery reports stay cumulative.
	MergedTxs        uint64
	DepositFundedTxs uint64
	Refunds          uint64
}

// BlockDigest is one (index, digest) chain entry of a checkpoint.
type BlockDigest struct {
	K      uint64
	Digest types.Digest
}

// UTXOEntry is one unspent output of a checkpoint.
type UTXOEntry struct {
	Op  utxo.Outpoint
	Out utxo.Output
}

// DepositInput is one deposit-funded input of a checkpoint.
type DepositInput struct {
	Op    utxo.Outpoint
	Value types.Amount
}

// Checkpoint payload magic: format identifier plus version.
var checkpointMagic = [4]byte{'Z', 'L', 'C', '1'}

// EncodeCheckpoint serializes a checkpoint snapshot.
func EncodeCheckpoint(cp *CheckpointState) []byte {
	size := 4 + 8 + 8 + 5*4 + 3*8 +
		len(cp.Blocks)*(8+32) + len(cp.Merged)*32 + len(cp.UTXOs)*(32+4+32+8) +
		len(cp.TxIDs)*32 + len(cp.Punished)*32 + len(cp.DepositInputs)*(32+4+8)
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic[:]...)
	buf = appendUint64(buf, cp.LastK)
	buf = appendUint64(buf, uint64(cp.Deposit))
	buf = appendUint64(buf, cp.MergedTxs)
	buf = appendUint64(buf, cp.DepositFundedTxs)
	buf = appendUint64(buf, cp.Refunds)
	buf = appendUint32(buf, uint32(len(cp.Blocks)))
	for _, b := range cp.Blocks {
		buf = appendUint64(buf, b.K)
		buf = append(buf, b.Digest[:]...)
	}
	buf = appendUint32(buf, uint32(len(cp.Merged)))
	for _, d := range cp.Merged {
		buf = append(buf, d[:]...)
	}
	buf = appendUint32(buf, uint32(len(cp.UTXOs)))
	for _, u := range cp.UTXOs {
		buf = append(buf, u.Op.TxID[:]...)
		buf = appendUint32(buf, u.Op.Index)
		buf = append(buf, u.Out.Account[:]...)
		buf = appendUint64(buf, uint64(u.Out.Value))
	}
	buf = appendUint32(buf, uint32(len(cp.TxIDs)))
	for _, d := range cp.TxIDs {
		buf = append(buf, d[:]...)
	}
	buf = appendUint32(buf, uint32(len(cp.Punished)))
	for _, a := range cp.Punished {
		buf = append(buf, a[:]...)
	}
	buf = appendUint32(buf, uint32(len(cp.DepositInputs)))
	for _, in := range cp.DepositInputs {
		buf = append(buf, in.Op.TxID[:]...)
		buf = appendUint32(buf, in.Op.Index)
		buf = appendUint64(buf, uint64(in.Value))
	}
	return buf
}

// DecodeCheckpoint parses a checkpoint snapshot.
func DecodeCheckpoint(payload []byte) (*CheckpointState, error) {
	if len(payload) < 4 || [4]byte(payload[:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: not a ZLC1 checkpoint", ErrBadMagic)
	}
	r := payload[4:]
	cp := &CheckpointState{}
	var err error
	if cp.LastK, r, err = readUint64(r); err != nil {
		return nil, err
	}
	var v uint64
	if v, r, err = readUint64(r); err != nil {
		return nil, err
	}
	cp.Deposit = types.Amount(v)
	if cp.MergedTxs, r, err = readUint64(r); err != nil {
		return nil, err
	}
	if cp.DepositFundedTxs, r, err = readUint64(r); err != nil {
		return nil, err
	}
	if cp.Refunds, r, err = readUint64(r); err != nil {
		return nil, err
	}
	var count uint32
	if count, r, err = readCount(r, 8+32); err != nil {
		return nil, err
	}
	cp.Blocks = make([]BlockDigest, count)
	for i := range cp.Blocks {
		cp.Blocks[i].K = binary.BigEndian.Uint64(r)
		copy(cp.Blocks[i].Digest[:], r[8:])
		r = r[8+32:]
	}
	if count, r, err = readCount(r, 32); err != nil {
		return nil, err
	}
	cp.Merged = make([]types.Digest, count)
	for i := range cp.Merged {
		copy(cp.Merged[i][:], r)
		r = r[32:]
	}
	if count, r, err = readCount(r, 32+4+32+8); err != nil {
		return nil, err
	}
	cp.UTXOs = make([]UTXOEntry, count)
	for i := range cp.UTXOs {
		copy(cp.UTXOs[i].Op.TxID[:], r)
		cp.UTXOs[i].Op.Index = binary.BigEndian.Uint32(r[32:])
		copy(cp.UTXOs[i].Out.Account[:], r[36:])
		cp.UTXOs[i].Out.Value = types.Amount(binary.BigEndian.Uint64(r[68:]))
		r = r[76:]
	}
	if count, r, err = readCount(r, 32); err != nil {
		return nil, err
	}
	cp.TxIDs = make([]types.Digest, count)
	for i := range cp.TxIDs {
		copy(cp.TxIDs[i][:], r)
		r = r[32:]
	}
	if count, r, err = readCount(r, 32); err != nil {
		return nil, err
	}
	cp.Punished = make([]utxo.Address, count)
	for i := range cp.Punished {
		copy(cp.Punished[i][:], r)
		r = r[32:]
	}
	if count, r, err = readCount(r, 32+4+8); err != nil {
		return nil, err
	}
	cp.DepositInputs = make([]DepositInput, count)
	for i := range cp.DepositInputs {
		copy(cp.DepositInputs[i].Op.TxID[:], r)
		cp.DepositInputs[i].Op.Index = binary.BigEndian.Uint32(r[32:])
		cp.DepositInputs[i].Value = types.Amount(binary.BigEndian.Uint64(r[36:]))
		r = r[44:]
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r))
	}
	return cp, nil
}

// SyncReq asks a peer's catch-up service for chain state.
type SyncReq struct {
	// FromK is the first chain index the requester is missing.
	FromK uint64
	// WantCheckpoint asks for the latest checkpoint too — a fresh standby
	// bootstraps from it instead of replaying from genesis.
	WantCheckpoint bool
}

// EncodeSyncReq serializes a catch-up request.
func EncodeSyncReq(req *SyncReq) []byte {
	buf := make([]byte, 0, 9)
	buf = appendUint64(buf, req.FromK)
	b := byte(0)
	if req.WantCheckpoint {
		b = 1
	}
	return append(buf, b)
}

// DecodeSyncReq parses a catch-up request.
func DecodeSyncReq(payload []byte) (*SyncReq, error) {
	if len(payload) != 9 {
		return nil, ErrTruncated
	}
	return &SyncReq{
		FromK:          binary.BigEndian.Uint64(payload),
		WantCheckpoint: payload[8] == 1,
	}, nil
}

// SyncResp is a catch-up transfer: the serving node's latest checkpoint
// (optional) and its log tail, streamed as the exact record frames on its
// disk so the requester re-verifies every CRC.
type SyncResp struct {
	// LastK is the server's chain height.
	LastK uint64
	// Checkpoint is an EncodeCheckpoint payload, empty when the requester
	// declined one or the server has not cut one yet.
	Checkpoint []byte
	// Log is a concatenation of AppendRecord frames (block and supersede
	// records) covering FromK (or the checkpoint) through LastK.
	Log []byte
}

// EncodeSyncResp serializes a catch-up transfer.
func EncodeSyncResp(resp *SyncResp) []byte {
	buf := make([]byte, 0, 8+4+len(resp.Checkpoint)+4+len(resp.Log))
	buf = appendUint64(buf, resp.LastK)
	buf = appendUint32(buf, uint32(len(resp.Checkpoint)))
	buf = append(buf, resp.Checkpoint...)
	buf = appendUint32(buf, uint32(len(resp.Log)))
	return append(buf, resp.Log...)
}

// DecodeSyncResp parses a catch-up transfer. The returned slices alias
// the payload.
func DecodeSyncResp(payload []byte) (*SyncResp, error) {
	if len(payload) < 8+4 {
		return nil, ErrTruncated
	}
	resp := &SyncResp{LastK: binary.BigEndian.Uint64(payload)}
	r := payload[8:]
	n := binary.BigEndian.Uint32(r)
	r = r[4:]
	if uint64(n) > uint64(len(r)) {
		return nil, fmt.Errorf("%w: %d-byte checkpoint in %d bytes", ErrTruncated, n, len(r))
	}
	resp.Checkpoint = r[:n:n]
	r = r[n:]
	if len(r) < 4 {
		return nil, ErrTruncated
	}
	n = binary.BigEndian.Uint32(r)
	r = r[4:]
	if uint64(n) != uint64(len(r)) {
		return nil, fmt.Errorf("%w: %d-byte log in %d bytes", ErrTruncated, n, len(r))
	}
	resp.Log = r[:n:n]
	return resp, nil
}

// readUint64 consumes a big-endian uint64.
func readUint64(r []byte) (uint64, []byte, error) {
	if len(r) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.BigEndian.Uint64(r), r[8:], nil
}

// readCount consumes an element count and checks the buffer can hold
// count elements of elemSize bytes, bounding corrupt counts.
func readCount(r []byte, elemSize int) (uint32, []byte, error) {
	if len(r) < 4 {
		return 0, nil, ErrTruncated
	}
	count := binary.BigEndian.Uint32(r)
	r = r[4:]
	if count > maxCount || int64(count)*int64(elemSize) > int64(len(r)) {
		return 0, nil, fmt.Errorf("%w: %d elements in %d bytes", ErrTruncated, count, len(r))
	}
	return count, r, nil
}

func appendUint64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
