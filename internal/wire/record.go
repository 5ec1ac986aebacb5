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
	// RecordBlock is a block committed on the happy path (bm.CommitBlock),
	// a store.BlockRecord: the block's coordinates and ledger digest, and
	// the decision the block derives from.
	RecordBlock RecordKind = 4
	// RecordSupersede is a block merged by the reconciliation phase: on
	// replay it is applied through bm.MergeBlock so it replaces — rather
	// than conflicts with — the block previously stored at its index
	// (ZLB's fork merge rewrites indices; see internal/store).
	RecordSupersede RecordKind = 5
	// RecordCheckpoint marks that a UTXO checkpoint was cut at this point
	// of the log; its payload is the cut height (big-endian LastK). The
	// marker is forensic — recovery trusts the checkpoint file itself,
	// whose durability is not ordered with the marker's.
	RecordCheckpoint RecordKind = 3
	// Kinds 1 and 2 were the block and supersede records of the format
	// before blocks carried their decision; the store refuses them.
)

// Errors returned by the record decoders.
var (
	// ErrRecordTruncated marks an incomplete frame: at the tail of the
	// last segment this is a torn write and recovery truncates it away.
	ErrRecordTruncated = errors.New("wire: truncated record frame")
	// ErrRecordCorrupt marks a CRC mismatch or an impossible length.
	ErrRecordCorrupt = errors.New("wire: corrupt record frame")
)

// maxRecordPayload bounds a single record so a corrupt length prefix
// cannot trigger a huge allocation (64 MiB ≫ any batch the codecs allow).
const maxRecordPayload = 64 << 20

// AppendRecord appends one framed record to dst and returns the extended
// slice.
func AppendRecord(dst []byte, kind RecordKind, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, recordCRC(kind, payload))
	dst = append(dst, byte(kind))
	return append(dst, payload...)
}

// recordCRC is the IEEE CRC of kind and payload.
func recordCRC(kind RecordKind, payload []byte) uint32 {
	return crc32.Update(crc32.Update(0, crc32.IEEETable, []byte{byte(kind)}), crc32.IEEETable, payload)
}

// DecodeRecord reads one framed record from buf, returning the remainder.
// The returned payload aliases buf.
func DecodeRecord(buf []byte) (kind RecordKind, payload, rest []byte, err error) {
	r := NewReader(buf)
	n, want, kind := r.U32(), r.U32(), RecordKind(r.U8())
	switch {
	case r.err != nil:
		return 0, nil, nil, ErrRecordTruncated
	case n > maxRecordPayload:
		return 0, nil, nil, fmt.Errorf("%w: %d-byte payload", ErrRecordCorrupt, n)
	}
	if payload = r.Take(int(n)); r.err != nil {
		return 0, nil, nil, ErrRecordTruncated
	}
	if recordCRC(kind, payload) != want {
		return 0, nil, nil, fmt.Errorf("%w: crc mismatch", ErrRecordCorrupt)
	}
	return kind, payload, r.Rest(), nil
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

// BlockDigest is one chain entry of a checkpoint: the index, the ledger
// block's digest and the digest of the decision it derives from
// (sbc.Decision.Digest), which a restored replica compares its peers'
// confirmations against.
type BlockDigest struct {
	K        uint64
	Digest   types.Digest
	Decision types.Digest
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

// Checkpoint payload magic: format identifier plus version. ZLC1, the
// format whose block entries had no decision digest, is refused by name.
var checkpointMagic, checkpointMagicV1 = [4]byte{'Z', 'L', 'C', '2'}, [4]byte{'Z', 'L', 'C', '1'}

// EncodeCheckpoint serializes a checkpoint snapshot.
func EncodeCheckpoint(cp *CheckpointState) []byte {
	size := 4 + 8 + 8 + 5*4 + 3*8 +
		len(cp.Blocks)*(8+32+32) + len(cp.Merged)*32 + len(cp.UTXOs)*(32+4+32+8) +
		len(cp.TxIDs)*32 + len(cp.Punished)*32 + len(cp.DepositInputs)*(32+4+8)
	buf := make([]byte, 0, size)
	buf = append(buf, checkpointMagic[:]...)
	for _, v := range []uint64{cp.LastK, uint64(cp.Deposit), cp.MergedTxs, cp.DepositFundedTxs, cp.Refunds} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.Blocks)))
	for _, b := range cp.Blocks {
		buf = binary.BigEndian.AppendUint64(buf, b.K)
		buf = append(append(buf, b.Digest[:]...), b.Decision[:]...)
	}
	buf = appendDigests(buf, cp.Merged)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.UTXOs)))
	for _, u := range cp.UTXOs {
		buf = append(buf, u.Op.TxID[:]...)
		buf = binary.BigEndian.AppendUint32(buf, u.Op.Index)
		buf = append(buf, u.Out.Account[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(u.Out.Value))
	}
	buf = appendDigests(buf, cp.TxIDs)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.Punished)))
	for _, a := range cp.Punished {
		buf = append(buf, a[:]...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cp.DepositInputs)))
	for _, in := range cp.DepositInputs {
		buf = append(buf, in.Op.TxID[:]...)
		buf = binary.BigEndian.AppendUint32(buf, in.Op.Index)
		buf = binary.BigEndian.AppendUint64(buf, uint64(in.Value))
	}
	return buf
}

func appendDigests(buf []byte, ds []types.Digest) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ds)))
	for _, d := range ds {
		buf = append(buf, d[:]...)
	}
	return buf
}

func readDigests(r *Reader) []types.Digest {
	ds := make([]types.Digest, r.Count(32))
	for i := range ds {
		ds[i] = r.Digest()
	}
	return ds
}

// DecodeCheckpoint parses a checkpoint snapshot.
func DecodeCheckpoint(payload []byte) (*CheckpointState, error) {
	switch {
	case len(payload) < 4:
		return nil, fmt.Errorf("%w: %d-byte checkpoint", ErrBadMagic, len(payload))
	case [4]byte(payload[:4]) == checkpointMagicV1:
		return nil, fmt.Errorf("%w: a ZLC1 checkpoint (no decision digests), which this build does not read; it reads ZLC2", ErrBadMagic)
	case [4]byte(payload[:4]) != checkpointMagic:
		return nil, fmt.Errorf("%w: %q is not a ZLC2 checkpoint", ErrBadMagic, payload[:4])
	}
	r := NewReader(payload[4:])
	cp := &CheckpointState{LastK: r.U64(), Deposit: types.Amount(r.U64()),
		MergedTxs: r.U64(), DepositFundedTxs: r.U64(), Refunds: r.U64()}
	cp.Blocks = make([]BlockDigest, r.Count(8+32+32))
	for i := range cp.Blocks {
		cp.Blocks[i] = BlockDigest{K: r.U64(), Digest: r.Digest(), Decision: r.Digest()}
	}
	cp.Merged = readDigests(&r)
	cp.UTXOs = make([]UTXOEntry, r.Count(32+4+32+8))
	for i := range cp.UTXOs {
		cp.UTXOs[i] = UTXOEntry{Op: utxo.Outpoint{TxID: r.Digest(), Index: r.U32()},
			Out: utxo.Output{Account: utxo.Address(r.Digest()), Value: types.Amount(r.U64())}}
	}
	cp.TxIDs = readDigests(&r)
	cp.Punished = make([]utxo.Address, r.Count(32))
	for i := range cp.Punished {
		cp.Punished[i] = utxo.Address(r.Digest())
	}
	cp.DepositInputs = make([]DepositInput, r.Count(32+4+8))
	for i := range cp.DepositInputs {
		cp.DepositInputs[i] = DepositInput{Op: utxo.Outpoint{TxID: r.Digest(), Index: r.U32()},
			Value: types.Amount(r.U64())}
	}
	if err := r.End(); err != nil {
		return nil, err
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
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 9), req.FromK)
	return AppendFlag(buf, req.WantCheckpoint)
}

// DecodeSyncReq parses a catch-up request. The flag is 0 or 1, so a
// decoded request re-encodes to the bytes it was read from.
func DecodeSyncReq(payload []byte) (*SyncReq, error) {
	return Decode(payload, func(r *Reader) *SyncReq { return &SyncReq{FromK: r.U64(), WantCheckpoint: r.Flag()} })
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
	buf = binary.BigEndian.AppendUint64(buf, resp.LastK)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Checkpoint)))
	buf = append(buf, resp.Checkpoint...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Log)))
	return append(buf, resp.Log...)
}

// DecodeSyncResp parses a catch-up transfer. The returned slices alias
// the payload.
func DecodeSyncResp(payload []byte) (*SyncResp, error) {
	return Decode(payload, func(r *Reader) *SyncResp {
		return &SyncResp{LastK: r.U64(), Checkpoint: r.Take(int(r.U32())), Log: r.Take(int(r.U32()))}
	})
}
