package asmr

import (
	"encoding/binary"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// WireInstance packs a logical chain index k and a restart attempt into
// the single instance number protocol statements carry. A membership
// change stops and restarts pending instances (Alg. 1 lines 19, 49); the
// attempt number keeps the restarted run's messages and certificates
// disjoint from the aborted run's.
func WireInstance(k uint64, attempt uint32) types.Instance {
	return types.Instance(k<<10 | uint64(attempt)&0x3ff)
}

// SplitInstance reverses WireInstance.
func SplitInstance(wi types.Instance) (k uint64, attempt uint32) {
	return uint64(wi) >> 10, uint32(uint64(wi) & 0x3ff)
}

// Confirm announces a replica's decision digest for instance k — the
// confirmation phase ② of Fig. 2. The signed statement makes conflicting
// confirmations by one replica provable equivocation.
type Confirm struct {
	K       uint64
	Attempt uint32
	Digest  types.Digest
	Stmt    accountability.Signed // KindConfirm, Instance=WireInstance, Value=Digest
}

// SimBytes implements simnet.Meter.
func (m *Confirm) SimBytes() int { return 200 }

// SimSigOps implements simnet.Meter.
func (m *Confirm) SimSigOps() int { return 1 }

// AppendBinary appends the confirmation's frame body: k u64, attempt u32,
// digest, signed statement.
func (m *Confirm) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, m.K), m.Attempt)
	return m.Stmt.AppendBinary(append(b, m.Digest[:]...))
}

// ReadConfirm reads Confirm.AppendBinary's layout.
func ReadConfirm(r *wire.Reader) *Confirm {
	return &Confirm{K: r.U64(), Attempt: r.U32(), Digest: r.Digest(), Stmt: accountability.ReadSigned(r)}
}

// BlockRecord is one committed instance inside a catch-up transfer.
type BlockRecord struct {
	K        uint64
	Attempt  uint32
	Decision *sbc.Decision
}

// appendBlocks writes count u32 and each block's k u64, attempt u32 and
// decision (sbc.Decision.AppendBinary, which marks a nil one).
func appendBlocks(b []byte, blocks []BlockRecord) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(blocks)))
	for _, rec := range blocks {
		b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, rec.K), rec.Attempt)
		b, _ = rec.Decision.AppendBinary(b) // cannot fail
	}
	return b
}

// readBlocks reads appendBlocks' layout; no block decodes as nil.
func readBlocks(r *wire.Reader) []BlockRecord {
	n := r.Count(8 + 4 + 1)
	if n == 0 {
		return nil
	}
	blocks := make([]BlockRecord, n)
	for i := range blocks {
		blocks[i] = BlockRecord{K: r.U64(), Attempt: r.U32(), Decision: sbc.ReadDecision(r)}
	}
	return blocks
}

// JoinNotice is the set-up-connection + send-catchup transfer (Alg. 1
// lines 46-47): it tells an included replica the committee it joined, the
// membership epoch, and ships the chain so far, certificates included.
type JoinNotice struct {
	Epoch     uint64
	Committee []types.ReplicaID
	NextK     uint64
	Blocks    []BlockRecord
	// PendingAttempts maps each in-flight (undecided) instance to its
	// current attempt number, so the joiner participates in the restarted
	// runs rather than stale ones.
	PendingAttempts map[uint64]uint32
}

// SimBytes implements simnet.Meter.
func (m *JoinNotice) SimBytes() int {
	n := 100 + 4*len(m.Committee)
	for _, b := range m.Blocks {
		n += decisionBytes(b.Decision)
	}
	return n
}

// SimSigOps implements simnet.Meter.
func (m *JoinNotice) SimSigOps() int {
	ops := 0
	for _, b := range m.Blocks {
		ops += decisionSigOps(b.Decision)
	}
	return ops
}

// AppendBinary appends the join notice's frame body: epoch u64, next k
// u64, the blocks, the pending attempts (wire.AppendMap of k u64 to
// attempt u32) and, last, the committee (wire.AppendReplicas).
func (m *JoinNotice) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, m.Epoch), m.NextK)
	b = appendBlocks(b, m.Blocks)
	b = wire.AppendMap(b, m.PendingAttempts, binary.BigEndian.AppendUint64, binary.BigEndian.AppendUint32)
	return wire.AppendReplicas(b, m.Committee), nil
}

// ReadJoinNotice reads JoinNotice.AppendBinary's layout.
func ReadJoinNotice(r *wire.Reader) *JoinNotice {
	return &JoinNotice{Epoch: r.U64(), NextK: r.U64(), Blocks: readBlocks(r),
		PendingAttempts: wire.ReadMap(r, 8+4, r.U64, r.U32), Committee: wire.ReadReplicas(r)}
}

// CatchupReq asks a replica for its decided blocks FromK..ToK, with their
// certificates — the one request for a block that travels whole. The
// confirmation phase pulls a conflicting decision with [k, k]; a replica
// that was down or stopped asks [from, math.MaxUint64], everything the
// peer has from its first gap on.
type CatchupReq struct {
	FromK, ToK uint64
}

// SimBytes implements simnet.Meter.
func (m *CatchupReq) SimBytes() int { return 40 }

// SimSigOps implements simnet.Meter.
func (m *CatchupReq) SimSigOps() int { return 0 }

// AppendBinary appends the request's frame body: from k u64, to k u64.
func (m *CatchupReq) AppendBinary(b []byte) ([]byte, error) {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, m.FromK), m.ToK), nil
}

// ReadCatchupReq reads CatchupReq.AppendBinary's layout.
func ReadCatchupReq(r *wire.Reader) *CatchupReq { return &CatchupReq{FromK: r.U64(), ToK: r.U64()} }

// CatchupResp answers a CatchupReq: the range it asked for, repeated, and
// the decided blocks of that range the sender holds (possibly none). Its
// receiver accepts it only as the answer to a request it made.
type CatchupResp struct {
	FromK, ToK uint64
	Blocks     []BlockRecord
}

// SimBytes implements simnet.Meter.
func (m *CatchupResp) SimBytes() int {
	n := 80
	for _, b := range m.Blocks {
		n += decisionBytes(b.Decision)
	}
	return n
}

// SimSigOps implements simnet.Meter.
func (m *CatchupResp) SimSigOps() int {
	ops := 0
	for _, b := range m.Blocks {
		ops += decisionSigOps(b.Decision)
	}
	return ops
}

// AppendBinary appends the answer's frame body: from k u64, to k u64, the
// blocks.
func (m *CatchupResp) AppendBinary(b []byte) ([]byte, error) {
	return appendBlocks(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(b, m.FromK), m.ToK), m.Blocks), nil
}

// ReadCatchupResp reads CatchupResp.AppendBinary's layout.
func ReadCatchupResp(r *wire.Reader) *CatchupResp {
	return &CatchupResp{FromK: r.U64(), ToK: r.U64(), Blocks: readBlocks(r)}
}

func decisionBytes(d *sbc.Decision) int {
	if d == nil {
		return 0
	}
	n := 64
	for _, p := range d.Proposals {
		if p.ClaimedBytes > 0 {
			n += p.ClaimedBytes
		} else {
			n += len(p.Payload)
		}
	}
	for _, c := range d.BinCerts {
		n += c.ModelBytes()
	}
	for _, c := range d.ReadyCerts {
		n += c.ModelBytes()
	}
	return n
}

func decisionSigOps(d *sbc.Decision) int {
	if d == nil {
		return 0
	}
	ops := 0
	for _, c := range d.BinCerts {
		ops += c.SigOps()
	}
	for _, c := range d.ReadyCerts {
		ops += c.SigOps()
	}
	for _, p := range d.Proposals {
		ops += p.ClaimedSigs
	}
	return ops
}
