package asmr

import (
	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
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

// BlockRecord is one committed instance inside a catch-up transfer.
type BlockRecord struct {
	K        uint64
	Attempt  uint32
	Decision *sbc.Decision
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
