package store

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// BlockRecord is one block of the log: its consensus coordinates, the
// digest of its ledger block and the decision it derives from (BlockFrom),
// which every record has; the transactions are the decision's payloads.
type BlockRecord struct {
	// Supersede, carried by the frame's kind, marks a merged block: replay
	// applies it through bm.MergeBlock, replacing the block at its index.
	Supersede bool
	K         uint64
	Attempt   uint32
	// Digest is the ledger block's (bm.Block.Digest).
	Digest   types.Digest
	Decision *sbc.Decision
}

// AppendBinary appends the record's payload, k u64 | attempt u32 | ledger
// digest | decision (sbc.Decision.AppendBinary), with a payload that
// several slots carry (every replica proposed one batch) written once, in
// the lowest of them. It cannot fail.
func (r *BlockRecord) AppendBinary(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b, r.K), r.Attempt)
	return payloadsOnce(r.Decision).AppendBinary(append(b, r.Digest[:]...))
}

// ReadBlockRecord reads BlockRecord.AppendBinary's layout and gives every
// slot written without its payload the one another slot carries. Payloads
// alias r's input.
func ReadBlockRecord(r *wire.Reader) *BlockRecord {
	rec := &BlockRecord{K: r.U64(), Attempt: r.U32(), Digest: r.Digest(), Decision: sbc.ReadDecision(r)}
	if rec.Decision == nil {
		r.Fail(fmt.Errorf("%w: a block record without a decision", wire.ErrNonCanonical))
		return nil
	}
	sharePayloads(rec.Decision)
	return rec
}

func (r *BlockRecord) kind() wire.RecordKind {
	if r.Supersede {
		return wire.RecordSupersede
	}
	return wire.RecordBlock
}

// decodeBlockRecord reads the payload of a frame of kind whole and checks
// that its decision derives a block of the recorded digest: one that does
// not is corrupt.
func decodeBlockRecord(kind wire.RecordKind, payload []byte) (*BlockRecord, error) {
	rec, err := wire.Decode(payload, ReadBlockRecord)
	if err == nil && BlockFrom(rec.K, rec.Decision, wire.DecodeBatch).Digest != rec.Digest {
		err = fmt.Errorf("block %d: its decision derives a block of another digest", rec.K)
	}
	if err == nil {
		rec.Supersede = kind == wire.RecordSupersede
	}
	return rec, err
}

// BlockFrom assembles the ledger block of a decision: the union of the
// decided proposals' transactions in deterministic order (§4.1 ⑤), each
// payload decoded by decode, under the decision's digest; a payload that
// does not decode adds nothing. It is the one derivation: a node's commit
// and merge, and the store's replay and sync install, all use it.
func BlockFrom(k uint64, d *sbc.Decision, decode func([]byte) ([]*utxo.Transaction, error)) *bm.Block {
	proposals := d.OrderedProposals()
	decoded := make([][]*utxo.Transaction, 0, len(proposals))
	total := 0
	for _, p := range proposals {
		batch, err := decode(p.Payload)
		if err != nil {
			continue
		}
		decoded = append(decoded, batch)
		total += len(batch)
	}
	var txs []*utxo.Transaction
	seen := make(map[types.Digest]bool, total)
	for _, batch := range decoded {
		for _, tx := range batch {
			id := tx.ID()
			if !seen[id] {
				seen[id] = true
				txs = append(txs, tx)
			}
		}
	}
	b := bm.NewBlock(k, txs)
	b.Decision = d.Digest()
	return b
}

// payloadsOnce returns a copy of d with every non-empty payload left in
// the lowest slot that carries its digest and nil in the others.
func payloadsOnce(d *sbc.Decision) *sbc.Decision {
	c := *d
	c.Proposals = make(map[types.ReplicaID]sbc.ProposalInfo, len(d.Proposals))
	held := make(map[types.Digest]bool, len(d.Proposals))
	for _, slot := range slices.Sorted(maps.Keys(d.Proposals)) {
		p := d.Proposals[slot]
		if held[p.Digest] {
			p.Payload = nil
		}
		held[p.Digest] = held[p.Digest] || len(p.Payload) > 0
		c.Proposals[slot] = p
	}
	return &c
}

// sharePayloads gives each nil payload of d the non-empty one another
// slot carries under the same digest, undoing payloadsOnce.
func sharePayloads(d *sbc.Decision) {
	carried := make(map[types.Digest][]byte, len(d.Proposals))
	for _, p := range d.Proposals {
		if len(p.Payload) > 0 {
			carried[p.Digest] = p.Payload
		}
	}
	for slot, p := range d.Proposals {
		if b, ok := carried[p.Digest]; ok && p.Payload == nil {
			p.Payload = b
			d.Proposals[slot] = p
		}
	}
}
