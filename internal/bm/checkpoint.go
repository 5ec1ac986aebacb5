// Ledger checkpoints: export the complete blockchain-manager state as a
// wire.CheckpointState snapshot and rebuild a ledger from one. The
// durable store (internal/store) cuts a checkpoint every few blocks and
// prunes the block bodies below it; recovery and standby catch-up both
// start from the latest snapshot and replay only the log tail.

package bm

import (
	"sort"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// CheckpointState snapshots the full ledger state: UTXO table, deposit
// pool, punished accounts, committed transaction IDs, deposit-funded
// inputs, merged-block digests and the chain's block and decision
// digests. Block bodies are not included, and the ledger does not hold
// them either: a stored block is its index, its digest and its decision's,
// which is all fork detection (Conflicts), determinism checks
// (BlockDigests) and a restarted replica (BlockAt) need.
func (l *Ledger) CheckpointState() *wire.CheckpointState {
	cp := &wire.CheckpointState{
		Deposit:          l.deposit,
		MergedTxs:        uint64(l.MergedTxs),
		DepositFundedTxs: uint64(l.DepositFundedTxs),
		Refunds:          uint64(l.Refunds),
	}
	// The block list keeps append order and includes merged siblings at
	// an already-occupied index: replaying it into storeBlock rebuilds
	// both the blocks slice (Height) and the first-wins index.
	cp.Blocks = append(cp.Blocks, l.blocks...)
	cp.LastK = l.lastK
	cp.Merged = sortedKeys(l.merged)
	for _, e := range l.table.Entries() {
		cp.UTXOs = append(cp.UTXOs, wire.UTXOEntry{Op: e.Op, Out: e.Out})
	}
	cp.TxIDs = sortedKeys(l.txs)
	cp.Punished = sortedKeys(l.punished)
	for _, op := range l.depositOutpoints() {
		cp.DepositInputs = append(cp.DepositInputs, wire.DepositInput{Op: op, Value: l.inputsDeposit[op].Value})
	}
	return cp
}

// RestoreLedger rebuilds a ledger from a checkpoint snapshot, in the
// representation the live ledger has: Height, LastK, BlockAt, Conflicts
// and BlockDigests answer exactly as before the restart.
func RestoreLedger(scheme crypto.Scheme, cp *wire.CheckpointState) *Ledger {
	l := NewLedger(scheme)
	l.deposit = cp.Deposit
	l.MergedTxs = int(cp.MergedTxs)
	l.DepositFundedTxs = int(cp.DepositFundedTxs)
	l.Refunds = int(cp.Refunds)
	for _, b := range cp.Blocks {
		l.storeBlock(b.K, b.Digest, b.Decision)
	}
	for _, d := range cp.Merged {
		l.merged[d] = true
	}
	for _, e := range cp.UTXOs {
		l.table.Credit(e.Op, e.Out)
	}
	for _, id := range cp.TxIDs {
		l.txs[id] = true
	}
	for _, a := range cp.Punished {
		l.punished[a] = true
	}
	for _, in := range cp.DepositInputs {
		l.inputsDeposit[in.Op] = utxo.Input{Prev: in.Op, Value: in.Value}
	}
	return l
}

// sortedKeys lists a map's digest or address keys in byte order: the
// deterministic walk a genesis and a checkpoint take.
func sortedKeys[K ~[32]byte, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return types.Digest(out[i]).Less(types.Digest(out[j])) })
	return out
}

// depositOutpoints lists the remembered deposit-funded inputs in outpoint
// order: the order a refund and a checkpoint walk them in.
func (l *Ledger) depositOutpoints() []utxo.Outpoint {
	ops := make([]utxo.Outpoint, 0, len(l.inputsDeposit))
	for op := range l.inputsDeposit {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].TxID != ops[j].TxID {
			return ops[i].TxID.Less(ops[j].TxID)
		}
		return ops[i].Index < ops[j].Index
	})
	return ops
}
