// Package bm implements ZLB's Blockchain Manager (paper §4.2): the
// component that stores decided blocks, detects forks, and — instead of
// discarding a conflicting branch like classic blockchains — merges its
// blocks into the local chain (Alg. 2). Transactions whose inputs were
// already consumed on the local branch are funded from the slashed
// deposit of the deceitful replicas, and the deposit is replenished when
// the remembered inputs become spendable again.
//
// A block enters the ledger one of two ways — CommitBlock on the happy
// path, MergeBlock for a conflicting branch — and both walk its
// transactions in order on the caller's goroutine, as Alg. 2 does. The
// one thing that leaves that goroutine is the check of signatures nobody
// has verified yet (verifySigs), a pure function of each transaction. A
// Ledger and the utxo.Table it holds are owned by the replica's event
// loop and are not safe for concurrent use.
package bm

import (
	"fmt"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// Block is a decided batch of transactions at chain index K. The ledger
// stores only K, Digest and Decision of a block it committed or merged:
// BlockAt returns blocks without Txs.
type Block struct {
	K      uint64
	Digest types.Digest
	// Decision is the digest of the consensus decision the block derives
	// from (store.BlockFrom sets it); zero for a block no decision gave.
	Decision types.Digest
	Txs      []*utxo.Transaction
}

// NewBlock assembles a block and computes its digest.
func NewBlock(k uint64, txs []*utxo.Transaction) *Block {
	b := &Block{K: k, Txs: txs}
	buf := make([]byte, 8, 8+32*len(txs))
	for i := 0; i < 8; i++ {
		buf[i] = byte(k >> (8 * (7 - i)))
	}
	for _, tx := range txs {
		id := tx.ID()
		buf = append(buf, id[:]...)
	}
	b.Digest = types.Hash(buf)
	return b
}

// Ledger is the blockchain record Ω of Alg. 2. It belongs to one
// goroutine, the event loop of the replica that commits into it.
type Ledger struct {
	scheme crypto.Scheme
	table  *utxo.Table
	// pool, when set, checks a block's not-yet-verified signatures in
	// parallel before the block applies (SetParallel, verifySigs). Nothing
	// else of the ledger is touched off the caller's goroutine.
	pool *pipeline.Pool

	// deposit is the pooled slashed stake available to fund conflicting
	// inputs (Alg. 2 line 3).
	deposit types.Amount
	// inputsDeposit remembers inputs that were funded from the deposit
	// (line 4), refunded when they become spendable (lines 24-28).
	inputsDeposit map[utxo.Outpoint]utxo.Input
	// punished accumulates account addresses used by deceitful replicas
	// (line 5); their new outputs are confiscated into the deposit.
	punished map[utxo.Address]bool
	// txs is the set of committed transaction IDs (line 6).
	txs map[types.Digest]bool
	// blocks is the chain in append order, merged siblings included, as
	// {K, Digest, Decision} records: the transactions of a stored block
	// live on as their IDs in txs and their outputs in the table, nowhere
	// else (the bytes are in the store and in the replica's retained
	// decision). first holds the position in blocks of the block stored
	// first at each index, the reference fork detection compares against;
	// lastK is the highest index stored.
	blocks []wire.BlockDigest
	first  map[uint64]int
	lastK  uint64
	merged map[types.Digest]bool
	// Stats for the experiments.
	MergedTxs        int
	DepositFundedTxs int
	Refunds          int
}

// NewLedger creates an empty ledger over a fresh UTXO table. scheme may be
// nil to skip transaction signature verification (protocol-level tests).
func NewLedger(scheme crypto.Scheme) *Ledger {
	return &Ledger{
		scheme:        scheme,
		table:         utxo.NewTable(),
		inputsDeposit: make(map[utxo.Outpoint]utxo.Input),
		punished:      make(map[utxo.Address]bool),
		txs:           make(map[types.Digest]bool),
		first:         make(map[uint64]int),
		merged:        make(map[types.Digest]bool),
	}
}

// Table exposes the UTXO table (validation, balances).
func (l *Ledger) Table() *utxo.Table { return l.table }

// Deposit returns the pooled slashed stake.
func (l *Ledger) Deposit() types.Amount { return l.deposit }

// AddDeposit grows the deposit pool: the application slashes an excluded
// replica's stake into it (paper Fig. 1  "refunds B with pk's deposit").
func (l *Ledger) AddDeposit(amount types.Amount) { l.deposit += amount }

// Punished reports whether an account has been punished.
func (l *Ledger) Punished(addr utxo.Address) bool { return l.punished[addr] }

// PunishAccount marks an account as used by a deceitful replica: its
// current unspent outputs are confiscated into the deposit, and future
// outputs it receives in merged blocks are confiscated too (Alg. 2
// lines 13-14).
func (l *Ledger) PunishAccount(addr utxo.Address) {
	l.punished[addr] = true
	for _, op := range l.table.Outpoints(addr) {
		out, ok := l.table.Spendable(op)
		if !ok {
			continue
		}
		l.table.Consume(op)
		l.deposit += out.Value
	}
}

// Genesis credits initial balances (the genesis block's outputs).
func (l *Ledger) Genesis(allocs map[utxo.Address]types.Amount) {
	for i, a := range sortedKeys(allocs) {
		op := utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: uint32(i)}
		l.table.Credit(op, utxo.Output{Account: a, Value: allocs[a]})
	}
}

// Height returns the number of stored blocks.
func (l *Ledger) Height() int { return len(l.blocks) }

// BlockAt returns the block stored first at index k: its index, digest
// and decision digest, without transactions.
func (l *Ledger) BlockAt(k uint64) (*Block, bool) {
	i, ok := l.first[k]
	if !ok {
		return nil, false
	}
	b := l.blocks[i]
	return &Block{K: k, Digest: b.Digest, Decision: b.Decision}, true
}

// LastK returns the highest stored chain index (0 for an empty chain).
func (l *Ledger) LastK() uint64 { return l.lastK }

// BlockDigests returns the digest of every stored block, keyed by chain
// index (determinism checks compare these across runs).
func (l *Ledger) BlockDigests() map[uint64]types.Digest {
	out := make(map[uint64]types.Digest, len(l.first))
	for k, i := range l.first {
		out[k] = l.blocks[i].Digest
	}
	return out
}

// HasTx reports whether a transaction is committed.
func (l *Ledger) HasTx(id types.Digest) bool { return l.txs[id] }

// TxCount returns the number of committed transaction IDs.
func (l *Ledger) TxCount() int { return len(l.txs) }

// SetParallel fans the signature step of CommitBlock and MergeBlock out
// over the given worker pool (nil: every signature is checked inline, in
// block order — the sequential reference mode). The ledger state and the
// applied counts are bit-identical either way; the determinism tests pin
// this.
func (l *Ledger) SetParallel(pool *pipeline.Pool) { l.pool = pool }

// minParallelTxs is the block size below which the signature fan-out is
// not worth waking the workers.
const minParallelTxs = 16

// verifySigs is the one step of a block's entry that leaves the event
// loop: the signatures nobody has checked yet fan out over the pool.
// VerifySig is a pure function of the transaction and memoizes its
// verdict on it, claimed before it is computed, so a signature still
// being checked by the speculation (pipeline.TxVerifier) is waited for,
// not checked twice, and the ordered apply that follows finds every
// verdict settled. Transactions the apply will not ask about — already
// committed, or of invalid shape — are not checked here either. IDs are
// memoized on this goroutine first; the workers only read them.
func (l *Ledger) verifySigs(txs []*utxo.Transaction) {
	if l.pool == nil || l.scheme == nil || len(txs) < minParallelTxs {
		return
	}
	pending := make([]*utxo.Transaction, 0, len(txs))
	for _, tx := range txs {
		if !l.txs[tx.ID()] {
			pending = append(pending, tx)
		}
	}
	l.pool.Map(len(pending), func(i int) {
		if tx := pending[i]; tx.CheckShape() == nil {
			_ = tx.VerifySig(l.scheme) // the apply reads the memoized verdict
		}
	})
}

// CommitBlock appends a decided block on the happy path: transactions are
// validated strictly against the UTXO table, in block order on the
// caller's goroutine; invalid ones are skipped (SBC-Validity filtered
// them at proposal time; a residue can appear when two proposals in one
// superblock spend the same output — first one wins, deterministically by
// block order).
func (l *Ledger) CommitBlock(b *Block) (applied int) {
	l.verifySigs(b.Txs)
	for _, tx := range b.Txs {
		id := tx.ID()
		if l.txs[id] {
			continue
		}
		if err := l.table.Apply(tx, l.scheme); err != nil {
			continue
		}
		l.txs[id] = true
		applied++
	}
	l.storeBlock(b.K, b.Digest, b.Decision)
	return applied
}

// MergeBlock implements Alg. 2: merge a conflicting block delivered by
// the reconciliation phase. Every transaction not already committed is
// merged; inputs no longer spendable are funded from the deposit;
// outputs to punished accounts are confiscated. It reports how many
// transactions were merged.
func (l *Ledger) MergeBlock(b *Block) int {
	if l.merged[b.Digest] {
		return 0
	}
	l.merged[b.Digest] = true
	mergedCount := 0
	l.verifySigs(b.Txs)
	for _, tx := range b.Txs { // go through all txs (line 9)
		id := tx.ID()
		if l.txs[id] { // check inclusion (line 10)
			continue
		}
		if err := tx.CheckShape(); err != nil {
			continue
		}
		if l.scheme != nil {
			if err := tx.VerifySig(l.scheme); err != nil {
				continue
			}
		}
		l.commitTxMerge(tx) // line 11
		l.txs[id] = true
		mergedCount++
		l.MergedTxs++
		for i, out := range tx.Outputs { // lines 12-14
			if l.punished[out.Account] {
				l.confiscateOutput(utxo.Outpoint{TxID: id, Index: uint32(i)})
			}
		}
	}
	l.RefundInputs()                        // line 15
	l.storeBlock(b.K, b.Digest, b.Decision) // line 16
	return mergedCount
}

// commitTxMerge is Alg. 2 lines 17-23: consume spendable inputs normally
// and fund the rest from the deposit.
func (l *Ledger) commitTxMerge(tx *utxo.Transaction) {
	usedDeposit := false
	for _, in := range tx.Inputs { // go through all inputs (line 19)
		if _, ok := l.table.Spendable(in.Prev); !ok {
			// Not spendable: use the deposit to refund (lines 21-22).
			l.inputsDeposit[in.Prev] = in
			if l.deposit >= in.Value {
				l.deposit -= in.Value
			} else {
				l.deposit = 0
			}
			usedDeposit = true
			continue
		}
		l.table.Consume(in.Prev) // spendable, normal case (line 23)
	}
	if usedDeposit {
		l.DepositFundedTxs++
	}
	id := tx.ID()
	for i, out := range tx.Outputs {
		l.table.Credit(utxo.Outpoint{TxID: id, Index: uint32(i)}, out)
	}
}

// RefundInputs is Alg. 2 lines 24-28: remembered deposit-funded inputs
// that became spendable again (their producing branch merged later) are
// consumed and the deposit replenished.
func (l *Ledger) RefundInputs() {
	for _, op := range l.depositOutpoints() {
		in := l.inputsDeposit[op]
		if _, ok := l.table.Spendable(op); ok { // if now spendable (line 26)
			l.table.Consume(op)   // consume (line 27)
			l.deposit += in.Value // refill deposit (line 28)
			delete(l.inputsDeposit, op)
			l.Refunds++
		}
	}
}

func (l *Ledger) confiscateOutput(op utxo.Outpoint) {
	if out, ok := l.table.Spendable(op); ok {
		l.table.Consume(op)
		l.deposit += out.Value
	}
}

// storeBlock records a committed or merged block as {K, Digest,
// Decision}; the first block stored at an index keeps it, and a block of
// the digest stored first there is not stored again.
func (l *Ledger) storeBlock(k uint64, digest, decision types.Digest) {
	i, ok := l.first[k]
	if ok && l.blocks[i].Digest == digest {
		return
	}
	if !ok {
		l.first[k] = len(l.blocks)
	}
	l.blocks = append(l.blocks, wire.BlockDigest{K: k, Digest: digest, Decision: decision})
	l.lastK = max(l.lastK, k)
}

// Conflicts reports whether a received block conflicts with the stored
// block at the same index (fork detection, §4.2.1).
func (l *Ledger) Conflicts(b *Block) bool {
	i, ok := l.first[b.K]
	return ok && l.blocks[i].Digest != b.Digest
}

// String summarizes the ledger for logs.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger(height=%d txs=%d utxos=%d deposit=%d)",
		len(l.blocks), len(l.txs), l.table.Size(), l.deposit)
}
