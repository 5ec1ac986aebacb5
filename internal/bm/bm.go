// Package bm implements ZLB's Blockchain Manager (paper §4.2): the
// component that stores decided blocks, detects forks, and — instead of
// discarding a conflicting branch like classic blockchains — merges its
// blocks into the local chain (Alg. 2). Transactions whose inputs were
// already consumed on the local branch are funded from the slashed
// deposit of the deceitful replicas, and the deposit is replenished when
// the remembered inputs become spendable again.
package bm

import (
	"errors"
	"fmt"
	"sort"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// Block is a decided batch of transactions at chain index K. The ledger
// stores only K and Digest of a block it committed or merged: BlockAt
// returns blocks without Txs.
type Block struct {
	K      uint64
	Digest types.Digest
	Txs    []*utxo.Transaction
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

// Ledger is the blockchain record Ω of Alg. 2.
type Ledger struct {
	scheme crypto.Scheme
	table  *utxo.Table
	// pool, when set, enables the parallel commit path: independent
	// transactions of a block apply concurrently on the striped UTXO
	// table (SetParallel).
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
	// {K, Digest} records: the transactions of a stored block live on as
	// their IDs in txs and their outputs in the table, nowhere else (the
	// bytes are in the store and in the replica's retained decision).
	// byIndex holds the digest stored first at each index, the reference
	// fork detection compares against; lastK is the highest index stored.
	blocks  []wire.BlockDigest
	byIndex map[uint64]types.Digest
	lastK   uint64
	merged  map[types.Digest]bool
	// Stats for the experiments.
	MergedTxs        int
	DepositFundedTxs int
	Refunds          int
}

// Errors returned by the ledger.
var (
	ErrStaleBlock = errors.New("bm: block index already holds this block")
)

// NewLedger creates an empty ledger over a fresh UTXO table. scheme may be
// nil to skip transaction signature verification (protocol-level tests).
func NewLedger(scheme crypto.Scheme) *Ledger {
	return &Ledger{
		scheme:        scheme,
		table:         utxo.NewTable(),
		inputsDeposit: make(map[utxo.Outpoint]utxo.Input),
		punished:      make(map[utxo.Address]bool),
		txs:           make(map[types.Digest]bool),
		byIndex:       make(map[uint64]types.Digest),
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
	addrs := make([]utxo.Address, 0, len(allocs))
	for a := range allocs {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return types.Digest(addrs[i]).Less(types.Digest(addrs[j]))
	})
	for i, a := range addrs {
		op := utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: uint32(i)}
		l.table.Credit(op, utxo.Output{Account: a, Value: allocs[a]})
	}
}

// Height returns the number of stored blocks.
func (l *Ledger) Height() int { return len(l.blocks) }

// BlockAt returns the block stored first at index k: its index and
// digest, without transactions.
func (l *Ledger) BlockAt(k uint64) (*Block, bool) {
	d, ok := l.byIndex[k]
	if !ok {
		return nil, false
	}
	return &Block{K: k, Digest: d}, true
}

// LastK returns the highest stored chain index (0 for an empty chain).
func (l *Ledger) LastK() uint64 { return l.lastK }

// BlockDigests returns the digest of every stored block, keyed by chain
// index (determinism checks compare these across runs).
func (l *Ledger) BlockDigests() map[uint64]types.Digest {
	out := make(map[uint64]types.Digest, len(l.byIndex))
	for k, d := range l.byIndex {
		out[k] = d
	}
	return out
}

// HasTx reports whether a transaction is committed.
func (l *Ledger) HasTx(id types.Digest) bool { return l.txs[id] }

// TxCount returns the number of committed transaction IDs.
func (l *Ledger) TxCount() int { return len(l.txs) }

// SetParallel enables the parallel commit path on the given worker pool
// (nil disables it — the forced-sequential mode of the commit pipeline).
// Both paths produce bit-identical ledger state and applied counts; the
// determinism tests pin this.
func (l *Ledger) SetParallel(pool *pipeline.Pool) { l.pool = pool }

// minParallelTxs is the block size below which the parallel commit path
// is not worth its classification pass.
const minParallelTxs = 16

// CommitBlock appends a decided block on the happy path: transactions are
// validated strictly against the UTXO table; invalid ones are skipped
// (SBC-Validity filtered them at proposal time; a residue can appear when
// two proposals in one superblock spend the same output — first one wins,
// deterministically by block order). With SetParallel, transactions the
// conflict analysis proves independent are verified and applied
// concurrently on the worker pool; everything else falls back to
// sequential block order.
func (l *Ledger) CommitBlock(b *Block) (applied int) {
	if l.pool != nil && l.scheme != nil && len(b.Txs) >= minParallelTxs {
		applied = l.commitParallel(b)
	} else {
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
	}
	l.storeBlock(b.K, b.Digest)
	return applied
}

// Transaction classes of the parallel commit's conflict analysis.
const (
	classPar  uint8 = iota // independent: applies on the worker pool
	classSeq               // conflicting or dependent: sequential, block order
	classSkip              // already committed before this block
)

// commitParallel is the conflict-detecting parallel apply. A transaction
// runs in the parallel set only when nothing else in the block can
// influence its validity or effects: its inputs are not consumed by any
// other block transaction, it does not spend an output produced inside
// the block, no block transaction spends its outputs, and its ID is
// unique in the block. Such transactions validate against pre-block table
// state whatever the order, and their effects land on disjoint outpoints
// (striped-table balance updates commute), so parallel application is
// bit-identical to sequential. Everything else — intra-block dependency
// chains, double spends resolved first-wins, duplicate IDs — replays
// sequentially in block order after the parallel set, which cannot change
// its outcome either (the sequential residue never touches a parallel
// transaction's inputs or outputs).
func (l *Ledger) commitParallel(b *Block) (applied int) {
	n := len(b.Txs)
	ids := make([]types.Digest, n)
	classes := make([]uint8, n)
	blockIDs := make(map[types.Digest]int, n)  // tx ID -> first index
	inputUse := make(map[utxo.Outpoint]int, n) // input -> spending txs
	refs := make(map[types.Digest]bool, n)     // in-block produced IDs spent by the block
	for i, tx := range b.Txs {
		ids[i] = tx.ID() // memoize on this goroutine; workers only read
		if l.txs[ids[i]] {
			classes[i] = classSkip
			continue
		}
		if first, dup := blockIDs[ids[i]]; dup {
			// Duplicate IDs replay sequentially so first-wins (and the
			// pathological fail-then-succeed retry) behave exactly as the
			// sequential loop.
			classes[first] = classSeq
			classes[i] = classSeq
		} else {
			blockIDs[ids[i]] = i
		}
		for _, in := range tx.Inputs {
			inputUse[in.Prev]++
		}
	}
	for i, tx := range b.Txs {
		if classes[i] == classSkip {
			continue
		}
		for _, in := range tx.Inputs {
			if _, inBlock := blockIDs[in.Prev.TxID]; inBlock {
				refs[in.Prev.TxID] = true
			}
		}
	}
	var parIdx []int
	for i, tx := range b.Txs {
		if classes[i] != classPar {
			continue
		}
		indep := !refs[ids[i]]
		if indep {
			for _, in := range tx.Inputs {
				if inputUse[in.Prev] > 1 {
					indep = false
					break
				}
				if _, inBlock := blockIDs[in.Prev.TxID]; inBlock {
					indep = false
					break
				}
			}
		}
		if indep {
			parIdx = append(parIdx, i)
		} else {
			classes[i] = classSeq
		}
	}

	ok := make([]bool, len(parIdx))
	l.pool.Map(len(parIdx), func(j int) {
		tx := b.Txs[parIdx[j]]
		ok[j] = l.table.Apply(tx, l.scheme) == nil
	})

	// Bookkeeping fans in on this goroutine, in block order; the
	// sequential residue applies here too.
	next := 0
	for i, tx := range b.Txs {
		switch classes[i] {
		case classSkip:
		case classPar:
			if ok[next] {
				l.txs[ids[i]] = true
				applied++
			}
			next++
		case classSeq:
			if l.txs[ids[i]] {
				continue
			}
			if err := l.table.Apply(tx, l.scheme); err != nil {
				continue
			}
			l.txs[ids[i]] = true
			applied++
		}
	}
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
	l.RefundInputs()            // line 15
	l.storeBlock(b.K, b.Digest) // line 16
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
	for _, op := range ops {
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

// storeBlock records a committed or merged block as {K, Digest}; the
// first digest stored at an index keeps it.
func (l *Ledger) storeBlock(k uint64, digest types.Digest) {
	prev, ok := l.byIndex[k]
	if ok && prev == digest {
		return
	}
	l.blocks = append(l.blocks, wire.BlockDigest{K: k, Digest: digest})
	if !ok {
		l.byIndex[k] = digest
	}
	if k > l.lastK {
		l.lastK = k
	}
}

// Conflicts reports whether a received block conflicts with the stored
// block at the same index (fork detection, §4.2.1).
func (l *Ledger) Conflicts(b *Block) bool {
	stored, ok := l.byIndex[b.K]
	return ok && stored != b.Digest
}

// String summarizes the ledger for logs.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger(height=%d txs=%d utxos=%d deposit=%d)",
		len(l.blocks), len(l.txs), l.table.Size(), l.deposit)
}
