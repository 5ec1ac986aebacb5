// Package utxo implements the Bitcoin-style Unspent Transaction Output
// model ZLB inherits (paper §4.2.2): ~400-byte transactions signed with
// ECDSA, each consuming unspent outputs of earlier transactions and
// producing new ones, validated against an in-memory UTXO table kept to a
// minimum number of entries by consuming as many UTXOs as possible per
// transaction.
//
// Two things live here with two different concurrency contracts. A
// Transaction is immutable once signed and its signature verdict sits in
// an atomic slot, so any goroutine may verify it (VerifySig) and each
// signature is checked once. A Table is mutable state with no lock: it
// belongs to the event loop of the replica that owns it, which is the
// only goroutine that validates against it or applies to it.
package utxo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// Address identifies an account: the hash of its public key.
type Address [32]byte

// AddressOf derives the account address of a public key.
func AddressOf(pub crypto.PublicKey) Address {
	return Address(types.Hash(pub))
}

// String shortens the address for logs.
func (a Address) String() string { return types.Digest(a).String() }

// Outpoint references one output of an earlier transaction.
type Outpoint struct {
	TxID  types.Digest
	Index uint32
}

// String implements fmt.Stringer.
func (o Outpoint) String() string { return fmt.Sprintf("%v:%d", o.TxID, o.Index) }

// Output grants Value coins to Account.
type Output struct {
	Account Address
	Value   types.Amount
}

// Input consumes a previous output. Value mirrors the referenced output's
// value: the block merge (Alg. 2) needs the amount even when the UTXO has
// already been consumed on another branch, so it travels with the input
// and is cross-checked whenever the referenced output is available.
type Input struct {
	Prev  Outpoint
	Value types.Amount
}

// Transaction transfers coins from the sender's unspent outputs to the
// recipients. A single signer owns every input (the common wallet case);
// Nonce is the sender's strictly monotonically increasing sequence number
// (paper §4.2.4), which keeps two intentional transfers of equal shape
// from colliding into one transaction ID.
//
// Transactions are immutable once signed: ID, SigDigest and the canonical
// encoding are computed lazily and memoized, so the hot paths (mempool
// dedup, block assembly, pruning, UTXO application) hash each transaction
// at most once. Code that mutates a field after one of these accessors has
// run must call Invalidate.
type Transaction struct {
	Inputs  []Input
	Outputs []Output
	Nonce   uint64
	Sender  crypto.PublicKey
	Sig     crypto.Signature

	// Memoized derived values. Unexported on purpose: excluded from the
	// canonical encoding, which is a transaction's form on every wire
	// (internal/wire frames it, gob carries it through MarshalBinary),
	// so cached state never leaks onto one.
	enc       []byte // canonical encoding, signature included
	id        types.Digest
	sigDigest types.Digest
	haveID    bool
	haveSD    bool
	// sigv is the memoized signature verdict (sigUnknown/sigClaimed/
	// sigValid/sigInvalid), accessed atomically: the commit pipeline's
	// workers publish verdicts ahead of time while the owning replica may
	// be reading. The claim state makes the verify-and-memoize step
	// exclusive, so the non-atomic memo fields above are written by at
	// most one goroutine. A transaction is only ever verified under one
	// scheme (the deployment's); Invalidate resets the verdict.
	sigv int32
}

// Signature verdict states for Transaction.sigv.
const (
	sigUnknown int32 = iota
	sigClaimed
	sigValid
	sigInvalid
)

// Errors returned by transaction validation.
var (
	ErrNoInputs      = errors.New("utxo: transaction has no inputs")
	ErrNoOutputs     = errors.New("utxo: transaction has no outputs")
	ErrBadSignature  = errors.New("utxo: invalid signature")
	ErrMissingUTXO   = errors.New("utxo: input not spendable")
	ErrWrongOwner    = errors.New("utxo: input not owned by sender")
	ErrValueMismatch = errors.New("utxo: input value does not match referenced output")
	ErrOverspend     = errors.New("utxo: outputs exceed inputs")
	ErrDoubleSpend   = errors.New("utxo: input consumed twice in one batch")
	ErrZeroOutput    = errors.New("utxo: zero-value output")
)

// SigDigest returns the digest the sender signs: everything except the
// signature itself. The signature is the trailing field of the canonical
// encoding, so for a signed transaction this hashes a prefix of the
// memoized encoding and encodes nothing. A transaction still waiting for
// its signature is encoded here, and the encoding its signature will
// extend is not memoized. The result is memoized.
func (tx *Transaction) SigDigest() types.Digest {
	if !tx.haveSD {
		if len(tx.Sig) == 0 {
			tx.sigDigest = types.Hash(tx.encode(false))
		} else {
			enc := tx.Canonical()
			tx.sigDigest = types.Hash(enc[:len(enc)-len(tx.Sig)])
		}
		tx.haveSD = true
	}
	return tx.sigDigest
}

// ID returns the transaction identifier: the hash of the full encoding,
// signature included. The result is memoized.
func (tx *Transaction) ID() types.Digest {
	if !tx.haveID {
		tx.id = types.Hash(tx.Canonical())
		tx.haveID = true
	}
	return tx.id
}

// Canonical returns the memoized canonical binary encoding, signature
// included. Callers must not modify the returned slice.
func (tx *Transaction) Canonical() []byte {
	if tx.enc == nil {
		tx.enc = tx.encode(true)
	}
	return tx.enc
}

// MarshalBinary implements encoding.BinaryMarshaler with the memoized
// canonical encoding, so encoding/gob carries a transaction on the client
// socket as the bytes peer links and the store carry. Callers must not
// modify the returned slice.
func (tx *Transaction) MarshalBinary() ([]byte, error) { return tx.Canonical(), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler: tx becomes the
// transaction data encodes, with a copy of data (the interface's contract:
// the caller may reuse it) kept as the memoized encoding, so its ID
// hashes the sender's bytes. The signature verdict is unknown.
func (tx *Transaction) UnmarshalBinary(data []byte) error {
	dec, err := DecodeTransaction(bytes.Clone(data))
	if err != nil {
		return err
	}
	*tx = *dec
	return nil
}

// CanonicalSize returns the length of the canonical encoding without
// materializing it.
func (tx *Transaction) CanonicalSize() int {
	if tx.enc != nil {
		return len(tx.enc)
	}
	return 8 + 4 + len(tx.Inputs)*(32+4+8) + 4 + len(tx.Outputs)*(32+8) + 4 + len(tx.Sender) + len(tx.Sig)
}

// Invalidate drops the memoized encoding, digests and signature verdict.
// It must be called after mutating a transaction that has already been
// encoded, hashed or verified (test helpers forging variants; production
// code never mutates).
func (tx *Transaction) Invalidate() {
	tx.enc = nil
	tx.haveID = false
	tx.haveSD = false
	atomic.StoreInt32(&tx.sigv, sigUnknown)
}

// encode produces the canonical binary form, roughly 400 bytes for a
// typical 2-in/2-out transaction as in the paper's workload.
func (tx *Transaction) encode(withSig bool) []byte {
	size := 8 + 4 + len(tx.Inputs)*(32+4+8) + 4 + len(tx.Outputs)*(32+8) + 4 + len(tx.Sender)
	if withSig {
		size += len(tx.Sig)
	}
	buf := make([]byte, 0, size)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], tx.Nonce)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(tx.Inputs)))
	buf = append(buf, tmp[:4]...)
	for _, in := range tx.Inputs {
		buf = append(buf, in.Prev.TxID[:]...)
		binary.BigEndian.PutUint32(tmp[:4], in.Prev.Index)
		buf = append(buf, tmp[:4]...)
		binary.BigEndian.PutUint64(tmp[:], uint64(in.Value))
		buf = append(buf, tmp[:]...)
	}
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(tx.Outputs)))
	buf = append(buf, tmp[:4]...)
	for _, out := range tx.Outputs {
		buf = append(buf, out.Account[:]...)
		binary.BigEndian.PutUint64(tmp[:], uint64(out.Value))
		buf = append(buf, tmp[:]...)
	}
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(tx.Sender)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, tx.Sender...)
	if withSig {
		buf = append(buf, tx.Sig...)
	}
	return buf
}

// ErrTruncated is returned when a canonical encoding is shorter than its
// declared structure.
var ErrTruncated = errors.New("utxo: truncated transaction encoding")

// maxCount bounds the declared input/output/sender lengths a decoder
// accepts, so a corrupt length prefix cannot trigger a huge allocation.
const maxCount = 1 << 20

// DecodeTransaction parses a canonical encoding produced by Canonical.
// The entire buffer is consumed: the signature is the remainder after the
// sender key. The input is retained as the decoded transaction's memoized
// encoding, so re-encoding and hashing the result is free.
func DecodeTransaction(buf []byte) (*Transaction, error) {
	tx := &Transaction{}
	r := buf
	take := func(n int) ([]byte, error) {
		if len(r) < n {
			return nil, ErrTruncated
		}
		part := r[:n]
		r = r[n:]
		return part, nil
	}
	part, err := take(8)
	if err != nil {
		return nil, err
	}
	tx.Nonce = binary.BigEndian.Uint64(part)
	part, err = take(4)
	if err != nil {
		return nil, err
	}
	nIn := binary.BigEndian.Uint32(part)
	if nIn > maxCount || int(nIn) > len(r)/(32+4+8) {
		return nil, fmt.Errorf("%w: %d inputs in %d bytes", ErrTruncated, nIn, len(r))
	}
	tx.Inputs = make([]Input, nIn)
	for i := range tx.Inputs {
		if part, err = take(32 + 4 + 8); err != nil {
			return nil, err
		}
		copy(tx.Inputs[i].Prev.TxID[:], part)
		tx.Inputs[i].Prev.Index = binary.BigEndian.Uint32(part[32:])
		tx.Inputs[i].Value = types.Amount(binary.BigEndian.Uint64(part[36:]))
	}
	if part, err = take(4); err != nil {
		return nil, err
	}
	nOut := binary.BigEndian.Uint32(part)
	if nOut > maxCount || int(nOut) > len(r)/(32+8) {
		return nil, fmt.Errorf("%w: %d outputs in %d bytes", ErrTruncated, nOut, len(r))
	}
	tx.Outputs = make([]Output, nOut)
	for i := range tx.Outputs {
		if part, err = take(32 + 8); err != nil {
			return nil, err
		}
		copy(tx.Outputs[i].Account[:], part)
		tx.Outputs[i].Value = types.Amount(binary.BigEndian.Uint64(part[32:]))
	}
	if part, err = take(4); err != nil {
		return nil, err
	}
	nSender := binary.BigEndian.Uint32(part)
	if nSender > maxCount || int(nSender) > len(r) {
		return nil, fmt.Errorf("%w: %d-byte sender in %d bytes", ErrTruncated, nSender, len(r))
	}
	if part, err = take(int(nSender)); err != nil {
		return nil, err
	}
	// Sender, Sig and the memoized encoding alias buf: the decoded
	// transaction shares the payload's backing array, which callers must
	// therefore not reuse.
	tx.Sender = crypto.PublicKey(part)
	tx.Sig = crypto.Signature(r)
	tx.enc = buf
	return tx, nil
}

// InputSum totals the declared input values.
func (tx *Transaction) InputSum() types.Amount {
	var sum types.Amount
	for _, in := range tx.Inputs {
		sum += in.Value
	}
	return sum
}

// OutputSum totals the output values.
func (tx *Transaction) OutputSum() types.Amount {
	var sum types.Amount
	for _, out := range tx.Outputs {
		sum += out.Value
	}
	return sum
}

// Fee returns the fee the transaction offers: declared inputs minus
// outputs (the coins that leave the UTXO set at commit). A malformed
// overspend counts as zero fee; CheckShape rejects it regardless.
func (tx *Transaction) Fee() types.Amount {
	in, out := tx.InputSum(), tx.OutputSum()
	if out >= in {
		return 0
	}
	return in - out
}

// CheckShape validates the signature-independent structure.
func (tx *Transaction) CheckShape() error {
	if len(tx.Inputs) == 0 {
		return ErrNoInputs
	}
	if len(tx.Outputs) == 0 {
		return ErrNoOutputs
	}
	for _, out := range tx.Outputs {
		if out.Value == 0 {
			return ErrZeroOutput
		}
	}
	if tx.OutputSum() > tx.InputSum() {
		return ErrOverspend
	}
	seen := make(map[Outpoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		if seen[in.Prev] {
			return ErrDoubleSpend
		}
		seen[in.Prev] = true
	}
	return nil
}

// VerifySig checks the sender's signature with the given scheme. The
// verdict is memoized atomically, so the commit pipeline can verify a
// transaction speculatively on a worker while consensus is still deciding
// its batch — and the n replicas of a simulated cluster, which share the
// transaction object, pay for the signature check once. The claim state
// serializes the verify-and-memoize step: concurrent callers briefly spin
// (one signature verification, microseconds) instead of duplicating it.
// A transaction must only ever be verified under one scheme; call
// Invalidate after mutating an already-verified transaction.
func (tx *Transaction) VerifySig(scheme crypto.Scheme) error {
	for {
		switch atomic.LoadInt32(&tx.sigv) {
		case sigValid:
			return nil
		case sigInvalid:
			return ErrBadSignature
		case sigUnknown:
			if atomic.CompareAndSwapInt32(&tx.sigv, sigUnknown, sigClaimed) {
				if scheme.Verify(tx.Sender, tx.SigDigest(), tx.Sig) {
					atomic.StoreInt32(&tx.sigv, sigValid)
					return nil
				}
				atomic.StoreInt32(&tx.sigv, sigInvalid)
				return ErrBadSignature
			}
		default: // claimed by another goroutine; verdict imminent
			runtime.Gosched()
		}
	}
}

// Wallet signs transactions for one key pair.
type Wallet struct {
	kp     *crypto.KeyPair
	scheme crypto.Scheme
	addr   Address
	nonce  uint64
}

// NewWallet wraps a key pair.
func NewWallet(kp *crypto.KeyPair, scheme crypto.Scheme) *Wallet {
	return &Wallet{kp: kp, scheme: scheme, addr: AddressOf(kp.Public())}
}

// Address returns the wallet's account address.
func (w *Wallet) Address() Address { return w.addr }

// Pay builds and signs a transaction spending the given inputs to the
// recipients, returning all change to the wallet (zero fee).
func (w *Wallet) Pay(inputs []Input, to []Output) (*Transaction, error) {
	return w.PayWithFee(inputs, to, 0)
}

// PayWithFee builds and signs a transaction that leaves fee coins
// unclaimed for the admission policy to rank by: change returned to the
// wallet is the input sum minus recipients minus fee. The fee leaves the
// UTXO set when the transaction commits.
func (w *Wallet) PayWithFee(inputs []Input, to []Output, fee types.Amount) (*Transaction, error) {
	var inSum, outSum types.Amount
	for _, in := range inputs {
		inSum += in.Value
	}
	for _, o := range to {
		outSum += o.Value
	}
	if outSum+fee > inSum || outSum+fee < outSum {
		return nil, ErrOverspend
	}
	outs := append([]Output(nil), to...)
	if change := inSum - outSum - fee; change > 0 {
		outs = append(outs, Output{Account: w.addr, Value: change})
	}
	w.nonce++
	tx := &Transaction{
		Inputs:  append([]Input(nil), inputs...),
		Outputs: outs,
		Nonce:   w.nonce,
		Sender:  w.kp.Public(),
	}
	sig, err := w.scheme.Sign(w.kp, tx.SigDigest())
	if err != nil {
		return nil, fmt.Errorf("utxo: signing: %w", err)
	}
	tx.Sig = sig
	return tx, nil
}

// Table is the in-memory UTXO table (paper §4.2.2): the unspent outputs
// by outpoint, and each account's running balance. It is two plain maps
// with no lock, owned by one goroutine — the event loop of the replica
// whose ledger (bm.Ledger) holds it. A block applies to it in order on
// that loop (Alg. 2), the signature checks that do run elsewhere never
// read it (VerifySig is a function of the transaction alone), and a
// metrics scrape reads the node's status snapshot, not the table. A
// caller on another goroutine must be given its own synchronization, and
// named here, before the table grows one.
//
// There is no index by account: a node never asks which outputs an
// account owns. A wallet's input selection (InputsFor) and a slashed
// account's enumeration (Outpoints) scan the table.
type Table struct {
	utxos map[Outpoint]Output
	// bal holds each address's running balance so Balance is O(1) instead
	// of scanning the table.
	bal map[Address]types.Amount
}

// NewTable creates an empty table.
func NewTable() *Table {
	return &Table{
		utxos: make(map[Outpoint]Output),
		bal:   make(map[Address]types.Amount),
	}
}

// Credit inserts an unspent output (genesis allocation or tx product).
func (t *Table) Credit(op Outpoint, out Output) {
	if _, dup := t.utxos[op]; dup {
		return
	}
	t.utxos[op] = out
	t.bal[out.Account] += out.Value
}

// Spendable reports whether the outpoint is unspent, and its output.
func (t *Table) Spendable(op Outpoint) (Output, bool) {
	out, ok := t.utxos[op]
	return out, ok
}

// Consume removes an unspent output; it reports whether it was present.
func (t *Table) Consume(op Outpoint) bool {
	out, ok := t.utxos[op]
	if !ok {
		return false
	}
	delete(t.utxos, op)
	if next := t.bal[out.Account] - out.Value; next == 0 {
		delete(t.bal, out.Account)
	} else {
		t.bal[out.Account] = next
	}
	return true
}

// Balance returns the account's running balance in O(1).
func (t *Table) Balance(addr Address) types.Amount { return t.bal[addr] }

// Outpoints returns the account's unspent outpoints sorted by (TxID,
// Index) — deterministic input selection for wallets. It scans the
// table.
func (t *Table) Outpoints(addr Address) []Outpoint {
	var ops []Outpoint
	for op, out := range t.utxos {
		if out.Account == addr {
			ops = append(ops, op)
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].TxID != ops[j].TxID {
			return ops[i].TxID.Less(ops[j].TxID)
		}
		return ops[i].Index < ops[j].Index
	})
	return ops
}

// InputsFor selects inputs covering at least amount, consuming as many
// small UTXOs as possible first to keep the table compact (paper §4.2.2
// "maximizing the number of UTXOs to consume"). An O(1) balance check
// rejects underfunded requests before the table is scanned; selection
// uses a single value-ordered sort — (Value, TxID, Index) ascending,
// which ties break exactly like the previous sort-then-stable-sort pair
// did.
func (t *Table) InputsFor(addr Address, amount types.Amount) ([]Input, error) {
	if have := t.Balance(addr); have < amount {
		return nil, fmt.Errorf("%w: account %v has %d, needs %d", ErrMissingUTXO, addr, have, amount)
	}
	var picked []Input
	for op, out := range t.utxos {
		if out.Account == addr {
			picked = append(picked, Input{Prev: op, Value: out.Value})
		}
	}
	sort.Slice(picked, func(i, j int) bool {
		if picked[i].Value != picked[j].Value {
			return picked[i].Value < picked[j].Value
		}
		if picked[i].Prev.TxID != picked[j].Prev.TxID {
			return picked[i].Prev.TxID.Less(picked[j].Prev.TxID)
		}
		return picked[i].Prev.Index < picked[j].Prev.Index
	})
	var sum types.Amount
	for i, in := range picked {
		sum += in.Value
		if sum >= amount {
			return picked[:i+1], nil
		}
	}
	return nil, fmt.Errorf("%w: account %v has %d, needs %d", ErrMissingUTXO, addr, sum, amount)
}

// Size returns the number of unspent outputs.
func (t *Table) Size() int { return len(t.utxos) }

// Validate checks a transaction against the table without mutating it:
// shape, signature (if scheme non-nil), spendability, ownership and value
// binding.
func (t *Table) Validate(tx *Transaction, scheme crypto.Scheme) error {
	if err := tx.CheckShape(); err != nil {
		return err
	}
	if scheme != nil {
		if err := tx.VerifySig(scheme); err != nil {
			return err
		}
	}
	sender := AddressOf(tx.Sender)
	for _, in := range tx.Inputs {
		out, ok := t.Spendable(in.Prev)
		if !ok {
			return fmt.Errorf("%w: %v", ErrMissingUTXO, in.Prev)
		}
		if out.Account != sender {
			return fmt.Errorf("%w: %v", ErrWrongOwner, in.Prev)
		}
		if out.Value != in.Value {
			return fmt.Errorf("%w: %v", ErrValueMismatch, in.Prev)
		}
	}
	return nil
}

// Apply validates then executes a transaction: consume inputs, credit
// outputs.
func (t *Table) Apply(tx *Transaction, scheme crypto.Scheme) error {
	if err := t.Validate(tx, scheme); err != nil {
		return err
	}
	id := tx.ID()
	for _, in := range tx.Inputs {
		t.Consume(in.Prev)
	}
	for i, out := range tx.Outputs {
		t.Credit(Outpoint{TxID: id, Index: uint32(i)}, out)
	}
	return nil
}

// Entry is one unspent output of the table, as enumerated by Entries.
type Entry struct {
	Op  Outpoint
	Out Output
}

// Entries returns every unspent output sorted by outpoint — the
// deterministic enumeration ledger checkpoints (internal/store) are
// built from.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.utxos))
	for op, o := range t.utxos {
		out = append(out, Entry{Op: op, Out: o})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op.TxID != out[j].Op.TxID {
			return out[i].Op.TxID.Less(out[j].Op.TxID)
		}
		return out[i].Op.Index < out[j].Op.Index
	})
	return out
}

// TotalValue sums every unspent output: conservation checks in tests.
func (t *Table) TotalValue() types.Amount {
	var sum types.Amount
	for _, out := range t.utxos {
		sum += out.Value
	}
	return sum
}

// Clone deep-copies the table (branch simulation in tests and merges).
func (t *Table) Clone() *Table {
	c := NewTable()
	for op, out := range t.utxos {
		c.Credit(op, out)
	}
	return c
}
