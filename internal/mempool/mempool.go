// Package mempool provides the admission-controlled transaction pool
// every ZLB node front-ends consensus with — the ingress edge between
// untrusted client traffic and the consensus batch source.
//
// The pool keeps two deterministic views of the same pending set: the
// arrival queue (insertion order, the paper's original workload) and a
// priority index ordered by fee rate (fee per canonical byte), which
// admission-controlled deployments batch from so paying traffic is never
// stuck behind a spam flood. Admission is governed by a Policy:
//
//   - fee floor and fee-rate priority ordering,
//   - per-account pending caps and per-account rate limits over a
//     virtual-time window,
//   - replacement-by-fee for a pending (sender, nonce) slot,
//   - size-bounded eviction (transaction count and canonical bytes):
//     when full, the lowest-priority entry is evicted iff the incoming
//     transaction outranks it, otherwise the newcomer is rejected.
//
// Every decision is a pure function of the admission sequence and the
// injected clock — nothing iterates a Go map to decide anything — so a
// fixed-seed simulation produces bit-identical admissions, batches and
// latency percentiles at any GOMAXPROCS (the property tests in
// policy_test.go and the root determinism suite pin this).
//
// The pool stores shared *utxo.Transaction pointers: in the simulated
// deployment all replicas index the same transaction objects, so a digest
// is computed once per transaction for the whole cluster. The pool checks
// no signature: a transaction is first checked when a delivered proposal
// carries it (internal/node). All methods are safe for concurrent use:
// the lock serves a deployed node's metrics and status scrapes, which
// read the pool beside the event loop that admits, takes and prunes, and
// the simulator's Submit, which admits into every replica's pool (see
// race_test.go).
package mempool

import (
	"errors"
	"sort"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// Policy parameterizes admission control. The zero value is fully
// permissive: unlimited arrival-order queueing, exactly the pre-admission
// pool (and the configuration the paper-workload goldens run under).
type Policy struct {
	// MaxTxs bounds the pending set by transaction count (0 = unlimited).
	// When full, the lowest-priority entry is evicted if the incoming
	// transaction outranks it; otherwise the incoming one is rejected
	// with ErrPoolFull.
	MaxTxs int
	// MaxBytes bounds the pending set by total canonical encoding size
	// (0 = unlimited). Same eviction rule as MaxTxs.
	MaxBytes int64
	// MaxPerAccount caps the pending transactions of one sender
	// (0 = unlimited). Beyond it, Add fails with ErrAccountCap.
	MaxPerAccount int
	// RatePerAccount caps admissions per sender per RateWindow
	// (0 = unlimited). Beyond it, Add fails with ErrRateLimited. The
	// window position comes from the injected clock (SetClock); the
	// count resets when the clock crosses a window boundary.
	RatePerAccount int
	// RateWindow is the rate-limit window (default 1s when
	// RatePerAccount is set).
	RateWindow time.Duration
	// MinFee rejects transactions whose fee (input sum minus output sum)
	// is below the floor, with ErrFeeTooLow.
	MinFee types.Amount
	// ReplaceBumpPct enables replacement-by-fee when positive: a pending
	// (sender, nonce) slot is replaced iff the newcomer's fee is at
	// least the incumbent's fee grown by this percentage; a smaller bump
	// fails with ErrReplaceUnderpriced. Zero disables replacement: two
	// transactions sharing a (sender, nonce) slot both queue, exactly
	// like the permissive pool.
	ReplaceBumpPct int
	// PriorityOrder makes Take return transactions by descending fee
	// rate (ties: higher fee, then arrival order) instead of arrival
	// order.
	PriorityOrder bool
}

// active reports whether any admission knob is set (the zero Policy
// skips the priority index entirely, keeping the permissive pool's O(1)
// append behavior).
func (p Policy) active() bool {
	return p.MaxTxs > 0 || p.MaxBytes > 0 || p.MaxPerAccount > 0 ||
		p.RatePerAccount > 0 || p.MinFee > 0 || p.ReplaceBumpPct > 0 || p.PriorityOrder
}

// Typed admission verdicts. Callers branch with errors.Is.
var (
	// ErrDuplicate rejects a transaction already pending.
	ErrDuplicate = errors.New("mempool: transaction already pending")
	// ErrCommitted rejects a transaction the committed predicate
	// (SetCommitted) knows: re-proposing it would waste a consensus
	// instance, and the ledger would skip it anyway.
	ErrCommitted = errors.New("mempool: transaction already committed")
	// ErrAccountCap rejects a sender whose pending count is at the cap.
	ErrAccountCap = errors.New("mempool: per-account pending cap reached")
	// ErrRateLimited rejects a sender exceeding its admission rate.
	ErrRateLimited = errors.New("mempool: per-account rate limit exceeded")
	// ErrFeeTooLow rejects a fee below Policy.MinFee.
	ErrFeeTooLow = errors.New("mempool: fee below admission floor")
	// ErrPoolFull rejects a transaction that does not outrank the
	// lowest-priority pending entry of a full pool.
	ErrPoolFull = errors.New("mempool: pool full and fee below eviction floor")
	// ErrReplaceUnderpriced rejects a replacement-by-fee whose bump is
	// below Policy.ReplaceBumpPct.
	ErrReplaceUnderpriced = errors.New("mempool: replacement fee bump too small")
)

// entry is one pending transaction with its memoized admission facts.
type entry struct {
	tx     *utxo.Transaction
	id     types.Digest
	sender utxo.Address
	fee    types.Amount
	size   int64
	seq    uint64
}

// outranks is the pool's total priority order: higher fee rate first
// (compared exactly by cross-multiplication, no float rounding), then
// higher absolute fee, then earlier arrival. Strict for distinct entries,
// so every sorted structure derived from it is deterministic.
func (e *entry) outranks(o *entry) bool {
	l, r := uint64(e.fee)*uint64(o.size), uint64(o.fee)*uint64(e.size)
	if l != r {
		return l > r
	}
	if e.fee != o.fee {
		return e.fee > o.fee
	}
	return e.seq < o.seq
}

// slotKey identifies a (sender, nonce) slot for replacement-by-fee.
type slotKey struct {
	sender utxo.Address
	nonce  uint64
}

// rateBucket is one sender's admission count in the current rate window.
type rateBucket struct {
	window int64
	count  int
}

// Pool is the admission-controlled mempool. All methods are safe for
// concurrent use.
type Pool struct {
	mu     sync.Mutex
	policy Policy
	// clock supplies virtual (or wall) time for rate-limit windows; nil
	// pins the window at zero, which makes RatePerAccount a cap on total
	// admissions per sender.
	clock func() time.Duration
	// committed reports whether the ledger applied a transaction; nil
	// refuses nothing as committed.
	committed func(types.Digest) bool

	// pending indexes the queued entries by digest.
	pending map[types.Digest]*entry
	// queue is the arrival-order view.
	queue []*entry
	// prio is the priority-order view (best first), maintained only when
	// the policy is active.
	prio []*entry
	// byAcct counts pending transactions per sender (active policy only).
	byAcct map[utxo.Address]int
	// bySlot indexes pending entries by (sender, nonce) for
	// replacement-by-fee (maintained when ReplaceBumpPct > 0).
	bySlot map[slotKey]*entry
	// rates tracks per-sender admission counts per window.
	rates map[utxo.Address]rateBucket

	bytes     int64
	seq       uint64
	evictions uint64
	admitted  uint64
	// rejects counts Add failures by reason label (see RejectReason) —
	// the per-reason series the node metrics endpoint exports.
	rejects map[string]uint64
}

// RejectReason maps a typed admission error to its stable metrics label.
// Unknown errors (including nil) map to "other".
func RejectReason(err error) string {
	switch {
	case errors.Is(err, ErrDuplicate):
		return "duplicate"
	case errors.Is(err, ErrCommitted):
		return "committed"
	case errors.Is(err, ErrAccountCap):
		return "account_cap"
	case errors.Is(err, ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, ErrFeeTooLow):
		return "fee_too_low"
	case errors.Is(err, ErrPoolFull):
		return "pool_full"
	case errors.Is(err, ErrReplaceUnderpriced):
		return "replace_underpriced"
	default:
		return "other"
	}
}

// RejectReasons is the complete label set RejectReason can return, in
// stable order. The node metrics endpoint registers one rejection series
// per reason up front, so every scrape exposes the full set (zeros
// included) instead of labels appearing as rejections happen.
var RejectReasons = []string{
	"duplicate", "committed", "account_cap", "rate_limited",
	"fee_too_low", "pool_full", "replace_underpriced", "other",
}

// New creates an empty pool with the permissive zero policy.
func New() *Pool { return NewWithPolicy(Policy{}) }

// NewWithPolicy creates an empty pool governed by the given policy.
func NewWithPolicy(policy Policy) *Pool {
	if policy.RatePerAccount > 0 && policy.RateWindow == 0 {
		policy.RateWindow = time.Second
	}
	return &Pool{
		policy:  policy,
		pending: make(map[types.Digest]*entry),
		byAcct:  make(map[utxo.Address]int),
		bySlot:  make(map[slotKey]*entry),
		rates:   make(map[utxo.Address]rateBucket),
		rejects: make(map[string]uint64),
	}
}

// Policy returns the pool's admission policy.
func (p *Pool) Policy() Policy { return p.policy }

// SetClock injects the time source for rate-limit windows — the
// simulator's virtual clock in simulated deployments, wall time since
// start on a real node. Admission decisions then depend only on the
// admission sequence and this clock, never on host scheduling.
func (p *Pool) SetClock(fn func() time.Duration) {
	p.mu.Lock()
	p.clock = fn
	p.mu.Unlock()
}

// SetCommitted injects the committed-transaction predicate: the node's
// ledger, whose ID set (Alg. 2 line 6) is the one record of what was
// applied. Add refuses a transaction it reports with ErrCommitted. Add
// calls it on the caller's goroutine, so a caller whose predicate reads
// state owned by an event loop must call Add from that loop.
func (p *Pool) SetCommitted(fn func(types.Digest) bool) {
	p.mu.Lock()
	p.committed = fn
	p.mu.Unlock()
}

// Add runs the transaction through admission. It returns nil when the
// transaction enters the pool and a typed error (ErrDuplicate,
// ErrCommitted, ErrFeeTooLow, ErrReplaceUnderpriced, ErrRateLimited,
// ErrAccountCap, ErrPoolFull) when it does not.
//
// Add warms every lazily memoized derived value (canonical encoding, ID,
// signing digest) while the transaction is still owned by a single
// goroutine: the pointer is about to be shared across all replicas'
// pools, and the node's signature-verification workers may encode or
// hash it concurrently. After Add, those accessors are read-only.
func (p *Pool) Add(tx *utxo.Transaction) error {
	id := tx.ID()
	p.mu.Lock()
	if p.committed != nil && p.committed(id) {
		p.rejects[RejectReason(ErrCommitted)]++
		p.mu.Unlock()
		return ErrCommitted
	}
	if _, dup := p.pending[id]; dup {
		p.rejects[RejectReason(ErrDuplicate)]++
		p.mu.Unlock()
		return ErrDuplicate
	}
	// Warm the remaining memos only for transactions passing the cheap
	// dedup (ID is already computed above); rejected duplicates are
	// dropped without paying the extra encode+hash.
	tx.Canonical()
	tx.SigDigest()
	e := &entry{
		tx:     tx,
		id:     id,
		sender: utxo.AddressOf(tx.Sender),
		fee:    tx.Fee(),
		size:   int64(tx.CanonicalSize()),
	}
	if err := p.admit(e); err != nil {
		p.rejects[RejectReason(err)]++
		p.mu.Unlock()
		return err
	}
	p.admitted++
	p.mu.Unlock()
	return nil
}

// admit applies the policy and inserts the entry. Caller holds the lock.
func (p *Pool) admit(e *entry) error {
	pol := &p.policy
	if !pol.active() {
		// Permissive fast path: O(1) append, no priority index.
		e.seq = p.seq
		p.seq++
		p.pending[e.id] = e
		p.queue = append(p.queue, e)
		p.bytes += e.size
		return nil
	}
	if e.fee < pol.MinFee {
		return ErrFeeTooLow
	}
	// Replacement-by-fee: a pending (sender, nonce) slot is an explicit
	// replacement request, judged before caps (the incumbent is leaving,
	// so the sender's pending count does not grow).
	var replacing *entry
	if pol.ReplaceBumpPct > 0 {
		if inc, ok := p.bySlot[slotKey{sender: e.sender, nonce: e.tx.Nonce}]; ok {
			// fee >= incumbent * (100 + bump) / 100, in exact integers.
			if uint64(e.fee)*100 < uint64(inc.fee)*uint64(100+pol.ReplaceBumpPct) {
				return ErrReplaceUnderpriced
			}
			replacing = inc
		}
	}
	if pol.RatePerAccount > 0 {
		var now time.Duration
		if p.clock != nil {
			now = p.clock()
		}
		window := int64(now / pol.RateWindow)
		b := p.rates[e.sender]
		if b.window != window {
			b = rateBucket{window: window}
		}
		if b.count >= pol.RatePerAccount {
			return ErrRateLimited
		}
		b.count++
		defer func() { p.rates[e.sender] = b }()
	}
	if replacing == nil && pol.MaxPerAccount > 0 && p.byAcct[e.sender] >= pol.MaxPerAccount {
		return ErrAccountCap
	}
	if replacing != nil {
		p.remove(replacing)
		p.evictions++
	}
	// Size-bounded eviction: shed lowest-priority entries while the pool
	// would overflow, but only for a newcomer that outranks them.
	for p.overflowWith(e) {
		victim := p.prio[len(p.prio)-1]
		if !e.outranks(victim) {
			return ErrPoolFull
		}
		p.remove(victim)
		p.evictions++
	}
	e.seq = p.seq
	p.seq++
	p.pending[e.id] = e
	p.queue = append(p.queue, e)
	p.insertPrio(e)
	p.byAcct[e.sender]++
	if pol.ReplaceBumpPct > 0 {
		p.bySlot[slotKey{sender: e.sender, nonce: e.tx.Nonce}] = e
	}
	p.bytes += e.size
	return nil
}

// overflowWith reports whether admitting e would exceed a capacity bound.
// Caller holds the lock.
func (p *Pool) overflowWith(e *entry) bool {
	if len(p.prio) == 0 {
		return false
	}
	if p.policy.MaxTxs > 0 && len(p.pending)+1 > p.policy.MaxTxs {
		return true
	}
	return p.policy.MaxBytes > 0 && p.bytes+e.size > p.policy.MaxBytes
}

// insertPrio inserts e into the priority view (best first). Caller holds
// the lock.
func (p *Pool) insertPrio(e *entry) {
	i := sort.Search(len(p.prio), func(i int) bool { return e.outranks(p.prio[i]) })
	p.prio = append(p.prio, nil)
	copy(p.prio[i+1:], p.prio[i:])
	p.prio[i] = e
}

// remove drops a pending entry from every structure. Caller holds the
// lock.
func (p *Pool) remove(e *entry) {
	delete(p.pending, e.id)
	p.bytes -= e.size
	p.byAcct[e.sender]--
	if p.byAcct[e.sender] <= 0 {
		delete(p.byAcct, e.sender)
	}
	key := slotKey{sender: e.sender, nonce: e.tx.Nonce}
	if cur, ok := p.bySlot[key]; ok && cur == e {
		delete(p.bySlot, key)
	}
	for i, q := range p.queue {
		if q == e {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	// The priority order is strict, so binary search lands exactly on e.
	i := sort.Search(len(p.prio), func(i int) bool { return !p.prio[i].outranks(e) })
	if i < len(p.prio) && p.prio[i] == e {
		p.prio = append(p.prio[:i], p.prio[i+1:]...)
	}
}

// Len returns the number of queued transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Bytes returns the total canonical size of the queued transactions.
func (p *Pool) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Evictions returns the cumulative count of entries shed by
// replacement-by-fee and capacity eviction.
func (p *Pool) Evictions() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evictions
}

// Stats is a point-in-time snapshot of the pool's counters, the shape
// the node metrics endpoint scrapes.
type Stats struct {
	Pending   int    `json:"pending"`
	Bytes     int64  `json:"bytes"`
	Admitted  uint64 `json:"admitted"`
	Evictions uint64 `json:"evictions"`
	// Rejects counts Add failures by reason label (copy; safe to retain).
	Rejects map[string]uint64 `json:"rejects,omitempty"`
}

// Stats snapshots the pool counters in one lock acquisition.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Pending:   len(p.pending),
		Bytes:     p.bytes,
		Admitted:  p.admitted,
		Evictions: p.evictions,
		Rejects:   make(map[string]uint64, len(p.rejects)),
	}
	for k, v := range p.rejects {
		s.Rejects[k] = v
	}
	return s
}

// Take returns up to max pending transactions without removing them
// (they leave the pool when a committed block prunes them): by
// descending priority under Policy.PriorityOrder, by arrival order
// otherwise. Callers must not modify the returned transactions.
func (p *Pool) Take(max int) []*utxo.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.queue
	if p.policy.PriorityOrder {
		src = p.prio
	}
	n := len(src)
	if n > max {
		n = max
	}
	out := make([]*utxo.Transaction, n)
	for i := 0; i < n; i++ {
		out[i] = src[i].tx
	}
	return out
}

// Prune drops a committed block's transactions from the pending queue.
// A client's retry after the commit is refused by the committed
// predicate, not by the pool (SetCommitted).
func (p *Pool) Prune(txs []*utxo.Transaction) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(txs) == 0 || len(p.pending) == 0 {
		return
	}
	var gone map[types.Digest]struct{}
	for _, tx := range txs {
		e, ok := p.pending[tx.ID()]
		if !ok {
			continue
		}
		if gone == nil {
			gone = make(map[types.Digest]struct{}, len(txs))
		}
		gone[e.id] = struct{}{}
		delete(p.pending, e.id)
		p.bytes -= e.size
		p.byAcct[e.sender]--
		if p.byAcct[e.sender] <= 0 {
			delete(p.byAcct, e.sender)
		}
		key := slotKey{sender: e.sender, nonce: e.tx.Nonce}
		if cur, ok := p.bySlot[key]; ok && cur == e {
			delete(p.bySlot, key)
		}
	}
	if gone == nil {
		return
	}
	// One allocation-free sweep per view instead of a splice per entry.
	p.queue = sweep(p.queue, gone)
	p.prio = sweep(p.prio, gone)
}

// sweep compacts a view in place, dropping entries whose digest is in
// gone, and clears the freed tail so pruned transactions do not leak
// through the backing array.
func sweep(view []*entry, gone map[types.Digest]struct{}) []*entry {
	kept := view[:0]
	for _, e := range view {
		if _, ok := gone[e.id]; !ok {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(view); i++ {
		view[i] = nil
	}
	return kept
}
