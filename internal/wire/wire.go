// Package wire implements the binary codecs for consensus proposal
// payloads: transaction batches, proof-of-fraud sets and replica lists,
// and the signed-statement and certificate layouts the transport's peer
// frames are built from. It replaces the reflective encoding/gob codecs
// that used to live in the zlb package, cmd/zlb-node and
// internal/membership — a length-prefixed framing over each type's
// canonical encoding, with no reflection and no per-field allocations on
// the hot path.
//
// Batch layout (all integers big-endian):
//
//	magic   [4]byte "ZLB1"
//	count   uint32
//	count × { txLen uint32, tx canonical encoding (utxo.Transaction) }
//
// Encoding a batch reuses each transaction's memoized canonical bytes;
// decoding hands each transaction a view of the payload so its ID comes
// from a single hash with no re-encoding.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// Batch payload magic: format identifier plus version.
var batchMagic = [4]byte{'Z', 'L', 'B', '1'}

// Errors returned by the decoders.
var (
	ErrBadMagic  = errors.New("wire: payload is not a ZLB1 batch")
	ErrTruncated = errors.New("wire: truncated payload")
)

// maxCount bounds declared element counts so corrupt payloads cannot
// trigger huge allocations.
const maxCount = 1 << 22

// EncodeBatch serializes transactions into a consensus proposal payload.
func EncodeBatch(txs []*utxo.Transaction) ([]byte, error) {
	size := 4 + 4
	for _, tx := range txs {
		size += 4 + tx.CanonicalSize()
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMagic[:]...)
	buf = appendUint32(buf, uint32(len(txs)))
	for _, tx := range txs {
		enc := tx.Canonical()
		buf = appendUint32(buf, uint32(len(enc)))
		buf = append(buf, enc...)
	}
	return buf, nil
}

// DecodeBatch parses a consensus proposal payload. The decoded
// transactions alias the payload; callers must not reuse it.
//
// Trailing bytes after the declared transactions are tolerated, exactly
// like the gob codec this replaces: the reliable-broadcast attack forks a
// proposal by appending a partition-tag byte to an otherwise valid batch
// (adversary.VariantPayload), and the reconciliation merge must still
// extract the transactions from such a payload — dropping them would
// recreate the very loss the merge exists to prevent.
func DecodeBatch(payload []byte) ([]*utxo.Transaction, error) {
	if len(payload) < 8 || [4]byte(payload[:4]) != batchMagic {
		return nil, ErrBadMagic
	}
	count := binary.BigEndian.Uint32(payload[4:])
	r := payload[8:]
	// Each transaction costs at least a 4-byte length prefix: cap the
	// preallocation by what the buffer could possibly hold, so a corrupt
	// count cannot trigger a huge allocation.
	if count > maxCount || int(count) > len(r)/4 {
		return nil, fmt.Errorf("%w: %d transactions in %d bytes", ErrTruncated, count, len(r))
	}
	txs := make([]*utxo.Transaction, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(r) < 4 {
			return nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(r)
		r = r[4:]
		if uint32(len(r)) < n {
			return nil, ErrTruncated
		}
		tx, err := utxo.DecodeTransaction(r[:n:n])
		if err != nil {
			return nil, fmt.Errorf("wire: transaction %d: %w", i, err)
		}
		txs = append(txs, tx)
		r = r[n:]
	}
	return txs, nil
}

// BatchCache memoizes decoded batches by payload digest, so that a
// payload decoded speculatively at delivery is not decoded (or verified:
// the verdicts sit on the transactions) again at commit. Entries are
// evicted FIFO once cap is exceeded, and an evicted batch's transaction
// objects go with it; a later Decode of the same bytes builds new ones.
//
// Across the batches it holds, the cache also keeps one object per
// transaction: an index from transaction ID to the decoded (or seeded)
// object. A Decode that meets an indexed ID returns the indexed object in
// place of the one it just built, so a transaction re-proposed inside a
// different payload, or carried by two overlapping proposals, is the same
// pointer with the same memoized verdict and is verified once. The ID is
// the hash of the full encoding, signature included: equal IDs are equal
// bytes and equal verdicts, and a copy with another signature is another
// transaction. An index entry belongs to the newest batch that returned
// its object (eviction is FIFO, so that batch leaves last) and is dropped
// when that batch is evicted: a transaction proposed again and again stays
// one object for as long as a cached batch carries it, the index is
// bounded by the transactions of cap batches, and a reused object, which
// aliases the payload it was first decoded from, is let go once every
// batch that returned it has left the window.
//
// Size it to what is in flight. A TCP node sees n proposals per instance
// and holds 2n: the instance committing and the one being broadcast. The
// simulated deployment shares one cache between every replica of the
// cluster (they all receive the identical payload and share the decoded
// transactions and their memoized IDs) and keeps the default.
//
// Safe for concurrent use, singleflight-style: the commit pipeline
// decodes proposals speculatively on worker goroutines while the event
// loop reads. The lock covers only the map bookkeeping; the decode
// itself runs outside it, so a cache hit never waits behind an
// in-flight decode of a *different* payload, while concurrent requests
// for the *same* payload share one decode.
type BatchCache struct {
	mu      sync.Mutex
	cap     int
	entries map[types.Digest]*batchEntry
	order   []types.Digest
	index   map[types.Digest]indexedTx
	// Hits and Misses count payloads served from the cache and payloads
	// decoded; TxsDecoded and TxsReused count the transactions of decoded
	// payloads that Decode built anew and that it took from the index.
	// They instrument the cache for benchmarks and metrics; read them only
	// when no concurrent decodes are in flight, or through Stats.
	Hits       int
	Misses     int
	TxsDecoded int
	TxsReused  int
}

// indexedTx is the one object serving a transaction ID and the cached
// batch whose eviction unindexes it.
type indexedTx struct {
	tx    *utxo.Transaction
	owner *batchEntry
}

// batchEntry is one in-flight or settled decode; done closes when txs/err
// are final. Waiters hold the entry pointer directly, so eviction can
// never strand them. txs is assigned under the cache lock, final: an
// eviction, which holds the lock, sees no transactions or all of them.
type batchEntry struct {
	done chan struct{}
	txs  []*utxo.Transaction
	err  error
}

// NewBatchCache creates a cache holding up to cap decoded batches
// (default 64 when cap <= 0).
func NewBatchCache(cap int) *BatchCache {
	if cap <= 0 {
		cap = 64
	}
	return &BatchCache{
		cap:     cap,
		entries: make(map[types.Digest]*batchEntry, cap),
		index:   make(map[types.Digest]indexedTx),
	}
}

// Len returns the number of cached batches.
func (c *BatchCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// BatchCacheStats is a snapshot of a cache's counters and sizes.
type BatchCacheStats struct {
	Hits, Misses          int
	TxsDecoded, TxsReused int
	Batches, IndexedTxs   int
}

// Stats returns the counters and sizes under the cache lock, for readers
// that run beside in-flight decodes.
func (c *BatchCache) Stats() BatchCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BatchCacheStats{
		Hits: c.Hits, Misses: c.Misses,
		TxsDecoded: c.TxsDecoded, TxsReused: c.TxsReused,
		Batches: len(c.entries), IndexedTxs: len(c.index),
	}
}

// insert adds e under key, evicting the oldest entry of a full cache and
// the index entries it owns. The caller holds c.mu.
func (c *BatchCache) insert(key types.Digest, e *batchEntry) {
	if len(c.order) >= c.cap {
		c.unindex(c.entries[c.order[0]])
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[key] = e
	c.order = append(c.order, key)
}

// unindex drops the index entries e owns: those of its objects that no
// newer batch has returned since. The caller holds c.mu.
func (c *BatchCache) unindex(e *batchEntry) {
	for _, tx := range e.txs {
		if id := tx.ID(); c.index[id].owner == e {
			delete(c.index, id)
		}
	}
}

// Seed caches txs as the decoded form of payload, which must be
// EncodeBatch(txs): a proposer's own batch then commits as the objects
// its mempool admitted and verified, instead of a second decoded set, and
// a foreign payload carrying one of them decodes to that object. A
// payload already cached keeps its entry.
func (c *BatchCache) Seed(payload []byte, txs []*utxo.Transaction) {
	key := types.Hash(payload)
	for _, tx := range txs {
		tx.ID() // memoized before the index shares the object
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &batchEntry{done: make(chan struct{}), txs: txs}
	close(e.done)
	c.insert(key, e)
	for _, tx := range txs {
		// An ID served by another object keeps it; the pool's own objects,
		// seeded again inside a later batch, move under that batch.
		id := tx.ID()
		if cur, ok := c.index[id]; !ok || cur.tx == tx {
			c.index[id] = indexedTx{tx, e}
		}
	}
}

// Decode returns the decoded transactions of payload, from cache when the
// same payload bytes were decoded or seeded before. A transaction whose
// ID is indexed under a cached batch is returned as that batch's object.
func (c *BatchCache) Decode(payload []byte) ([]*utxo.Transaction, error) {
	key := types.Hash(payload)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.Hits++
		c.mu.Unlock()
		<-e.done
		return e.txs, e.err
	}
	e := &batchEntry{done: make(chan struct{})}
	c.insert(key, e)
	c.Misses++
	c.mu.Unlock()

	txs, err := DecodeBatch(payload)
	// Warm the memoized IDs and signing digests before publishing the
	// batch: cached transactions are shared by every replica committing
	// the same decision, and with the parallel simulator those replicas
	// hash them concurrently. After this loop the accessors are
	// read-only.
	for _, tx := range txs {
		tx.ID()
		tx.SigDigest()
	}
	c.mu.Lock()
	// A batch evicted while it was decoding (more than cap decodes in
	// flight) owns no index entry: no eviction would remove it.
	live := c.entries[key] == e
	for i, tx := range txs {
		id := tx.ID()
		if cur, ok := c.index[id]; ok {
			txs[i] = cur.tx
			c.TxsReused++
		} else {
			c.TxsDecoded++
		}
		if live {
			c.index[id] = indexedTx{txs[i], e}
		}
	}
	e.txs, e.err = txs, err
	if err != nil && live {
		// Do not cache failures: drop the entry so the counters and
		// contents match the sequential cache's behaviour (a corrupt
		// payload is re-attempted, deterministically failing again).
		delete(c.entries, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.Misses--
	}
	c.mu.Unlock()
	close(e.done)
	return txs, err
}

// --- Membership payloads ---

// Signed statement layout: stmt (fixed 50 bytes) + signer uint32 +
// sigLen uint32 + sig.

// signedMinLen is the length of a signed statement with an empty
// signature: the least any element of a list of them occupies.
const signedMinLen = accountability.EncodedLen + 8

// AppendSigned appends a signed statement in its layout.
func AppendSigned(buf []byte, s accountability.Signed) []byte {
	buf = s.Stmt.AppendEncoding(buf)
	buf = appendUint32(buf, uint32(s.Signer))
	buf = appendUint32(buf, uint32(len(s.Sig)))
	return append(buf, s.Sig...)
}

// ReadSigned consumes one signed statement from r and returns the rest.
// The signature is copied out, so a statement kept in a log does not pin
// the buffer it arrived in; an empty one decodes as nil.
func ReadSigned(r []byte) (accountability.Signed, []byte, error) {
	const stmtLen = accountability.EncodedLen
	if len(r) < signedMinLen {
		return accountability.Signed{}, nil, ErrTruncated
	}
	stmt, err := accountability.DecodeStatement(r[:stmtLen])
	if err != nil {
		return accountability.Signed{}, nil, err
	}
	signer := types.ReplicaID(binary.BigEndian.Uint32(r[stmtLen:]))
	sigLen := binary.BigEndian.Uint32(r[stmtLen+4:])
	r = r[stmtLen+8:]
	if sigLen > maxCount || uint32(len(r)) < sigLen {
		return accountability.Signed{}, nil, ErrTruncated
	}
	var sig []byte
	if sigLen > 0 {
		sig = append(make([]byte, 0, sigLen), r[:sigLen]...)
	}
	return accountability.Signed{Stmt: stmt, Signer: signer, Sig: sig}, r[sigLen:], nil
}

// EncodePoFs serializes a proof-of-fraud set for an exclusion proposal.
func EncodePoFs(pofs []accountability.PoF) ([]byte, error) {
	buf := appendUint32(nil, uint32(len(pofs)))
	for _, p := range pofs {
		buf = appendUint32(buf, uint32(p.Culprit))
		buf = AppendSigned(buf, p.A)
		buf = AppendSigned(buf, p.B)
	}
	return buf, nil
}

// DecodePoFs parses an exclusion proposal.
func DecodePoFs(payload []byte) ([]accountability.PoF, error) {
	if len(payload) < 4 {
		return nil, ErrTruncated
	}
	count := binary.BigEndian.Uint32(payload)
	r := payload[4:]
	// A PoF is at least a culprit ID plus two minimal signed statements.
	const minPoF = 4 + 2*signedMinLen
	if count > maxCount || int(count) > len(r)/minPoF {
		return nil, fmt.Errorf("%w: %d pofs in %d bytes", ErrTruncated, count, len(r))
	}
	pofs := make([]accountability.PoF, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(r) < 4 {
			return nil, ErrTruncated
		}
		culprit := types.ReplicaID(binary.BigEndian.Uint32(r))
		r = r[4:]
		var p accountability.PoF
		var err error
		p.Culprit = culprit
		if p.A, r, err = ReadSigned(r); err != nil {
			return nil, fmt.Errorf("wire: pof %d: %w", i, err)
		}
		if p.B, r, err = ReadSigned(r); err != nil {
			return nil, fmt.Errorf("wire: pof %d: %w", i, err)
		}
		pofs = append(pofs, p)
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, len(r))
	}
	return pofs, nil
}

// EncodeReplicas serializes a replica list for an inclusion proposal.
func EncodeReplicas(ids []types.ReplicaID) ([]byte, error) {
	buf := appendUint32(make([]byte, 0, 4+4*len(ids)), uint32(len(ids)))
	for _, id := range ids {
		buf = appendUint32(buf, uint32(id))
	}
	return buf, nil
}

// DecodeReplicas parses an inclusion proposal.
func DecodeReplicas(payload []byte) ([]types.ReplicaID, error) {
	if len(payload) < 4 {
		return nil, ErrTruncated
	}
	count := binary.BigEndian.Uint32(payload)
	if count > maxCount || uint32(len(payload)-4) != 4*count {
		return nil, fmt.Errorf("%w: %d ids in %d bytes", ErrTruncated, count, len(payload)-4)
	}
	ids := make([]types.ReplicaID, count)
	for i := range ids {
		ids[i] = types.ReplicaID(binary.BigEndian.Uint32(payload[4+4*i:]))
	}
	return ids, nil
}

func appendUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
