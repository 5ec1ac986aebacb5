// Package wire holds the module's binary layouts that sit below the
// protocol types, and the one reader every layout is decoded with:
//
//   - Reader and its Append counterparts (reader.go): the field types a
//     layout is built from (integers, digests, flags, byte strings,
//     varints, counted lists, maps in ascending key order). Each peer
//     message type encodes itself beside its type with AppendBinary and is
//     read back by a Read function of its own package; internal/transport
//     only numbers the types and frames them.
//   - Transaction batches, the consensus proposal payload (this file), and
//     replica lists, the inclusion proposal payload.
//   - The store's record frames and checkpoints, and the
//     catch-up sync request and response (record.go).
//
// Integers are big-endian throughout.
//
// Batch layout:
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

	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// Batch payload magic: format identifier plus version.
var batchMagic = [4]byte{'Z', 'L', 'B', '1'}

// ErrBadMagic marks a payload that does not open with its layout's magic.
var ErrBadMagic = errors.New("wire: payload does not open with its format's magic")

// EncodeBatch serializes transactions into a consensus proposal payload.
func EncodeBatch(txs []*utxo.Transaction) ([]byte, error) {
	size := 4 + 4
	for _, tx := range txs {
		size += 4 + tx.CanonicalSize()
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(txs)))
	for _, tx := range txs {
		enc := tx.Canonical()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(enc)))
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
	r := NewReader(payload[4:])
	// Each transaction costs at least a 4-byte length prefix: Count caps
	// the preallocation by what the buffer could possibly hold, so a
	// corrupt count cannot trigger a huge allocation.
	count := r.Count(4)
	if r.err != nil {
		return nil, r.err
	}
	txs := make([]*utxo.Transaction, 0, count)
	for i := 0; i < count; i++ {
		enc := r.Take(int(r.U32()))
		if r.err != nil {
			return nil, r.err
		}
		tx, err := utxo.DecodeTransaction(enc)
		if err != nil {
			return nil, fmt.Errorf("wire: transaction %d: %w", i, err)
		}
		txs = append(txs, tx)
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
// its mempool admitted, instead of a second decoded set, and
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
	// the same decision, and the verification workers (internal/pipeline)
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

// AppendReplicas appends a replica list, the inclusion proposal payload:
// count u32 and the IDs, u32 each.
func AppendReplicas(b []byte, ids []types.ReplicaID) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = AppendReplicaID(b, id)
	}
	return b
}

// ReadReplicas reads AppendReplicas' layout.
func ReadReplicas(r *Reader) []types.ReplicaID {
	ids := make([]types.ReplicaID, r.Count(4))
	for i := range ids {
		ids[i] = r.ReplicaID()
	}
	return ids
}
