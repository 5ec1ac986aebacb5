package crypto

import (
	"crypto/ed25519"
	"sync"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519"
)

// walletKeys bounds the wallet-key cache: how many keys it holds a table
// for, and how many keys accepted once it remembers. At 7.5 KiB a table
// (edwards25519.WalletShape, 64 affine points) that is ≤ 7.5 MiB per
// registry. It is a constant, not a knob.
const walletKeys = 1024

// walletTableBytes is the size of one wallet-key table's points.
var walletTableBytes = edwards25519.WalletShape.Bytes()

// KeyCacheStats is what a registry's wallet-key cache holds and did.
type KeyCacheStats struct {
	// Tables is how many wallet-key tables the cache holds, and Bytes
	// what their points take: Tables × one table's bytes.
	Tables int `json:"tables"`
	Bytes  int `json:"bytes"`
	// Hits counts checks under an unregistered key that found its table,
	// and Misses those that did not; Builds the tables built, each at its
	// key's second accepted check; Evictions the tables dropped, oldest
	// first, to make room for a new one.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Builds    uint64 `json:"builds"`
	Evictions uint64 `json:"evictions"`
}

// keyCache holds tables for the ed25519 keys a registry does not know,
// wallet keys that sign payment after payment. Only a check that accepted
// counts as a sighting of its key, and the second such sighting builds the
// key's table, outside the lock: a key used once never gets one, and
// signatures that fail their check build nothing. The keys accepted once
// are a set of at most walletKeys, emptied when full. The tables are at
// most walletKeys, keyed by the exact 32 key bytes and evicted in the
// order they came in. The zero value is an empty cache; it is safe for
// concurrent use.
type keyCache struct {
	mu     sync.Mutex
	tables map[[32]byte]*edwards25519.FixedTable
	order  [][32]byte // the keys of tables, a ring once full; next is the oldest
	next   int
	seen   map[[32]byte]struct{}
	stats  KeyCacheStats
}

// table returns pub's cached table, or nil.
func (c *keyCache) table(pub PublicKey) *edwards25519.FixedTable {
	if len(pub) != ed25519.PublicKeySize {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables[[32]byte(pub)]
	if t != nil {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return t
}

// accepted records a check that accepted a signature by pub, a 32-byte
// key, without a table: the key's first such check is remembered, its
// second builds and admits its table.
func (c *keyCache) accepted(pub PublicKey) {
	key := [32]byte(pub)
	c.mu.Lock()
	if c.tables[key] != nil { // built by a concurrent check
		c.mu.Unlock()
		return
	}
	if _, again := c.seen[key]; !again {
		if c.seen == nil || len(c.seen) >= walletKeys {
			c.seen = make(map[[32]byte]struct{})
		}
		c.seen[key] = struct{}{}
		c.mu.Unlock()
		return
	}
	delete(c.seen, key)
	c.mu.Unlock()

	t := newKeyTable(pub, edwards25519.WalletShape)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tables[key] != nil {
		return
	}
	if c.tables == nil {
		c.tables = make(map[[32]byte]*edwards25519.FixedTable)
	}
	if len(c.order) < walletKeys {
		c.order = append(c.order, key)
	} else {
		delete(c.tables, c.order[c.next])
		c.stats.Evictions++
		c.order[c.next] = key
		c.next = (c.next + 1) % walletKeys
	}
	c.tables[key] = t
	c.stats.Builds++
}

// snapshot returns the cache's statistics.
func (c *keyCache) snapshot() KeyCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Tables = len(c.tables)
	s.Bytes = s.Tables * walletTableBytes
	return s
}
