package crypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519"
	"github.com/zeroloss/zlb/internal/types"
)

// Registry is the public-key infrastructure the paper assumes (§3.2): a
// mapping from replica identities to public keys, common to all replicas.
// It is safe for concurrent use; the TCP transport verifies signatures
// from multiple connection goroutines.
type Registry struct {
	mu     sync.RWMutex
	kind   SchemeKind
	keys   map[types.ReplicaID]PublicKey
	seeds  map[string][]byte                   // sim-scheme seeds, keyed by string(pub)
	tables map[string]*edwards25519.FixedTable // ed25519 key tables, keyed by string(pub)
	// wallets holds small tables for the ed25519 keys not registered here
	// that are checked more than once.
	wallets keyCache
}

// NewRegistry creates an empty registry for the given scheme kind.
func NewRegistry(kind SchemeKind) *Registry {
	return &Registry{
		kind:   kind,
		keys:   make(map[types.ReplicaID]PublicKey),
		seeds:  make(map[string][]byte),
		tables: make(map[string]*edwards25519.FixedTable),
	}
}

// Kind returns the scheme kind this registry serves.
func (r *Registry) Kind() SchemeKind { return r.kind }

// ErrKeyMismatch is returned when an identity is re-registered with a
// different public key. A silent key swap mid-run would let a culprit
// dodge PoF attribution: statements signed under the old key would stop
// verifying against the registry, so the equivocation evidence dies.
var ErrKeyMismatch = errors.New("crypto: identity already registered with a different key")

// Register associates id with the pair's public key. Registering the sim
// scheme also records the seed so verification can recompute the MAC;
// registering an ed25519 key builds the table every check under it uses
// (ed25519.go). Re-registering an identity with the same key is an
// idempotent no-op; re-registering with a different key fails with
// ErrKeyMismatch.
func (r *Registry) Register(id types.ReplicaID, kp *KeyPair) error {
	if kp.kind != r.kind {
		return ErrWrongScheme
	}
	var table *edwards25519.FixedTable
	if kp.kind == SchemeEd25519 {
		table = newKeyTable(kp.pub, edwards25519.KeyShape)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.keys[id]; ok {
		if !bytes.Equal(prev, kp.pub) {
			return fmt.Errorf("%w: %v", ErrKeyMismatch, id)
		}
		return nil
	}
	r.keys[id] = kp.pub
	if kp.kind == SchemeSim {
		r.seeds[string(kp.pub)] = kp.simSeed
	}
	if table != nil {
		r.tables[string(kp.pub)] = table
	}
	return nil
}

// PublicKeyOf returns the registered key for id.
func (r *Registry) PublicKeyOf(id types.ReplicaID) (PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pk, ok := r.keys[id]
	return pk, ok
}

// Size returns the number of registered identities.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

func (r *Registry) simSeed(pub PublicKey) ([]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.seeds[string(pub)]
	return s, ok
}

// seedOf resolves an identity straight to its sim seed (one lock, one
// lookup chain) for the batch fast path.
func (r *Registry) seedOf(id types.ReplicaID) ([]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pk, ok := r.keys[id]
	if !ok {
		return nil, false
	}
	s, ok := r.seeds[string(pk)]
	return s, ok
}

// keyTable returns the table registered for an ed25519 key, else the
// wallet-key cache's table for it, or nil when neither has one (or r is
// nil).
func (r *Registry) keyTable(pub PublicKey) *edwards25519.FixedTable {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.tables[string(pub)]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	return r.wallets.table(pub)
}

// publicKeys resolves a batch of identities to their keys and key tables
// under one read lock; unknown identities yield nil entries.
func (r *Registry) publicKeys(ids []types.ReplicaID) ([]PublicKey, []*edwards25519.FixedTable) {
	pubs := make([]PublicKey, len(ids))
	tables := make([]*edwards25519.FixedTable, len(ids))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, id := range ids {
		pubs[i] = r.keys[id]
		tables[i] = r.tables[string(pubs[i])]
	}
	return pubs, tables
}

// Signer bundles a replica's identity, key pair, scheme and registry: the
// signing context handed to every protocol component of one replica.
type Signer struct {
	id     types.ReplicaID
	kp     *KeyPair
	scheme Scheme
	reg    *Registry
}

// NewSigner builds a Signer. The key pair must already be registered.
func NewSigner(id types.ReplicaID, kp *KeyPair, scheme Scheme, reg *Registry) *Signer {
	return &Signer{id: id, kp: kp, scheme: scheme, reg: reg}
}

// ID returns the replica identity this signer signs as.
func (s *Signer) ID() types.ReplicaID { return s.id }

// Sign signs the digest as this replica.
func (s *Signer) Sign(digest types.Digest) (Signature, error) {
	return s.scheme.Sign(s.kp, digest)
}

// Verify checks a signature attributed to signer over digest.
func (s *Signer) Verify(signer types.ReplicaID, digest types.Digest, sig Signature) bool {
	pub, ok := s.reg.PublicKeyOf(signer)
	if !ok {
		return false
	}
	return s.scheme.Verify(pub, digest, sig)
}

// Registry exposes the PKI for account-level checks.
func (s *Signer) Registry() *Registry { return s.reg }

// Scheme exposes the underlying scheme.
func (s *Signer) Scheme() Scheme { return s.scheme }

// DeterministicRand is an io.Reader producing a reproducible stream from a
// seed, for generating whole clusters of keys in tests and simulations.
type DeterministicRand struct {
	counter uint64
	seed    [32]byte
	buf     []byte
}

// NewDeterministicRand seeds the stream.
func NewDeterministicRand(seed int64) *DeterministicRand {
	d := &DeterministicRand{}
	binary.BigEndian.PutUint64(d.seed[:8], uint64(seed))
	return d
}

// Read implements io.Reader; it never fails.
func (d *DeterministicRand) Read(p []byte) (int, error) {
	for i := range p {
		if len(d.buf) == 0 {
			var block [40]byte
			copy(block[:32], d.seed[:])
			binary.BigEndian.PutUint64(block[32:], d.counter)
			d.counter++
			sum := types.Hash(block[:])
			d.buf = append(d.buf[:0], sum[:]...)
		}
		p[i] = d.buf[0]
		d.buf = d.buf[1:]
	}
	return len(p), nil
}

// GenerateCluster creates n key pairs (replica IDs 1..n), registers them,
// and returns one Signer per replica. It is the standard way tests and
// simulations bootstrap a committee PKI.
func GenerateCluster(kind SchemeKind, n int, seed int64) ([]*Signer, *Registry, error) {
	reg := NewRegistry(kind)
	scheme, err := NewScheme(kind, reg)
	if err != nil {
		return nil, nil, err
	}
	rand := NewDeterministicRand(seed)
	signers := make([]*Signer, 0, n)
	for i := 1; i <= n; i++ {
		kp, err := scheme.GenerateKey(rand)
		if err != nil {
			return nil, nil, fmt.Errorf("generating key %d: %w", i, err)
		}
		id := types.ReplicaID(i)
		if err := reg.Register(id, kp); err != nil {
			return nil, nil, err
		}
		signers = append(signers, NewSigner(id, kp, scheme, reg))
	}
	return signers, reg, nil
}
