// Package types holds the primitive identifiers and value types shared by
// every ZLB subsystem: replica identities, consensus instance indices,
// digests and amounts. Keeping them in one dependency-free package lets the
// protocol packages (rbc, bincon, sbc, asmr, ...) exchange values without
// import cycles.
package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// ReplicaID identifies a replica (a permissioned consensus participant).
// IDs are assigned by the membership layer and are stable for the lifetime
// of the replica, including across exclusions (an excluded replica keeps
// its ID; it is simply no longer part of the committee).
type ReplicaID uint32

// NilReplica is the zero ReplicaID, reserved as "no replica".
const NilReplica ReplicaID = 0

// String implements fmt.Stringer.
func (r ReplicaID) String() string { return fmt.Sprintf("r%d", uint32(r)) }

// Instance is the index k of a consensus instance Γk in the ASMR sequence.
type Instance uint64

// String implements fmt.Stringer.
func (i Instance) String() string { return fmt.Sprintf("Γ%d", uint64(i)) }

// Round is a round number inside one binary consensus instance.
type Round uint32

// Digest is a 32-byte SHA-256 digest used to identify proposals, blocks and
// transactions.
type Digest [32]byte

// ZeroDigest is the all-zero digest, reserved as "no value".
var ZeroDigest Digest

// Hash computes the SHA-256 digest of data.
func Hash(data []byte) Digest { return sha256.Sum256(data) }

// HashConcat hashes the concatenation of the given byte slices with
// length-prefix framing, so that ("ab","c") and ("a","bc") differ.
func HashConcat(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// String returns the first 8 hex characters, enough for logs.
func (d Digest) String() string { return hex.EncodeToString(d[:4]) }

// Hex returns the full hex encoding.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// Less orders digests lexicographically; used for the deterministic
// reconciliation order of merged transactions (§4.1 ⑤).
func (d Digest) Less(other Digest) bool { return d.Compare(other) < 0 }

// Compare orders digests byte by byte, returning -1, 0 or +1: the order
// Less defines, and the sort order of a checkpoint's sets.
func (d Digest) Compare(other Digest) int { return bytes.Compare(d[:], other[:]) }

// Amount is a coin amount in the smallest unit.
type Amount uint64

// SortReplicas sorts a slice of replica IDs ascending, in place, and
// returns it. Deterministic iteration over replica sets is required for
// reproducible simulation runs.
func SortReplicas(ids []ReplicaID) []ReplicaID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ReplicaSet is a set of replica IDs with deterministic iteration order.
type ReplicaSet struct {
	members map[ReplicaID]struct{}
}

// NewReplicaSet builds a set containing the given IDs.
func NewReplicaSet(ids ...ReplicaID) *ReplicaSet {
	s := &ReplicaSet{members: make(map[ReplicaID]struct{}, len(ids))}
	for _, id := range ids {
		s.members[id] = struct{}{}
	}
	return s
}

// Add inserts id, reporting whether it was absent.
func (s *ReplicaSet) Add(id ReplicaID) bool {
	if _, ok := s.members[id]; ok {
		return false
	}
	s.members[id] = struct{}{}
	return true
}

// Remove deletes id, reporting whether it was present.
func (s *ReplicaSet) Remove(id ReplicaID) bool {
	if _, ok := s.members[id]; !ok {
		return false
	}
	delete(s.members, id)
	return true
}

// Contains reports membership.
func (s *ReplicaSet) Contains(id ReplicaID) bool {
	_, ok := s.members[id]
	return ok
}

// Len returns the set cardinality.
func (s *ReplicaSet) Len() int { return len(s.members) }

// Sorted returns the members in ascending order.
func (s *ReplicaSet) Sorted() []ReplicaID {
	out := make([]ReplicaID, 0, len(s.members))
	for id := range s.members {
		out = append(out, id)
	}
	return SortReplicas(out)
}

// Clone returns an independent copy.
func (s *ReplicaSet) Clone() *ReplicaSet {
	c := &ReplicaSet{members: make(map[ReplicaID]struct{}, len(s.members))}
	for id := range s.members {
		c.members[id] = struct{}{}
	}
	return c
}

// Union adds every member of other to s.
func (s *ReplicaSet) Union(other *ReplicaSet) {
	for id := range other.members {
		s.members[id] = struct{}{}
	}
}

// Quorum returns ⌈2n/3⌉ for committee size n: the number of signatures a
// certificate must carry (paper §2.3).
func Quorum(n int) int { return (2*n + 2) / 3 }

// FaultThreshold returns ⌈n/3⌉, the number of PoFs on distinct replicas
// required to start a membership change (paper Alg. 1, fd).
func FaultThreshold(n int) int { return (n + 2) / 3 }

// MaxClassicFaults returns ⌈n/3⌉ − 1, the classic BFT tolerance below
// which consensus instances must agree (Def. 3, Agreement).
func MaxClassicFaults(n int) int { return FaultThreshold(n) - 1 }

// BVRelayThreshold returns the t+1 echo-amplification threshold of
// BV-broadcast, with t the classic fault bound.
func BVRelayThreshold(n int) int { return MaxClassicFaults(n) + 1 }
