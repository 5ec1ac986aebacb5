// Package adversary orchestrates the paper's two coalition attacks (§B):
//
//   - the reliable broadcast attack: deceitful proposers send different
//     proposals to different partitions of honest replicas, and deceitful
//     echoers back each partition's variant, so distinct proposals are
//     delivered — and decided — at the same slot;
//   - the binary consensus attack: deceitful replicas withhold their
//     proposal from all but one partition and then vote both binary values
//     (signed AUX equivocation) so that one partition decides 1 while the
//     others decide 0 for the same slot.
//
// A Coalition is shared, in-process state standing in for the attackers'
// out-of-band coordination channel. The deceitful replicas communicate
// normally with every partition (paper §5.2); only honest-to-honest links
// across partitions carry the injected delay — use PartitionOf with
// latency.PartitionOverlay to reproduce that network.
package adversary

import (
	"fmt"
	"sync"

	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// Attack selects the coalition strategy.
type Attack int

// The attack strategies of §B.
const (
	// AttackNone makes the coalition behave honestly.
	AttackNone Attack = iota + 1
	// AttackBinary is the binary consensus attack.
	AttackBinary
	// AttackRBCast is the reliable broadcast attack.
	AttackRBCast
)

// String implements fmt.Stringer.
func (a Attack) String() string {
	switch a {
	case AttackNone:
		return "none"
	case AttackBinary:
		return "binary-consensus"
	case AttackRBCast:
		return "reliable-broadcast"
	default:
		return fmt.Sprintf("attack(%d)", int(a))
	}
}

// DeceitfulCount is d = ⌈5n/9⌉ − 1, the coalition size used throughout
// the paper's attack experiments (Fig. 4–6): a majority, yet one short
// of the 5n/9 confirmation bound.
func DeceitfulCount(n int) int { return (5*n+8)/9 - 1 }

// MaxBranches returns the maximum number of fork branches a deceitful
// coalition can sustain: a ≤ (n−(f−q)) / (⌈2n/3⌉−(f−q)) (paper §B, citing
// Zeno's conflicting-histories bound). It returns 1 when the coalition is
// too small to fork.
func MaxBranches(n, deceitful int) int {
	den := types.Quorum(n) - deceitful
	if den <= 0 {
		// The coalition alone reaches quorum; branches are bounded only by
		// the honest partition count (one honest replica per branch).
		return n - deceitful
	}
	a := (n - deceitful) / den
	if a < 1 {
		return 1
	}
	return a
}

// Coalition is the shared attack plan: who is deceitful, how honest
// replicas are partitioned, and (for the rbcast attack) which proposal
// variant belongs to which partition.
type Coalition struct {
	Attack     Attack
	Deceitful  []types.ReplicaID
	Partitions [][]types.ReplicaID

	deceitfulSet map[types.ReplicaID]bool
	partOf       map[types.ReplicaID]int
	// mu guards digestPartition, the coalition's one table shared across
	// replicas: a deceitful proposer registers variants (inside its
	// BatchSource callback) and deceitful echoers of other slots consult
	// them, whichever goroutines drive those replicas. The values read
	// are deterministic — an echoer can only look up digests it has
	// already received in messages, so their variants are registered
	// before — the lock only protects the map internals.
	mu sync.RWMutex
	// digestPartition maps an rbcast proposal-variant digest to its target
	// partition: the attackers' out-of-band coordination.
	digestPartition map[types.Digest]int
	// targetPart maps a deceitful proposer to the partition that should
	// decide its withheld/forked proposal. Read-only after construction.
	targetPart map[types.ReplicaID]int
}

// NewCoalition builds the attack plan: the first `deceitful` committee
// members (by ID order) form the coalition and the remaining honest
// replicas are split round-robin into `branches` partitions. Branches is
// clamped to MaxBranches and to the honest count.
func NewCoalition(attack Attack, members []types.ReplicaID, deceitful, branches int) *Coalition {
	sorted := make([]types.ReplicaID, len(members))
	copy(sorted, members)
	types.SortReplicas(sorted)
	if deceitful > len(sorted) {
		deceitful = len(sorted)
	}
	c := &Coalition{
		Attack:          attack,
		Deceitful:       sorted[:deceitful],
		deceitfulSet:    make(map[types.ReplicaID]bool, deceitful),
		partOf:          make(map[types.ReplicaID]int),
		digestPartition: make(map[types.Digest]int),
		targetPart:      make(map[types.ReplicaID]int),
	}
	for _, id := range c.Deceitful {
		c.deceitfulSet[id] = true
	}
	honest := sorted[deceitful:]
	if max := MaxBranches(len(sorted), deceitful); branches > max {
		branches = max
	}
	if branches > len(honest) {
		branches = len(honest)
	}
	if branches < 1 {
		branches = 1
	}
	c.Partitions = make([][]types.ReplicaID, branches)
	for i, id := range honest {
		p := i % branches
		c.Partitions[p] = append(c.Partitions[p], id)
		c.partOf[id] = p
	}
	for i, id := range c.Deceitful {
		c.targetPart[id] = i % branches
	}
	return c
}

// IsDeceitful reports coalition membership.
func (c *Coalition) IsDeceitful(id types.ReplicaID) bool { return c.deceitfulSet[id] }

// PartitionOf returns the honest partition of id, or -1 for deceitful or
// unknown replicas — the shape latency.PartitionOverlay expects, so
// deceitful replicas talk to every partition at full speed.
func (c *Coalition) PartitionOf(id types.ReplicaID) int {
	if p, ok := c.partOf[id]; ok {
		return p
	}
	return -1
}

// Branches returns the number of honest partitions.
func (c *Coalition) Branches() int { return len(c.Partitions) }

// RegisterVariant records that an rbcast proposal variant (by digest)
// targets a partition; the equivocating broadcaster calls it when it
// builds its per-partition payloads, and deceitful echoers use it to echo
// the right digest to the right partition.
func (c *Coalition) RegisterVariant(d types.Digest, partition int) {
	c.mu.Lock()
	c.digestPartition[d] = partition
	c.mu.Unlock()
}

// variantPartition looks up a registered variant's target partition.
func (c *Coalition) variantPartition(d types.Digest) (int, bool) {
	c.mu.RLock()
	p, ok := c.digestPartition[d]
	c.mu.RUnlock()
	return p, ok
}

// VariantPayload derives the per-partition payload variant for the rbcast
// attack: the base payload with a partition tag appended, registered for
// echo coordination. Applications needing semantically conflicting
// variants (double-spending transaction batches) build their own variants
// and call RegisterVariant directly.
func (c *Coalition) VariantPayload(base []byte, partition int) []byte {
	v := make([]byte, 0, len(base)+1)
	v = append(v, base...)
	v = append(v, byte(partition))
	c.RegisterVariant(types.Hash(v), partition)
	return v
}

// SBCAdversary returns the per-replica attack wiring for the main-chain
// SBC instances, or nil when self is not in the coalition (or no attack).
func (c *Coalition) SBCAdversary(self types.ReplicaID) *sbc.Adversary {
	if !c.deceitfulSet[self] || c.Attack == AttackNone {
		return nil
	}
	switch c.Attack {
	case AttackBinary:
		return &sbc.Adversary{
			// The reliable broadcast itself is honest: every partition
			// receives every proposal, so each partition can commit its
			// superblock without cross-partition traffic. Only the binary
			// votes are split.
			Bin: func(slot types.ReplicaID) *bincon.Equivocator {
				return c.binaryAttackBin(self, slot)
			},
		}
	case AttackRBCast:
		return &sbc.Adversary{
			RBC: c.rbcastAttackRBC(self),
			RBCFor: func(slot types.ReplicaID) *rbc.Equivocator {
				if !c.deceitfulSet[slot] {
					return nil
				}
				// Echo each partition's variant toward it for every
				// coalition slot; variant digests are learned from the
				// echoes observed on the wire.
				return &rbc.Equivocator{EchoDigestFor: c.echoForPartition}
			},
			Bin: func(types.ReplicaID) *bincon.Equivocator {
				return &bincon.Equivocator{SuppressDecide: true}
			},
		}
	default:
		return nil
	}
}

// binaryAttackBin splits the signed votes on slots owned by coalition
// members (paper §B attack 2): the slot owner's target partition is
// pushed toward 1, every other partition toward 0. The coalition's
// EST(0) messages alone exceed the t+1 relay threshold, so the victim
// partitions amplify 0 into their bin_values and vote AUX(0) before the
// target partition's 1-votes can cross the injected delay. Slots owned by
// honest replicas are voted honestly, but DECIDE forwarding is suppressed
// everywhere so the coalition never carries incriminating certificates
// across partitions itself.
func (c *Coalition) binaryAttackBin(self, slot types.ReplicaID) *bincon.Equivocator {
	if !c.deceitfulSet[slot] {
		return &bincon.Equivocator{SuppressDecide: true}
	}
	target := c.targetPart[slot]
	valueFor := func(to types.ReplicaID) bool {
		if c.deceitfulSet[to] {
			return true
		}
		return c.PartitionOf(to) == target
	}
	return &bincon.Equivocator{
		EstFor: func(to types.ReplicaID, _ types.Round) (bool, bool) {
			return valueFor(to), true
		},
		AuxFor: func(to types.ReplicaID, _ types.Round) (bool, bool) {
			return valueFor(to), true
		},
		CoordFor: func(to types.ReplicaID, _ types.Round) (bool, bool) {
			return valueFor(to), true
		},
		SuppressDecide: true,
	}
}

// rbcastAttackRBC equivocates on the proposal itself: each honest
// partition receives (and is echoed) its own variant.
func (c *Coalition) rbcastAttackRBC(self types.ReplicaID) *rbc.Equivocator {
	return &rbc.Equivocator{
		InitFor:       func(to types.ReplicaID) []byte { return nil }, // bound later
		EchoDigestFor: c.echoForPartition,
	}
}

// echoForPartition picks which digest a deceitful replica echoes (and
// readies) toward a recipient: the variant registered for the recipient's
// partition, the partition-0 variant for fellow coalition members, and
// honest behaviour for digests that are not attack variants.
func (c *Coalition) echoForPartition(to types.ReplicaID, seen []types.Digest) (types.Digest, bool) {
	if len(seen) == 0 {
		return types.ZeroDigest, false
	}
	if c.deceitfulSet[to] {
		// Fellow coalition members echo a consistent variant: the one
		// registered for the lowest partition, else the first seen.
		best := -1
		var bestD types.Digest
		for _, d := range seen {
			if dp, known := c.variantPartition(d); known && (best == -1 || dp < best) {
				best = dp
				bestD = d
			}
		}
		if best >= 0 {
			return bestD, true
		}
		return seen[0], true
	}
	p := c.PartitionOf(to)
	for _, d := range seen {
		if dp, known := c.variantPartition(d); known && dp == p {
			return d, true
		}
	}
	// Unknown digest (honest slot): echo honestly.
	if _, known := c.variantPartition(seen[0]); !known {
		return seen[0], true
	}
	return types.ZeroDigest, false
}

// BindRBCastPayload finalizes the rbcast equivocator with per-partition
// payload variants derived from the base payload.
func (c *Coalition) BindRBCastPayload(self types.ReplicaID, adv *sbc.Adversary, base []byte) {
	if adv == nil || adv.RBC == nil {
		return
	}
	variants := make([][]byte, len(c.Partitions))
	for p := range c.Partitions {
		variants[p] = c.VariantPayload(base, p)
	}
	adv.RBC.InitFor = func(to types.ReplicaID) []byte {
		if c.deceitfulSet[to] {
			return variants[0]
		}
		if p := c.PartitionOf(to); p >= 0 {
			return variants[p]
		}
		return variants[0]
	}
}
