package loadgen

import (
	"math"
	"sort"
	"time"
)

// NotCommitted is the commit time Attribute gives a transaction no poll
// accounts for.
const NotCommitted = time.Duration(-1)

// Attribute turns count observations into per-transaction commit times.
// The node sends no per-transaction commit notice, so the k-th
// transaction that entered a pool (submission order, lost ones skipped)
// counts as committed at the first poll whose counter reached base+k+1.
//
// This is exact for broadcast submission: every replica's pool is the
// same FIFO and a superblock is the union of prefixes of it, that is a
// prefix. For sharded submission the pools are disjoint and a superblock
// takes a prefix of each, so a transaction may be credited up to one
// block away from the block that carried it.
func Attribute(lost []bool, base uint64, polls []Poll) []time.Duration {
	out := make([]time.Duration, len(lost))
	need := base // counter value that commits the current transaction
	p := 0
	for i := range out {
		if lost[i] {
			out[i] = NotCommitted
			continue
		}
		need++
		for p < len(polls) && polls[p].Applied < need {
			p++
		}
		if p == len(polls) {
			out[i] = NotCommitted
			continue
		}
		out[i] = polls[p].At
	}
	return out
}

// AppliedAt returns the last counter value observed at or before t.
func AppliedAt(base uint64, polls []Poll, t time.Duration) uint64 {
	i := sort.Search(len(polls), func(i int) bool { return polls[i].At > t })
	if i == 0 {
		return base
	}
	return polls[i-1].Applied
}

// Latencies returns commit-minus-send for every committed transaction
// whose send instant lies in [from, to), sorted ascending.
func Latencies(sentAt, committedAt []time.Duration, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for i, at := range sentAt {
		if at >= from && at < to && committedAt[i] != NotCommitted {
			out = append(out, committedAt[i]-at)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample, and zero for an empty one.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Millis converts a duration to fractional milliseconds.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
