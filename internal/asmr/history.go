package asmr

import (
	"errors"

	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// History keeps the decisions of retired instances out of the replica's
// state, by chain index. When an instance retires the replica puts its
// decision there and keeps only the instance's attempt and digest; every
// later reader of that decision (records, a late pull, the late-conflict
// arm of absorb, Committed), or of an instance restored from disk, reads
// it back through Get. A History is used from the replica's event loop
// only. NewMemHistory is the default; a deployed node's is its store, or
// nothing (internal/node).
type History interface {
	// Put keeps d, the decision of instance k. On an error the replica
	// keeps d itself.
	Put(k uint64, d *sbc.Decision) error
	// Get reads back the decision of instance k, or fails with an error
	// wrapping ErrNotHeld when the history does not hold it. The replica
	// holds what it returns against the instance's digest and serves
	// nothing for the instance when the two differ or Get fails.
	Get(k uint64) (*sbc.Decision, error)
	// Bytes is what the history holds.
	Bytes() int64
}

// ErrNotHeld is a history's answer for a decision it dropped, pruned or
// never held; Stats.HistoryPruned counts these reads.
var ErrNotHeld = errors.New("asmr: the history does not hold this decision")

// memHistory keeps the decisions themselves, so that what it returns is
// what was put, pointer for pointer.
type memHistory struct {
	decisions map[uint64]*sbc.Decision
	bytes     int64
}

// NewMemHistory returns a History that keeps decisions in memory. A
// replica whose Config names no History gets one.
func NewMemHistory() History { return &memHistory{decisions: make(map[uint64]*sbc.Decision)} }

func (h *memHistory) Put(k uint64, d *sbc.Decision) error {
	h.decisions[k] = d
	h.bytes += int64(d.PayloadBytes())
	return nil
}

func (h *memHistory) Get(k uint64) (*sbc.Decision, error) {
	if d, ok := h.decisions[k]; ok {
		return d, nil
	}
	return nil, ErrNotHeld
}

func (h *memHistory) Bytes() int64 { return h.bytes }

// decisionOf returns what st decided: the decision it holds, or the one
// its history reads back. It is nil when the history does not hold it,
// and when the read fails or returns another decision than the one st's
// digest names, payloads included; both are counted, apart.
func (r *Replica) decisionOf(st *instState) *sbc.Decision {
	if st.decision != nil || !st.decided {
		return st.decision
	}
	d, err := r.cfg.History.Get(st.k)
	switch {
	case errors.Is(err, ErrNotHeld):
		r.historyPruned++
		return nil
	case err != nil || d == nil || !intact(d, st.digest):
		r.historyErrors++
		return nil
	}
	return d
}

// intact reports whether d is the decision digest names and carries the
// payloads its proposal digests name.
func intact(d *sbc.Decision, digest types.Digest) bool {
	if d.Digest() != digest {
		return false
	}
	for _, p := range d.Proposals {
		if types.Hash(p.Payload) != p.Digest {
			return false
		}
	}
	return true
}

// keep records st's decision d in the replica's state.
func (r *Replica) keep(st *instState, d *sbc.Decision) {
	st.decision, st.digest = d, d.Digest()
	r.decisionBytes += int64(d.PayloadBytes())
}

// putAway hands a retiring instance's decision to the history. A failed
// write is counted and leaves the decision where it was.
func (r *Replica) putAway(st *instState) {
	if st.decision == nil {
		return
	}
	if err := r.cfg.History.Put(st.k, st.decision); err != nil {
		r.historyErrors++
		return
	}
	r.decisionBytes -= int64(st.decision.PayloadBytes())
	st.decision = nil
}
