package asmr

import (
	"errors"

	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// History keeps the decisions of retired instances out of the replica's
// state. When an instance retires the replica puts its decision there and
// keeps only the reference Put returned, beside the instance's attempt and
// digest; every later reader of that decision (records, a late pull, the
// late-conflict arm of absorb, Committed) reads it back through Get. A
// History is used from the replica's event loop only.
//
// Two implementations ship: NewMemHistory, the default, which keeps the
// decision objects themselves (the simulator and the tests), and the
// deployed node's file of encoded decisions (internal/transport).
type History interface {
	// Put keeps d and returns where it is. On an error the replica keeps
	// d itself.
	Put(d *sbc.Decision) (HistoryRef, error)
	// Get reads back the decision Put kept at ref. The replica holds what
	// it returns against the instance's digest and serves nothing for the
	// instance when the two differ or Get fails.
	Get(ref HistoryRef) (*sbc.Decision, error)
	// Bytes is what the history holds: the bytes of its file, or the
	// payload bytes of the decisions it keeps in memory.
	Bytes() int64
}

// HistoryRef is where a History keeps one decision: an offset and a
// length in a file, or an index in memory.
type HistoryRef struct {
	Off, Len int64
}

// memHistory keeps the decisions themselves, so that what it returns is
// what was put, pointer for pointer.
type memHistory struct {
	decisions []*sbc.Decision
	bytes     int64
}

// NewMemHistory returns a History that keeps decisions in memory. A
// replica whose Config names no History gets one.
func NewMemHistory() History { return &memHistory{} }

func (h *memHistory) Put(d *sbc.Decision) (HistoryRef, error) {
	h.decisions = append(h.decisions, d)
	h.bytes += int64(d.PayloadBytes())
	return HistoryRef{Off: int64(len(h.decisions) - 1)}, nil
}

// errNoDecision is a reference this history never returned.
var errNoDecision = errors.New("asmr: no decision at this history reference")

func (h *memHistory) Get(ref HistoryRef) (*sbc.Decision, error) {
	if ref.Off < 0 || ref.Off >= int64(len(h.decisions)) {
		return nil, errNoDecision
	}
	return h.decisions[ref.Off], nil
}

func (h *memHistory) Bytes() int64 { return h.bytes }

// decisionOf returns what st decided: the decision it holds, or the one
// its history reads back. It is nil for a block restored from disk, and
// for one whose history read fails or returns another decision than the
// one st's digest names, payloads included; such a read is counted.
func (r *Replica) decisionOf(st *instState) *sbc.Decision {
	if !st.inHistory {
		return st.decision
	}
	d, err := r.cfg.History.Get(st.ref)
	if err != nil || d == nil || !intact(d, st.digest) {
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
	ref, err := r.cfg.History.Put(st.decision)
	if err != nil {
		r.historyErrors++
		return
	}
	r.decisionBytes -= int64(st.decision.PayloadBytes())
	st.decision, st.ref, st.inHistory = nil, ref, true
}
