// Conservative parallel window execution.
//
// When the latency model guarantees a minimum delay L (latency.Bounded),
// every message sent by an event executing at virtual time ≥ t arrives at
// ≥ t + SendBase + L. Popping all events due in the half-open window
// [t, t+L+SendBase) therefore yields batches whose only intra-window
// causality is per-node: the sole events a handler can create that also
// land inside the window are its own timers and self-sends — both
// destined to the creating node itself. Each node's batch (plus its
// dynamically created intra-window self events) is executed on a worker
// of the internal/pipeline pool against purely per-node state; outgoing
// sends and timers are buffered, then merged on the coordinating
// goroutine by replaying the exact pop order sequential execution would
// have used. Sequence numbers are re-assigned and latency RNG draws are
// performed during that replay, in creation order, so the shared RNG
// stream, the queue contents, the virtual clock and every metric are
// bit-identical to the sequential loop — the property
// TestParallelMatchesSequential and the top-level determinism suite pin.
//
// Requirements on user hooks: DropRule is evaluated on worker goroutines
// (it gates the sender's bandwidth charge) and must be a pure function of
// its arguments for the duration of a Run; DelayRule is evaluated during
// the single-threaded merge and must be non-negative. The scenario
// engine's stacked rules satisfy both.
package simnet

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
)

// minParallelNodes is the smallest registered-node count worth windowing:
// below it almost every window is a single node's batch. Small windows
// still go through the full window machinery — it is exact at any size,
// and a one-node window degenerates to an inline Map call.
const minParallelNodes = 4

// parallelOK reports whether window execution is currently usable.
// DeliverRule rewrites messages at delivery time and must see them one
// at a time, in order, so it forces the sequential loop. Trace does NOT:
// each delivered invocation records its completion time, sender and
// message while executing on its worker, and the merge replays the hook
// in the exact sequential pop order (see runWindow) — the trace stream
// is bit-identical to the sequential loop's.
func (n *Network) parallelOK() bool {
	return n.lookahead > 0 && n.DeliverRule == nil && len(n.order) >= minParallelNodes
}

// winCreation is one buffered side effect of an in-window handler
// invocation: a cross-node send (arrival time drawn at merge), a
// self-send, or a timer (both with exact arrival times known at creation).
type winCreation struct {
	kind eventKind
	from types.ReplicaID
	to   types.ReplicaID
	msg  Message
	// at is the exact arrival time for self-sends and timers, and the
	// departure time (arrival minus the yet-undrawn latency) for cross
	// sends.
	at    time.Duration
	cross bool
	// consumed marks self events handled inside the window (delivered
	// inline, or locally skipped as cancelled/stale); they must not be
	// re-queued at merge.
	consumed bool
	// rec indexes the invocation record an inline delivery produced
	// (-1 when the creation was not delivered in-window).
	rec        int32
	timerID    TimerID
	timerEpoch uint32
	payload    any
}

// winRec is one delivered invocation's creation span: creations[start:end)
// in creation order. Invocations never nest (the per-node loop is flat),
// so spans are contiguous. When the network's Trace hook is set, the rec
// additionally carries the delivery metadata the merge needs to replay
// the hook in sequential pop order; the fields stay zero otherwise.
type winRec struct {
	start, end int32

	isDeliver bool
	done      time.Duration
	from      types.ReplicaID
	msg       Message
}

// localEvent is one pending entry of a node's in-window queue, ordered by
// (at, lseq). Batch events carry their real global sequence number as
// lseq; locally created events get lseqBase+k, which exceeds every
// pre-window sequence number — exactly the relative order sequential
// execution gives them.
type localEvent struct {
	at          time.Duration
	lseq        uint64
	batchIdx    int32 // index into winNode.batch, or -1
	creationIdx int32 // index into winNode.creations, or -1
}

// winNode is one node's window context: its popped batch, its local event
// queue, the buffered side effects and the per-node counters folded into
// the network totals at merge.
type winNode struct {
	st  *nodeState
	end time.Duration // window end: self events below it deliver inline

	batch    []event
	batchRec []int32 // recs index per batch event, -1 = skipped

	creations []winCreation
	recs      []winRec

	lq       []localEvent // binary heap by (at, lseq)
	lseqBase uint64
	localCtr uint64

	delivered int
	dropped   int
	bytesSent int64
	maxDone   time.Duration
	exhausted bool
}

// send buffers an in-window Send. It mirrors the sequential Send's
// control flow exactly: drop checks before the bandwidth charge, and the
// latency draw deferred to the merge (cross sends) or skipped entirely
// (self-sends deliver at their departure time).
func (w *winNode) send(to types.ReplicaID, msg Message) {
	s := w.st
	n := s.net
	dst := n.node(to)
	if dst == nil || !dst.up {
		w.dropped++
		return
	}
	if n.DropRule != nil && n.DropRule(s.id, to, msg) {
		w.dropped++
		return
	}
	depart := s.busyUntil
	if depart < s.now {
		depart = s.now
	}
	depart += n.cfg.Cost.sendCost(msg)
	s.busyUntil = depart
	bytes, _ := meterOf(msg)
	w.bytesSent += int64(bytes)

	c := winCreation{kind: evDeliver, from: s.id, to: to, msg: msg, at: depart, rec: -1}
	if to != s.id {
		c.cross = true
		w.creations = append(w.creations, c)
		return
	}
	if depart < w.end {
		c.consumed = true
		w.creations = append(w.creations, c)
		w.pushLocal(localEvent{at: depart, batchIdx: -1, creationIdx: int32(len(w.creations) - 1)})
		return
	}
	w.creations = append(w.creations, c)
}

// setTimer buffers an in-window SetTimer (the ID was already minted from
// the node's private counter).
func (w *winNode) setTimer(at time.Duration, id TimerID, payload any) {
	s := w.st
	c := winCreation{
		kind: evTimer, from: s.id, to: s.id, at: at, rec: -1,
		timerID: id, timerEpoch: s.epoch, payload: payload,
	}
	if at < w.end {
		c.consumed = true
		w.creations = append(w.creations, c)
		w.pushLocal(localEvent{at: at, batchIdx: -1, creationIdx: int32(len(w.creations) - 1)})
		return
	}
	w.creations = append(w.creations, c)
}

// pushLocal inserts a locally created event into the node's in-window
// queue with the next local pseudo-sequence number.
func (w *winNode) pushLocal(le localEvent) {
	w.localCtr++
	le.lseq = w.lseqBase + w.localCtr
	w.push(le)
}

// pushBatch enqueues a popped batch event (its real sequence number is
// its local order key).
func (w *winNode) pushBatch(idx int32, at time.Duration, seq uint64) {
	w.push(localEvent{at: at, lseq: seq, batchIdx: idx, creationIdx: -1})
}

// push is the heap insert shared by both entry points.
func (w *winNode) push(le localEvent) {
	w.lq = append(w.lq, le)
	i := len(w.lq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !localLess(w.lq[i], w.lq[parent]) {
			break
		}
		w.lq[i], w.lq[parent] = w.lq[parent], w.lq[i]
		i = parent
	}
}

func localLess(a, b localEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.lseq < b.lseq
}

func (w *winNode) popLocal() localEvent {
	min := w.lq[0]
	last := len(w.lq) - 1
	w.lq[0] = w.lq[last]
	w.lq = w.lq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && localLess(w.lq[l], w.lq[best]) {
			best = l
		}
		if r < last && localLess(w.lq[r], w.lq[best]) {
			best = r
		}
		if best == i {
			break
		}
		w.lq[i], w.lq[best] = w.lq[best], w.lq[i]
		i = best
	}
	return min
}

// reset clears the scratch for reuse, releasing message and payload
// references.
func (w *winNode) reset() {
	for i := range w.batch {
		w.batch[i] = event{}
	}
	w.batch = w.batch[:0]
	w.batchRec = w.batchRec[:0]
	for i := range w.creations {
		w.creations[i] = winCreation{}
	}
	w.creations = w.creations[:0]
	for i := range w.recs {
		w.recs[i] = winRec{} // release msg references held for Trace replay
	}
	w.recs = w.recs[:0]
	w.lq = w.lq[:0]
	w.localCtr = 0
	w.delivered = 0
	w.dropped = 0
	w.bytesSent = 0
	w.maxDone = 0
	w.exhausted = false
}

// run executes the node's batch — plus every self event it spawns inside
// the window — in the exact per-node order sequential execution would
// use. It runs on a worker goroutine and touches only per-node state (and
// the shared window budget).
func (w *winNode) run() {
	st := w.st
	n := st.net
	st.win = w
	for len(w.lq) > 0 {
		le := w.popLocal()
		var kind eventKind
		var at time.Duration
		var from types.ReplicaID
		var msg Message
		var timerID TimerID
		var timerEpoch uint32
		var payload any
		if le.batchIdx >= 0 {
			ev := &w.batch[le.batchIdx]
			kind, at, from, msg = ev.kind, ev.at, ev.from, ev.msg
			timerID, timerEpoch, payload = ev.timerID, ev.timerEpoch, ev.payload
		} else {
			c := &w.creations[le.creationIdx]
			kind, at, from, msg = c.kind, c.at, c.from, c.msg
			timerID, timerEpoch, payload = c.timerID, c.timerEpoch, c.payload
		}
		if kind == evTimer {
			if timerEpoch != st.epoch {
				continue
			}
			if _, cancelled := st.cancelled[timerID]; cancelled {
				delete(st.cancelled, timerID)
				continue
			}
		}
		if n.winBudget.Add(-1) < 0 {
			w.exhausted = true
			break
		}
		start := at
		if st.busyUntil > start {
			start = st.busyUntil
		}
		recIdx := int32(len(w.recs))
		w.recs = append(w.recs, winRec{start: int32(len(w.creations))})
		switch kind {
		case evDeliver:
			done := start + n.cfg.Cost.recvCost(msg)
			st.busyUntil = done
			st.now = done
			if done > w.maxDone {
				w.maxDone = done
			}
			w.delivered++
			if n.Trace != nil {
				rec := &w.recs[recIdx]
				rec.isDeliver = true
				rec.done = done
				rec.from = from
				rec.msg = msg
			}
			st.handler.OnMessage(from, msg)
		case evTimer:
			st.busyUntil = start
			st.now = start
			if start > w.maxDone {
				w.maxDone = start
			}
			w.delivered++
			st.handler.OnTimer(payload)
		}
		w.recs[recIdx].end = int32(len(w.creations))
		if le.batchIdx >= 0 {
			w.batchRec[le.batchIdx] = recIdx
		} else {
			w.creations[le.creationIdx].rec = recIdx
		}
	}
	st.win = nil
}

// replayItem is one delivered invocation awaiting merge, keyed by its
// sequential pop position (at, seq).
type replayItem struct {
	at  time.Duration
	seq uint64
	w   *winNode
	rec int32
}

type replayHeap []replayItem

func (h *replayHeap) push(it replayItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !replayLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *replayHeap) pop() replayItem {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && replayLess(s[l], s[best]) {
			best = l
		}
		if r < last && replayLess(s[r], s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return min
}

func replayLess(a, b replayItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// runWindow pops every event due before tEnd, executes the per-node
// batches concurrently and merges their buffered side effects back into
// the shared queue in sequential-equivalent order. It returns the number
// of events delivered and ok=false when the event budget was exhausted.
func (n *Network) runWindow(tEnd time.Duration) (int, bool) {
	// Pop and group by destination. Down-destination drops happen here,
	// exactly where the sequential pop would count them (up/down state
	// never changes during a Run).
	active := n.winActive[:0]
	events := n.winEvents[:0]
	for n.pq.Len() > 0 && n.pq.minAt() < tEnd {
		ev := n.pq.pop()
		st := n.node(ev.to)
		if st == nil || !st.up {
			n.Dropped++
			continue
		}
		events = append(events, ev)
		w := st.winbuf
		if w == nil {
			w = &winNode{st: st}
			st.winbuf = w
		}
		if len(w.batch) == 0 {
			active = append(active, w)
		}
		w.batch = append(w.batch, ev)
	}
	n.winEvents = events
	n.winActive = active

	remaining := n.cfg.MaxEvents - n.Delivered
	if remaining < len(events) {
		// The budget will exhaust inside this window. Put everything back
		// and fall back to single Steps: the sequential loop's exact
		// MaxEvents cutoff (which events deliver before the stop), which
		// a countdown shared across workers could not reproduce.
		//
		// Popped events must go back through the queue — stepping them
		// from a buffer would leap-frog any earlier-scheduled event a
		// handler creates mid-batch (a self-send or short timer landing
		// between two buffered arrivals).
		for _, w := range active {
			w.reset()
		}
		for _, ev := range events {
			n.pq.push(ev)
		}
		n.releaseWindow()
		if !n.Step() {
			return 0, false
		}
		return 1, true
	}

	// Parallel execution: one worker task per destination node.
	n.winBudget.Store(int64(remaining))
	for _, w := range active {
		w.end = tEnd
		w.lseqBase = n.seq
		w.batchRec = w.batchRec[:0]
		for i := range w.batch {
			w.batchRec = append(w.batchRec, -1)
			w.pushBatch(int32(i), w.batch[i].at, w.batch[i].seq)
		}
	}
	pipeline.Shared().Map(len(active), func(i int) { active[i].run() })

	// Deterministic merge: replay the sequential pop order of the window,
	// assigning sequence numbers and drawing latency delays in the exact
	// order the sequential loop would have.
	rh := n.winReplay[:0]
	for _, w := range active {
		for i := range w.batch {
			if w.batchRec[i] >= 0 {
				rh.push(replayItem{at: w.batch[i].at, seq: w.batch[i].seq, w: w, rec: w.batchRec[i]})
			}
		}
	}
	for len(rh) > 0 {
		it := rh.pop()
		rec := it.w.recs[it.rec]
		for ci := rec.start; ci < rec.end; ci++ {
			c := &it.w.creations[ci]
			n.seq++
			seq := n.seq
			switch {
			case c.cross:
				delay := n.cfg.Latency.Delay(c.from, c.to, n.rng)
				if n.DelayRule != nil {
					delay += n.DelayRule(c.from, c.to, c.msg)
				}
				at := c.at + delay
				if at < tEnd {
					panic(fmt.Sprintf("simnet: latency model returned %v for %v->%v, below its declared MinDelay bound (arrival %v inside window ending %v)",
						delay, c.from, c.to, at, tEnd))
				}
				n.pq.push(event{at: at, seq: seq, kind: evDeliver, to: c.to, from: c.from, msg: c.msg})
			case c.consumed:
				// Handled inside the window; if it was delivered (not a
				// cancelled/stale timer), replay its own creations at its
				// sequential position.
				if c.rec >= 0 {
					rh.push(replayItem{at: c.at, seq: seq, w: it.w, rec: c.rec})
				}
			default:
				// Self event landing at or beyond the window end: queue it.
				n.pq.push(event{
					at: c.at, seq: seq, kind: c.kind, to: c.to, from: c.from, msg: c.msg,
					timerID: c.timerID, timerEpoch: c.timerEpoch, payload: c.payload,
				})
			}
		}
		// Replay the Trace hook at this invocation's sequential position:
		// the sequential loop calls it right after the handler returns
		// (sends already sequenced), which is exactly here.
		if n.Trace != nil && rec.isDeliver {
			n.Trace(rec.done, rec.from, it.w.st.id, rec.msg)
		}
	}

	n.winReplay = rh[:0]
	delivered := 0
	ok := true
	for _, w := range active {
		delivered += w.delivered
		n.Delivered += w.delivered
		n.Dropped += w.dropped
		n.BytesSent += w.bytesSent
		if w.maxDone > n.clock {
			n.clock = w.maxDone
		}
		if w.exhausted {
			n.Exhausted = true
			ok = false
		}
		w.reset()
	}
	n.releaseWindow()
	return delivered, ok
}

// releaseWindow clears the shared pop buffer (dropping message
// references) while keeping its capacity for the next window.
func (n *Network) releaseWindow() {
	for i := range n.winEvents {
		n.winEvents[i] = event{}
	}
	n.winEvents = n.winEvents[:0]
	n.winActive = n.winActive[:0]
}
