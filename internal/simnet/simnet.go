// Package simnet is a deterministic discrete-event network simulator with
// virtual time. It stands in for the paper's geo-distributed AWS testbed
// (§5): protocol nodes are event-driven state machines; the simulator
// delivers their messages after delays drawn from a latency model
// (internal/latency) and charges each node modeled CPU time per message
// sent and received (serialization, bandwidth, signature verification).
//
// The CPU model is what reproduces the paper's key empirical phenomenon
// (Fig. 4): with more replicas each node verifies more signatures per
// round, rounds stretch, and cross-partition evidence of equivocation has
// relatively more time to arrive before a disagreement can complete.
//
// Runs are reproducible: all scheduling is driven by a seeded RNG and a
// heap ordered by (virtual time, sequence number), executed one event at a
// time on the caller's goroutine.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/types"
)

// Message is any protocol message. Messages that implement Meter get
// accurate cost accounting; others are charged defaults.
type Message any

// Meter lets a message report its approximate wire size and the number of
// signature verifications processing it requires, for the CPU cost model.
type Meter interface {
	SimBytes() int
	SimSigOps() int
}

// Handler is the event-driven interface every simulated node implements.
// The simulator serializes all calls to one node; handlers need no locks.
type Handler interface {
	// OnMessage delivers a message from another node.
	OnMessage(from types.ReplicaID, msg Message)
	// OnTimer fires a timer previously set through the Env.
	OnTimer(payload any)
}

// TimerID identifies a pending timer so it can be cancelled.
type TimerID uint64

// Env is the environment the simulator hands each node: its interface for
// sending, timing and randomness. All methods must be called only from
// within the node's own OnMessage/OnTimer invocations (or before Run).
type Env interface {
	// Self returns the node's own ID.
	Self() types.ReplicaID
	// Now returns the current virtual time for this node.
	Now() time.Duration
	// Send dispatches msg to the node with the given ID.
	Send(to types.ReplicaID, msg Message)
	// SetTimer schedules OnTimer(payload) after d.
	SetTimer(d time.Duration, payload any) TimerID
	// CancelTimer cancels a pending timer; unknown IDs are ignored.
	CancelTimer(id TimerID)
	// Rand returns this node's seeded RNG.
	Rand() *rand.Rand
}

// CostModel charges virtual CPU time for sending and receiving messages.
// The zero value charges nothing (pure latency simulation).
type CostModel struct {
	// RecvBase is charged for every received message.
	RecvBase time.Duration
	// RecvPerByte is charged per byte of a received message.
	RecvPerByte time.Duration
	// SigVerify is charged per signature carried by a received message.
	SigVerify time.Duration
	// SendBase is charged for every sent message.
	SendBase time.Duration
	// SendPerByte is charged per byte of a sent message (bandwidth).
	SendPerByte time.Duration
}

// DefaultCostModel approximates the paper's c4.xlarge replicas: ECDSA
// verification ≈ 85 µs, ~1 Gbps effective bandwidth, small fixed handling
// overheads.
func DefaultCostModel() CostModel {
	return CostModel{
		RecvBase:    4 * time.Microsecond,
		RecvPerByte: 2 * time.Nanosecond,
		SigVerify:   85 * time.Microsecond,
		SendBase:    2 * time.Microsecond,
		SendPerByte: 8 * time.Nanosecond,
	}
}

func meterOf(msg Message) (bytes, sigops int) {
	if m, ok := msg.(Meter); ok {
		return m.SimBytes(), m.SimSigOps()
	}
	return 256, 0
}

func (c CostModel) recvCost(msg Message) time.Duration {
	b, s := meterOf(msg)
	return c.RecvBase + time.Duration(b)*c.RecvPerByte + time.Duration(s)*c.SigVerify
}

func (c CostModel) sendCost(msg Message) time.Duration {
	b, _ := meterOf(msg)
	return c.SendBase + time.Duration(b)*c.SendPerByte
}

// Config parameterizes a simulated network.
type Config struct {
	// Latency produces per-message delays. Required.
	Latency latency.Model
	// Cost is the CPU cost model; zero value charges nothing.
	Cost CostModel
	// Seed makes the run reproducible.
	Seed int64
	// MaxEvents aborts a runaway simulation; 0 means a large default.
	// Hitting it sets Network.Exhausted — callers must treat the run as
	// failed, not as a drained queue.
	MaxEvents int
}

type eventKind int

const (
	evDeliver eventKind = iota + 1
	evTimer
)

type event struct {
	at      time.Duration
	seq     uint64
	kind    eventKind
	to      types.ReplicaID
	from    types.ReplicaID
	msg     Message
	timerID TimerID
	// timerEpoch is the node incarnation that armed the timer; a timer
	// armed before a ReplaceHandler restart is dropped on delivery (its
	// payload belongs to a dead state machine).
	timerEpoch uint32
	payload    any
}

// eventQueue is a value-based 4-ary min-heap ordered by (at, seq). Events
// are stored by value in one growable slice, so scheduling a message
// costs zero heap allocations once the backing array is warm (the old
// container/heap implementation allocated one *event per message — the
// simulator's dominant allocation source). The (at, seq) key is unique
// (seq strictly increases), so the pop order is a total order and does
// not depend on heap arity: results are bit-identical to the old binary
// heap. A 4-ary layout halves the tree depth, which cuts sift work and
// cache misses for the large queues big committees build up.
type eventQueue struct {
	evs []event
}

func (q *eventQueue) Len() int { return len(q.evs) }

// minAt returns the timestamp of the earliest event; the caller must
// ensure the queue is non-empty.
func (q *eventQueue) minAt() time.Duration { return q.evs[0].at }

func (q *eventQueue) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	q.evs = append(q.evs, ev)
	// Sift up.
	i := len(q.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(&q.evs[i], &q.evs[parent]) {
			break
		}
		q.evs[i], q.evs[parent] = q.evs[parent], q.evs[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	min := q.evs[0]
	last := len(q.evs) - 1
	q.evs[0] = q.evs[last]
	q.evs[last] = event{} // release msg/payload references
	q.evs = q.evs[:last]
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		best := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if q.less(&q.evs[c], &q.evs[best]) {
				best = c
			}
		}
		if !q.less(&q.evs[best], &q.evs[i]) {
			break
		}
		q.evs[i], q.evs[best] = q.evs[best], q.evs[i]
		i = best
	}
	return min
}

type nodeState struct {
	id        types.ReplicaID
	handler   Handler
	busyUntil time.Duration
	now       time.Duration
	up        bool
	rng       *rand.Rand
	net       *Network
	cancelled map[TimerID]struct{}
	// epoch counts ReplaceHandler restarts; timers carry the epoch they
	// were armed in and stale ones are dropped.
	epoch uint32
	// nextTimer is the node's private timer-ID counter. IDs are per-node
	// (the cancelled set is per-node and timers only ever deliver to
	// their owner). It survives ReplaceHandler so a stale pre-restart
	// cancellation can never hit a fresh timer.
	nextTimer TimerID
}

// Network is the simulator. Not safe for concurrent use; the entire
// simulation runs on the caller's goroutine.
type Network struct {
	cfg   Config
	clock time.Duration
	pq    eventQueue
	// nodes is a dense slice indexed by ReplicaID: replica IDs are small
	// consecutive integers, so the per-event lookup is an array index
	// instead of a map probe. Unregistered IDs hold nil.
	nodes []*nodeState
	order []types.ReplicaID // insertion order, for deterministic reporting
	seq   uint64
	rng   *rand.Rand

	// Stats
	Delivered int
	Dropped   int
	BytesSent int64

	// Exhausted is set when the MaxEvents budget stopped the simulation
	// with events still queued. A run that trips it produced metrics from
	// a truncated simulation: benches and scenarios fail instead of
	// reporting them.
	Exhausted bool

	// Trace, if set, observes every delivery (after processing cost is
	// charged). Used by the metrics harness.
	Trace func(at time.Duration, from, to types.ReplicaID, msg Message)

	// DropRule, if set, drops matching messages (benign omission faults,
	// network partitions with full loss). Return true to drop.
	DropRule func(from, to types.ReplicaID, msg Message) bool

	// DelayRule, if set, returns extra delivery delay added on top of the
	// latency model (degraded links, slow replicas, partitions that stall
	// but do not lose traffic). It is consulted at send time, so swapping
	// the rule mid-run affects only messages sent afterwards — messages
	// already in flight keep their original arrival time. Self-sends are
	// never delayed. Both rules may be reassigned between Run calls; the
	// scenario engine (internal/scenario) drives them per fault phase.
	DelayRule func(from, to types.ReplicaID, msg Message) time.Duration

	// DeliverRule, if set, intercepts every message at delivery time,
	// after latency, drop and delay rules have run their course: the
	// returned message is what the destination handler actually sees.
	// Return the message unchanged to pass it through, a different
	// message to rewrite it in flight (a Byzantine network surface — the
	// conformance harness forges equivocations this way), or nil to
	// swallow it (counted in Dropped). Unlike DropRule/DelayRule it runs
	// at delivery rather than send time, so a rule installed mid-run
	// also affects messages already in flight. Handlers may call Inject
	// from inside the rule to schedule fabricated follow-ups.
	DeliverRule func(from, to types.ReplicaID, msg Message) Message
}

// New creates a simulated network.
func New(cfg Config) *Network {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 200_000_000
	}
	return &Network{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// node returns the state registered for id, or nil.
func (n *Network) node(id types.ReplicaID) *nodeState {
	if int(id) < len(n.nodes) {
		return n.nodes[id]
	}
	return nil
}

// AddNode registers a node. The build function receives the node's Env and
// returns its Handler; protocols typically capture the Env.
func (n *Network) AddNode(id types.ReplicaID, build func(Env) Handler) {
	if n.node(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate node %v", id))
	}
	st := &nodeState{
		id:        id,
		up:        true,
		rng:       rand.New(rand.NewSource(n.cfg.Seed ^ int64(id)<<17 ^ 0x5eed)),
		net:       n,
		cancelled: make(map[TimerID]struct{}),
	}
	for int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, nil)
	}
	n.nodes[id] = st
	n.order = append(n.order, id)
	st.handler = build(st)
}

// SetUp marks a node up or down. Down nodes neither send nor receive:
// this models the paper's benign (crashed/mute) replicas.
func (n *Network) SetUp(id types.ReplicaID, up bool) {
	if st := n.node(id); st != nil {
		st.up = up
	}
}

// ReplaceHandler restarts a node as a fresh process: the old handler
// (and all its in-memory protocol state) is discarded, a new one is
// built against the same Env, and every timer armed by the previous
// incarnation is dropped — its payload points into dead state machines.
// In-flight messages still deliver, exactly like packets already in the
// network surviving a peer's reboot. The node's up/down state is
// untouched; callers crash-recovering a replica pair this with SetUp.
func (n *Network) ReplaceHandler(id types.ReplicaID, build func(Env) Handler) {
	st := n.node(id)
	if st == nil {
		panic(fmt.Sprintf("simnet: ReplaceHandler on unknown node %v", id))
	}
	st.epoch++
	st.cancelled = make(map[TimerID]struct{})
	st.handler = build(st)
}

// Now returns the global virtual clock (time of the last processed event).
func (n *Network) Now() time.Duration { return n.clock }

// NodeIDs returns the nodes in insertion order.
func (n *Network) NodeIDs() []types.ReplicaID {
	out := make([]types.ReplicaID, len(n.order))
	copy(out, n.order)
	return out
}

// Handler returns the handler registered for id, or nil.
func (n *Network) Handler(id types.ReplicaID) Handler {
	if st := n.node(id); st != nil {
		return st.handler
	}
	return nil
}

// Epoch returns the node's incarnation number: 0 for the handler built by
// AddNode, incremented by each ReplaceHandler. DeliverRule installations
// that target one incarnation capture this at install time and stand down
// when it changes, so a restarted replica is not fed messages mutated for
// its previous life.
func (n *Network) Epoch(id types.ReplicaID) uint32 {
	if st := n.node(id); st != nil {
		return st.epoch
	}
	return 0
}

// --- Env implementation (per node) ---

var _ Env = (*nodeState)(nil)

func (s *nodeState) Self() types.ReplicaID { return s.id }

func (s *nodeState) Now() time.Duration { return s.now }

func (s *nodeState) Rand() *rand.Rand { return s.rng }

func (s *nodeState) Send(to types.ReplicaID, msg Message) {
	if !s.up {
		return
	}
	n := s.net
	dst := n.node(to)
	if dst == nil || !dst.up {
		n.Dropped++
		return
	}
	if n.DropRule != nil && n.DropRule(s.id, to, msg) {
		n.Dropped++
		return
	}
	// Charge send cost (bandwidth) to the sender serially: broadcasting
	// to many peers staggers departures.
	depart := s.busyUntil
	if depart < s.now {
		depart = s.now
	}
	depart += n.cfg.Cost.sendCost(msg)
	s.busyUntil = depart
	bytes, _ := meterOf(msg)
	n.BytesSent += int64(bytes)

	var delay time.Duration
	if to == s.id {
		delay = 0
	} else {
		delay = n.cfg.Latency.Delay(s.id, to, n.rng)
		if n.DelayRule != nil {
			delay += n.DelayRule(s.id, to, msg)
		}
	}
	n.seq++
	n.pq.push(event{
		at:   depart + delay,
		seq:  n.seq,
		kind: evDeliver,
		to:   to,
		from: s.id,
		msg:  msg,
	})
}

func (s *nodeState) SetTimer(d time.Duration, payload any) TimerID {
	s.nextTimer++
	id := s.nextTimer
	n := s.net
	n.seq++
	n.pq.push(event{
		at:         s.now + d,
		seq:        n.seq,
		kind:       evTimer,
		to:         s.id,
		timerID:    id,
		timerEpoch: s.epoch,
		payload:    payload,
	})
	return id
}

func (s *nodeState) CancelTimer(id TimerID) {
	if id == 0 {
		return
	}
	s.cancelled[id] = struct{}{}
}

// --- Run loop ---

// Step processes the next event. It returns false when the queue is empty
// or the event budget is exhausted (setting Exhausted in the latter case).
func (n *Network) Step() bool {
	for n.pq.Len() > 0 {
		if n.Delivered >= n.cfg.MaxEvents {
			n.Exhausted = true
			return false
		}
		if n.stepEvent(n.pq.pop()) {
			return true
		}
	}
	return false
}

// stepEvent processes one already-popped event and reports whether it was
// delivered (skipped events — down destinations, cancelled or stale
// timers — return false with no effect beyond the drop counter).
func (n *Network) stepEvent(ev event) bool {
	st := n.node(ev.to)
	if st == nil || !st.up {
		n.Dropped++
		return false
	}
	if ev.kind == evTimer {
		if ev.timerEpoch != st.epoch {
			return false // armed by a previous incarnation of the node
		}
		if _, cancelled := st.cancelled[ev.timerID]; cancelled {
			delete(st.cancelled, ev.timerID)
			return false
		}
	}
	start := ev.at
	if st.busyUntil > start {
		start = st.busyUntil
	}
	switch ev.kind {
	case evDeliver:
		if n.DeliverRule != nil {
			m := n.DeliverRule(ev.from, ev.to, ev.msg)
			if m == nil {
				n.Dropped++
				return false
			}
			ev.msg = m
		}
		done := start + n.cfg.Cost.recvCost(ev.msg)
		st.busyUntil = done
		st.now = done
		if done > n.clock {
			n.clock = done
		}
		n.Delivered++
		st.handler.OnMessage(ev.from, ev.msg)
		if n.Trace != nil {
			n.Trace(done, ev.from, ev.to, ev.msg)
		}
	case evTimer:
		st.busyUntil = start
		st.now = start
		if start > n.clock {
			n.clock = start
		}
		n.Delivered++
		st.handler.OnTimer(ev.payload)
	}
	return true
}

// Run processes events until the virtual clock passes the deadline or the
// queue drains. It returns the number of events delivered.
func (n *Network) Run(until time.Duration) int {
	processed := n.RunUntilQuiet(until)
	if n.clock < until {
		n.clock = until
	}
	return processed
}

// RunUntilQuiet processes events until no events remain or maxTime is
// reached. It returns the number of events delivered.
func (n *Network) RunUntilQuiet(maxTime time.Duration) int {
	processed := 0
	for n.pq.Len() > 0 && n.pq.minAt() <= maxTime {
		if !n.Step() {
			break
		}
		processed++
	}
	return processed
}

// Pending reports how many events are queued.
func (n *Network) Pending() int { return n.pq.Len() }

// --- Fault-injection predicates ---

// PartitionDrop returns a DropRule severing links between nodes in
// different groups. groupOf maps a node to its group; nodes mapped to a
// negative group are unrestricted (they reach, and are reached by,
// everyone) — the same convention as latency.PartitionOverlay.
func PartitionDrop(groupOf func(types.ReplicaID) int) func(from, to types.ReplicaID, msg Message) bool {
	return func(from, to types.ReplicaID, _ Message) bool {
		gf, gt := groupOf(from), groupOf(to)
		return gf >= 0 && gt >= 0 && gf != gt
	}
}

// PartitionDelay returns a DelayRule charging extra delay on links
// between nodes in different groups: a partition that stalls traffic but
// eventually delivers it, the network condition of the paper's coalition
// attacks (§5.2). Negative groups are unrestricted.
func PartitionDelay(groupOf func(types.ReplicaID) int, extra time.Duration) func(from, to types.ReplicaID, msg Message) time.Duration {
	return func(from, to types.ReplicaID, _ Message) time.Duration {
		gf, gt := groupOf(from), groupOf(to)
		if gf >= 0 && gt >= 0 && gf != gt {
			return extra
		}
		return 0
	}
}

// GroupOf returns the groupOf lookup of PartitionDrop and PartitionDelay
// for explicitly listed groups: a node's index in groups, or -1
// (unrestricted) for a node listed in none.
func GroupOf(groups [][]types.ReplicaID) func(types.ReplicaID) int {
	of := make(map[types.ReplicaID]int)
	for g, ids := range groups {
		for _, id := range ids {
			of[id] = g + 1 // 0 means unlisted
		}
	}
	return func(id types.ReplicaID) int { return of[id] - 1 }
}

// HonestHalves splits the committee members after the first deceitful
// ones (IDs deceitful+1..n) into two groups, the first holding the lower
// half. The deceitful replicas stay unlisted and so unrestricted: the
// §5.2 convention that attackers talk to every partition at full speed.
func HonestHalves(n, deceitful int) [][]types.ReplicaID {
	honest := n - deceitful
	var a, b []types.ReplicaID
	for i := deceitful + 1; i <= n; i++ {
		if i-deceitful <= honest/2 {
			a = append(a, types.ReplicaID(i))
		} else {
			b = append(b, types.ReplicaID(i))
		}
	}
	return [][]types.ReplicaID{a, b}
}

// Inject delivers a message to a node from an external source (e.g., a
// client submitting a transaction) at the current clock plus the given
// delay. The from ID does not need to be a registered node.
func (n *Network) Inject(from, to types.ReplicaID, msg Message, after time.Duration) {
	n.seq++
	n.pq.push(event{
		at:   n.clock + after,
		seq:  n.seq,
		kind: evDeliver,
		to:   to,
		from: from,
		msg:  msg,
	})
}
