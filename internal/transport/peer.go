package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// PeerState is a peer's connection health as seen by this node's writer.
type PeerState int32

// Peer health states. A peer is idle until the first send targets it,
// connected while its connection accepts writes, backoff while the
// writer waits out a failure, and suspect once failures run
// consecutive past Config.SuspectAfter — the operator-facing "this
// peer looks dead" signal. Any successful write returns it to
// connected.
const (
	StateIdle PeerState = iota
	StateConnected
	StateBackoff
	StateSuspect
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateConnected:
		return "connected"
	case StateBackoff:
		return "backoff"
	case StateSuspect:
		return "suspect"
	}
	return "unknown"
}

// MarshalJSON renders the state as its name, for /status.
func (s PeerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a state name back (status consumers, tests).
func (s *PeerState) UnmarshalJSON(b []byte) error {
	name := strings.Trim(string(b), `"`)
	for _, st := range []PeerState{StateIdle, StateConnected, StateBackoff, StateSuspect} {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("transport: unknown peer state %q", name)
}

// PeerHealth is a point-in-time snapshot of one peer's send path.
type PeerHealth struct {
	ID                  types.ReplicaID `json:"id"`
	State               PeerState       `json:"state"`
	ConsecutiveFailures int64           `json:"consecutive_failures"`
	// LastSuccessAgo is the time since the last successful write to
	// this peer; negative when no write has ever succeeded.
	LastSuccessAgo time.Duration `json:"last_success_ago_ns"`
	SentMsgs       uint64        `json:"sent_msgs"`
	SentBytes      uint64        `json:"sent_bytes"`
	// Writes counts the writes that carried SentMsgs: frames per write
	// is their ratio.
	Writes     uint64 `json:"writes"`
	Drops      uint64 `json:"drops"`
	Reconnects uint64 `json:"reconnects"`
	QueueLen   int    `json:"queue_len"`
	QueueCap   int    `json:"queue_cap"`
}

// PeerHealth snapshots every configured peer (self excluded), sorted by
// ID. Peers no send has targeted yet report as idle with zero counters.
func (n *Node) PeerHealth() []PeerHealth {
	ids := make([]types.ReplicaID, 0, len(n.cfg.Peers))
	for id := range n.cfg.Peers {
		if id != n.cfg.Self {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]PeerHealth, 0, len(ids))
	for _, id := range ids {
		out = append(out, n.PeerHealthFor(id))
	}
	return out
}

// PeerHealthFor snapshots one peer's health. Unknown or never-contacted
// IDs report idle.
func (n *Node) PeerHealthFor(id types.ReplicaID) PeerHealth {
	n.mu.Lock()
	p := n.peers[id]
	n.mu.Unlock()
	if p == nil {
		return PeerHealth{ID: id, State: StateIdle, LastSuccessAgo: -1, QueueCap: n.cfg.SendQueueSize}
	}
	return p.health()
}

// maxBatch bounds one write: the writer drains queued frames into a
// batch until the next one would take it past maxBatch. A frame larger
// than that goes alone.
const maxBatch = 64 << 10

// peer is one remote replica's send path: a bounded queue of encoded
// frames drained by a dedicated writer goroutine that owns the connection
// lifecycle. All health fields are atomics — updated by the writer and the
// enqueuers, read by metrics scrapes — so no snapshot ever takes the node
// lock on the hot path.
type peer struct {
	node *Node
	id   types.ReplicaID
	addr string

	q chan []byte

	// connMu guards conn only for the benefit of Node.Close, which
	// snaps the live connection to unblock a writer mid-write; the
	// writer goroutine is the only other toucher.
	connMu sync.Mutex
	conn   net.Conn

	// The writer goroutine's own state: whether conn has carried the
	// preamble, the batch in hand, a frame drained past the last batch's
	// limit, and the buffer a batch is assembled in.
	greeted bool
	batch   [][]byte
	held    []byte
	buf     []byte

	state       atomic.Int32
	consecFails atomic.Int64
	lastSuccess atomic.Int64 // wall nanos of the last successful write; 0 = never
	sentMsgs    atomic.Uint64
	sentBytes   atomic.Uint64
	writes      atomic.Uint64
	drops       atomic.Uint64
	reconnects  atomic.Uint64
	dials       atomic.Uint64

	rng rngSource // jitter; only the writer goroutine draws from it
}

// rngSource wraps a rand.Rand with a mutex: jitter is drawn by the
// writer, but tryEnqueue callers never touch it, so this is belt and
// braces for future use rather than contention.
type rngSource struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (r *rngSource) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return d/2 + time.Duration(r.r.Int63n(int64(d/2)+1))
}

func newPeer(n *Node, id types.ReplicaID, addr string) *peer {
	return &peer{
		node: n,
		id:   id,
		addr: addr,
		q:    make(chan []byte, n.cfg.SendQueueSize),
		rng:  rngSource{r: rand.New(rand.NewSource(int64(n.cfg.Self)*104729 + int64(id)*31 + 13))},
	}
}

// health snapshots the peer's counters.
func (p *peer) health() PeerHealth {
	ago := time.Duration(-1)
	if last := p.lastSuccess.Load(); last > 0 {
		ago = time.Since(time.Unix(0, last))
	}
	return PeerHealth{
		ID:                  p.id,
		State:               PeerState(p.state.Load()),
		ConsecutiveFailures: p.consecFails.Load(),
		LastSuccessAgo:      ago,
		SentMsgs:            p.sentMsgs.Load(),
		SentBytes:           p.sentBytes.Load(),
		Writes:              p.writes.Load(),
		Drops:               p.drops.Load(),
		Reconnects:          p.reconnects.Load(),
		QueueLen:            len(p.q),
		QueueCap:            cap(p.q),
	}
}

// frame encodes msg for the queue. A message with no frame — a type
// without a kind, or one over the length cap — is refused here, before
// it is queued: counted as a drop and logged, with the connection and the
// peer's health untouched.
func (p *peer) frame(msg simnet.Message) ([]byte, error) {
	frame, err := appendFrame(make([]byte, 0, sizeHint(msg)), msg)
	if err != nil {
		p.countDrops(1)
		if p.node.warnRefuse.allow(time.Second) {
			p.node.cfg.Logger.Warnf("transport: refused a message to replica %v (%d drops to it so far): %v",
				p.id, p.drops.Load(), err)
		}
	}
	return frame, err
}

// enqueue adds a frame to the peer's queue, displacing the oldest queued
// frame when full (drop-oldest: under overload the freshest consensus
// state survives, and quorum protocols recover whatever is lost).
func (p *peer) enqueue(frame []byte) {
	for {
		select {
		case p.q <- frame:
			return
		default:
		}
		select {
		case <-p.q:
			p.countDrops(1)
			if p.node.warnDrop.allow(time.Second) {
				p.node.cfg.Logger.Warnf("transport: send queue to replica %v full, dropped %d frames to it so far",
					p.id, p.drops.Load())
			}
		default:
			// Lost the displacement race to the writer draining the
			// queue; the next iteration's send will almost surely fit.
		}
	}
}

// tryEnqueue adds a frame or fails fast with ErrBackpressure, displacing
// nothing.
func (p *peer) tryEnqueue(frame []byte) error {
	select {
	case p.q <- frame:
		return nil
	default:
		return ErrBackpressure
	}
}

func (p *peer) countDrops(frames int) {
	p.drops.Add(uint64(frames))
	p.node.sendDrops.Add(uint64(frames))
}

// writeLoop drains the queue for the writer's lifetime, owning the
// connection. Each wake-up takes one frame, dials if there is no
// connection (jittered exponential backoff), then drains whatever else is
// queued into the batch and writes it in one write. A frame therefore
// leaves the queue only once a connection exists, bar the one in hand.
// Dial failures cost backoff only — a frame is never dropped because the
// peer is unreachable, so traffic queued across a partition flushes on
// heal — while writes that fail on an established connection consume
// the batch's Config.SendAttempts budget before it is dropped.
func (p *peer) writeLoop() {
	defer p.node.wg.Done()
	defer p.closeConn()
	backoff := p.node.cfg.SendBackoff
	for {
		first := p.held
		p.held = nil
		if first == nil {
			select {
			case <-p.node.stopIO:
				return
			case first = <-p.q:
			}
		}
		if p.currentConn() == nil && p.connect(&backoff) == nil {
			return // shutdown
		}
		p.fill(first)
		if !p.flush(&backoff) {
			return // shutdown
		}
	}
}

// fill starts the batch with first and drains queued frames into it until
// the queue is empty or the next frame would take the batch past
// maxBatch; that frame is held for the next batch.
func (p *peer) fill(first []byte) {
	p.batch = append(p.batch[:0], first)
	size := len(first)
	for {
		select {
		case f := <-p.q:
			if size+len(f) > maxBatch {
				p.held = f
				return
			}
			p.batch = append(p.batch, f)
			size += len(f)
		default:
			return
		}
	}
}

// flush writes the batch, redialing and retrying it whole after a failed
// write until Config.SendAttempts writes have failed, then drops it. It
// reports false on shutdown.
func (p *peer) flush(backoff *time.Duration) bool {
	defer clear(p.batch) // the frames are garbage once written or dropped
	for fails := 0; ; {
		conn := p.currentConn()
		if conn == nil {
			if conn = p.connect(backoff); conn == nil {
				return false
			}
		}
		if p.write(conn) {
			*backoff = p.node.cfg.SendBackoff
			return true
		}
		if fails++; fails >= p.node.cfg.SendAttempts {
			p.countDrops(len(p.batch))
			if p.node.warnDrop.allow(time.Second) {
				p.node.cfg.Logger.Warnf("transport: %d frames to replica %v dropped after %d failed writes, %d so far",
					len(p.batch), p.id, fails, p.drops.Load())
			}
			return true
		}
		if !p.sleep(backoff) {
			return false
		}
	}
}

// connect dials until it succeeds or the node shuts down, sleeping the
// jittered backoff between attempts and escalating the health state to
// backoff then suspect.
func (p *peer) connect(backoff *time.Duration) net.Conn {
	for {
		select {
		case <-p.node.stopIO:
			return nil
		default:
		}
		p.dials.Add(1)
		conn, err := net.DialTimeout("tcp", p.addr, p.node.cfg.DialBackoff)
		if err == nil {
			p.setConn(conn)
			p.greeted = false
			if p.dials.Load() > 1 {
				p.reconnects.Add(1)
			}
			p.state.Store(int32(StateConnected))
			return conn
		}
		p.fail()
		if !p.sleep(backoff) {
			return nil
		}
	}
}

// write sends the batch in one write, after the preamble on a fresh
// connection. On failure the connection is closed and failure counters
// advance.
func (p *peer) write(conn net.Conn) bool {
	out := p.batch[0]
	if len(p.batch) > 1 || !p.greeted {
		b := p.buf[:0]
		if !p.greeted {
			b = appendPreamble(b, p.node.cfg.Self)
		}
		for _, f := range p.batch {
			b = append(b, f...)
		}
		out = b
		if cap(b) <= maxBatch+preambleLen {
			p.buf = b // a lone large frame's copy is not kept
		}
	}
	if err := p.writeAll(conn, out); err != nil {
		p.closeConn()
		p.fail()
		return false
	}
	p.greeted = true
	p.writes.Add(1)
	p.sentMsgs.Add(uint64(len(p.batch)))
	p.sentBytes.Add(uint64(len(out)))
	p.node.Sent.Add(int64(len(p.batch)))
	p.consecFails.Store(0)
	p.lastSuccess.Store(time.Now().UnixNano())
	p.state.Store(int32(StateConnected))
	return true
}

// writeAll writes b under the write deadline, renewed whenever a write
// moved bytes: a slow reader drains a batch at its own pace, and only a
// reader that takes nothing for Config.WriteTimeout fails it.
func (p *peer) writeAll(conn net.Conn, b []byte) error {
	for len(b) > 0 {
		conn.SetWriteDeadline(time.Now().Add(p.node.cfg.WriteTimeout))
		n, err := conn.Write(b)
		b = b[n:]
		if err != nil && (n == 0 || !errors.Is(err, os.ErrDeadlineExceeded)) {
			return err
		}
	}
	conn.SetWriteDeadline(time.Time{})
	return nil
}

// fail records one dial or write failure and degrades the health state.
func (p *peer) fail() {
	fails := p.consecFails.Add(1)
	if fails >= int64(p.node.cfg.SuspectAfter) {
		p.state.Store(int32(StateSuspect))
	} else {
		p.state.Store(int32(StateBackoff))
	}
}

// sleep waits out the jittered backoff (doubling it, capped at
// DialBackoff) unless shutdown interrupts; it reports false on shutdown.
func (p *peer) sleep(backoff *time.Duration) bool {
	d := p.rng.jitter(*backoff)
	if *backoff *= 2; *backoff > p.node.cfg.DialBackoff {
		*backoff = p.node.cfg.DialBackoff
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-p.node.stopIO:
		return false
	case <-t.C:
		return true
	}
}

func (p *peer) currentConn() net.Conn {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return p.conn
}

func (p *peer) setConn(conn net.Conn) {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	p.conn = conn
}

// closeConn closes and clears the live connection; called by the writer
// on write failure and by Node.Close to unblock a writer mid-write.
func (p *peer) closeConn() {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// rateLimiter allows one event per interval, CAS-guarded so concurrent
// callers never double-log.
type rateLimiter struct {
	last atomic.Int64
}

func (r *rateLimiter) allow(every time.Duration) bool {
	now := time.Now().UnixNano()
	last := r.last.Load()
	return now-last >= int64(every) && r.last.CompareAndSwap(last, now)
}
