// Package transport runs an event-driven replica (any simnet.Handler,
// e.g. an asmr.Replica) over real TCP instead of the simulator: the same
// protocol state machines, driven by a single event loop per node, with
// length-prefixed binary frames between peers. Message authenticity is
// end-to-end (every accountable statement is signed), so the transport
// only provides framing and ordering, exactly like the paper's raw TCP
// replica links.
//
// Delivery is asynchronous: Send encodes the message into its frame on
// the caller's goroutine and enqueues the frame, without blocking, onto a
// bounded per-peer queue drained by a dedicated writer goroutine that
// owns that peer's connection lifecycle — dial, jittered exponential
// backoff, redial, write deadlines. Each time the writer wakes it writes
// whatever is queued, up to 64 KiB, in one write. A dead or slow peer
// therefore never stalls the event loop or delays sends to healthy
// peers; its queue fills and overflows by dropping the oldest frame
// (quorum protocols recover via retransmitted decisions and catch-up),
// while client submits that hit a full event queue are refused with a
// typed backpressure error instead of being silently lost. Per-peer
// health (state, consecutive failures, drops, reconnects, writes) is
// tracked in lock-free counters and exported through PeerHealth for the
// node's /metrics and /status surfaces.
//
// A listener serves two kinds of connection, told apart by their first
// byte: a peer link opens with a preamble naming its sender and carries
// one frame per protocol message (frame.go), and anything else is a
// client speaking gob envelopes, which may only submit transactions
// (client.go). See README.md for the architecture and the frame layout.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// SyncFrame carries a durable-store catch-up payload between nodes: a
// wire.EncodeSyncReq payload when Req is set, a wire.EncodeSyncResp
// payload otherwise. The binary payloads keep the store's CRC-framed
// records end-to-end verifiable; the frame carries them as opaque bytes.
type SyncFrame struct {
	Req     bool
	Payload []byte
}

// event drives the node's single-threaded loop.
type event struct {
	kind    int // 1 = message, 2 = timer, 3 = closure
	from    types.ReplicaID
	msg     simnet.Message
	payload any
	fn      func()
}

// Config parameterizes a TCP node.
type Config struct {
	// Self is this replica's ID.
	Self types.ReplicaID
	// Listen is the local listen address, e.g. ":7001".
	Listen string
	// Peers maps every replica ID to its dialable address.
	Peers map[types.ReplicaID]string
	// DialBackoff bounds reconnect pacing: it is both the dial timeout of
	// a single connection attempt and the cap on the writer's retry
	// backoff schedule (default 500 ms).
	DialBackoff time.Duration
	// SendAttempts bounds how many times the writer re-writes one batch
	// of frames across reconnects before dropping it (default 3). Dial
	// failures do not consume the budget — an unreachable peer costs
	// backoff, not frames — only writes that fail on an established
	// connection do.
	SendAttempts int
	// SendBackoff is the initial backoff between the writer's connection
	// attempts (default 20 ms). It doubles per retry, capped at
	// DialBackoff, with full jitter so restarting peers are not hammered
	// in lockstep.
	SendBackoff time.Duration
	// WriteTimeout is the write deadline (default 2 s): a write that
	// moves no byte for this long fails, so a peer that accepted the
	// connection but stopped reading fails the batch instead of wedging
	// the writer forever. A slow reader that keeps taking bytes does not.
	WriteTimeout time.Duration
	// QueueSize bounds the event queue (default 65536).
	QueueSize int
	// SendQueueSize bounds each peer's outbound queue (default 4096).
	// On overflow the oldest queued frame is dropped.
	SendQueueSize int
	// SuspectAfter is the consecutive-failure count at which a peer's
	// health state degrades from backoff to suspect (default 3).
	SuspectAfter int
	// Logger receives rate-limited transport warnings (drops, decode
	// errors, backpressure). Nil drops them.
	Logger *obs.Logger
}

// Node hosts one event-driven replica over TCP. It implements simnet.Env,
// so protocol components constructed with it work unchanged.
type Node struct {
	cfg     Config
	handler simnet.Handler
	events  chan event
	start   time.Time

	// stopIO wakes writer goroutines out of backoff sleeps and queue
	// waits; stopLoop tells the event loop to drain and exit. Two
	// channels because shutdown is staged: I/O first, loop drain last,
	// so every frame a readLoop enqueued before dying is still handled.
	stopIO   chan struct{}
	stopLoop chan struct{}

	mu      sync.Mutex
	peers   map[types.ReplicaID]*peer
	inbound map[net.Conn]struct{}
	closed  bool

	listener net.Listener
	wg       sync.WaitGroup

	timerMu   sync.Mutex
	timers    map[simnet.TimerID]*time.Timer
	nextTimer simnet.TimerID

	rng *rand.Rand

	// Stats. Sent counts frames actually written to a peer connection
	// (incremented by writer goroutines); Received counts events the
	// loop handled. Both are read concurrently by metrics scrapes.
	Sent     atomic.Int64
	Received atomic.Int64

	eventsDropped atomic.Uint64 // inbound/self events lost to a full event queue
	decodeErrors  atomic.Uint64 // inbound frames a readLoop failed to decode or refused
	sendDrops     atomic.Uint64 // outbound frames dropped or refused across all peers
	submitBackoff atomic.Uint64 // client submits refused with ErrBackpressure

	warnDrop   rateLimiter
	warnDecode rateLimiter
	warnRefuse rateLimiter
}

// Stats is a point-in-time snapshot of the node's transport counters.
type Stats struct {
	Sent               int64
	Received           int64
	EventsDropped      uint64
	DecodeErrors       uint64
	SendDrops          uint64
	SubmitBackpressure uint64
}

var _ simnet.Env = (*Node)(nil)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: node closed")

// ErrUnknownPeer marks sends to replica IDs absent from Config.Peers.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrBackpressure is the typed overload verdict: the queue that would
// carry the message is full and the caller asked to fail fast rather
// than displace queued traffic. Client submits hitting a saturated
// event queue receive it (as a SubmitAck on the wire); TrySend returns
// it for a full peer queue.
var ErrBackpressure = errors.New("transport: backpressure, queue full")

// NewNode creates the node; call SetHandler then Serve.
func NewNode(cfg Config) *Node {
	if cfg.DialBackoff == 0 {
		cfg.DialBackoff = 500 * time.Millisecond
	}
	if cfg.SendAttempts == 0 {
		cfg.SendAttempts = 3
	}
	if cfg.SendBackoff == 0 {
		cfg.SendBackoff = 20 * time.Millisecond
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 2 * time.Second
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 1 << 16
	}
	if cfg.SendQueueSize == 0 {
		cfg.SendQueueSize = 4096
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 3
	}
	return &Node{
		cfg:      cfg,
		events:   make(chan event, cfg.QueueSize),
		start:    time.Now(),
		stopIO:   make(chan struct{}),
		stopLoop: make(chan struct{}),
		peers:    make(map[types.ReplicaID]*peer),
		inbound:  make(map[net.Conn]struct{}),
		timers:   make(map[simnet.TimerID]*time.Timer),
		rng:      rand.New(rand.NewSource(int64(cfg.Self) * 7919)),
	}
}

// SetHandler installs the replica; must precede Serve.
func (n *Node) SetHandler(h simnet.Handler) { n.handler = h }

// Self implements simnet.Env.
func (n *Node) Self() types.ReplicaID { return n.cfg.Self }

// Now implements simnet.Env: wall time since node start.
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Rand implements simnet.Env.
func (n *Node) Rand() *rand.Rand { return n.rng }

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	return Stats{
		Sent:               n.Sent.Load(),
		Received:           n.Received.Load(),
		EventsDropped:      n.eventsDropped.Load(),
		DecodeErrors:       n.decodeErrors.Load(),
		SendDrops:          n.sendDrops.Load(),
		SubmitBackpressure: n.submitBackoff.Load(),
	}
}

// Send implements simnet.Env: the message is encoded into its frame on
// the caller's goroutine and enqueued, without blocking, onto the peer's
// outbound queue (self sends loop back through the event queue
// unencoded). The peer's writer goroutine owns delivery — dialing,
// backoff, redial and write deadlines — so Send never sleeps and never
// blocks the caller, whatever state the peer is in. A full peer queue
// drops the oldest queued frame to make room: protocol traffic tolerates
// loss via quorums and catch-up, and displacing the oldest frame
// preserves the freshest consensus state. Sends to unknown peers or after
// Close are dropped, and so is a message that has no frame, counted in
// the peer's drops.
func (n *Node) Send(to types.ReplicaID, msg simnet.Message) {
	if to == n.cfg.Self {
		n.enqueue(event{kind: 1, from: to, msg: msg})
		return
	}
	p, err := n.peerFor(to)
	if err != nil {
		return
	}
	if frame, err := p.frame(msg); err == nil {
		p.enqueue(frame)
	}
}

// TrySend is Send with fail-fast backpressure instead of drop-oldest:
// a full peer queue returns ErrBackpressure and displaces nothing. For
// callers that prefer an explicit overload verdict over best-effort
// delivery (client-facing edges, tests).
func (n *Node) TrySend(to types.ReplicaID, msg simnet.Message) error {
	if to == n.cfg.Self {
		select {
		case n.events <- event{kind: 1, from: to, msg: msg}:
			return nil
		default:
			return ErrBackpressure
		}
	}
	p, err := n.peerFor(to)
	if err != nil {
		return err
	}
	frame, err := p.frame(msg)
	if err != nil {
		return err
	}
	return p.tryEnqueue(frame)
}

// peerFor returns (creating and starting its writer if necessary) the
// peer record for a replica ID.
func (n *Node) peerFor(to types.ReplicaID) (*peer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if p, ok := n.peers[to]; ok {
		return p, nil
	}
	addr, ok := n.cfg.Peers[to]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	p := newPeer(n, to, addr)
	n.peers[to] = p
	n.wg.Add(1)
	go p.writeLoop()
	return p, nil
}

// SetTimer implements simnet.Env with a real timer feeding the loop.
func (n *Node) SetTimer(d time.Duration, payload any) simnet.TimerID {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	n.nextTimer++
	id := n.nextTimer
	n.timers[id] = time.AfterFunc(d, func() {
		n.timerMu.Lock()
		_, live := n.timers[id]
		delete(n.timers, id)
		n.timerMu.Unlock()
		if live {
			n.enqueueSticky(event{kind: 2, payload: payload})
		}
	})
	return id
}

// CancelTimer implements simnet.Env.
func (n *Node) CancelTimer(id simnet.TimerID) {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	if t, ok := n.timers[id]; ok {
		t.Stop()
		delete(n.timers, id)
	}
}

// Do runs fn on the event loop — the only safe way to touch the handler's
// state from outside (e.g., submitting to a mempool).
func (n *Node) Do(fn func()) { n.enqueueSticky(event{kind: 3, fn: fn}) }

// enqueue is the lossy path for message events: the event loop itself
// feeds it (self sends), so it must never block — a full queue drops
// the event and counts it.
func (n *Node) enqueue(ev event) {
	select {
	case n.events <- ev:
	default:
		n.eventsDropped.Add(1)
		if n.warnDrop.allow(time.Second) {
			n.cfg.Logger.Warnf("transport: event queue full, dropped %d events so far", n.eventsDropped.Load())
		}
	}
}

// enqueueSticky is the lossless path for timers and closures: those
// events carry obligations (a Do caller is waiting, a protocol timeout
// must fire), so they wait for queue space instead of being dropped —
// bounded by shutdown, which releases them.
func (n *Node) enqueueSticky(ev event) {
	select {
	case n.events <- ev:
	case <-n.stopLoop:
	}
}

// Serve listens, accepts peers and runs the event loop until Close. It
// blocks; run it on its own goroutine if needed.
func (n *Node) Serve() error {
	ln, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", n.cfg.Listen, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	n.listener = ln
	n.mu.Unlock()

	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n.mu.Lock()
			if n.closed {
				n.mu.Unlock()
				conn.Close()
				return
			}
			n.inbound[conn] = struct{}{}
			n.mu.Unlock()
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				defer func() {
					n.mu.Lock()
					delete(n.inbound, conn)
					n.mu.Unlock()
				}()
				n.readLoop(conn)
			}()
		}
	}()

	// Event loop: serializes all handler invocations. Close trips
	// stopLoop only after every reader and writer has exited, so the
	// drain below sees the complete backlog and nothing new.
	for {
		select {
		case ev := <-n.events:
			n.dispatch(ev)
		case <-n.stopLoop:
			for {
				select {
				case ev := <-n.events:
					n.dispatch(ev)
				default:
					return nil
				}
			}
		}
	}
}

func (n *Node) dispatch(ev event) {
	switch ev.kind {
	case 1:
		n.Received.Add(1)
		n.handler.OnMessage(ev.from, ev.msg)
	case 2:
		n.handler.OnTimer(ev.payload)
	case 3:
		ev.fn()
	}
}

// readLoop serves one inbound connection. Its first byte says what it
// is: the peer preamble starts a peer link, anything else is a client
// (serveClient). A frame this node cannot decode, or refuses, is counted
// and ends the connection; the peer redials.
func (n *Node) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, maxBatch)
	first, err := br.Peek(1)
	if err == nil {
		if first[0] == preambleByte {
			err = n.readPeer(br)
		} else {
			err = n.serveClient(conn, br)
		}
	}
	if err != nil && !isConnClosed(err) {
		n.decodeErrors.Add(1)
		if n.warnDecode.allow(time.Second) {
			n.cfg.Logger.Warnf("transport: decode error from %s (%d total): %v",
				conn.RemoteAddr(), n.decodeErrors.Load(), err)
		}
	}
}

// readPeer reads a peer link's preamble, then its frames, each one an
// event from the sender the preamble names.
func (n *Node) readPeer(r io.Reader) error {
	from, err := readPreamble(r)
	if err != nil {
		return err
	}
	for {
		msg, err := readFrame(r)
		if err != nil {
			return err
		}
		n.enqueue(event{kind: 1, from: from, msg: msg})
	}
}

// isConnClosed reports whether a decode error is a connection ending
// (orderly close, reset, shutdown) rather than a stream this node
// failed to parse. Only the latter counts as a decode error.
func isConnClosed(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr) // resets, timeouts, other socket-level failures
}

// Close stops the node: listener, connections, writers, then the event
// loop. Shutdown is staged — I/O goroutines are stopped and awaited
// first, the loop drains its remaining backlog last — so everything a
// reader enqueued before dying is still handled (queued commits persist
// through a graceful shutdown), and Close never blocks on a full event
// queue: the loop is told to stop via stopLoop, not via a sentinel that
// would need queue space.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	close(n.stopIO)
	if n.listener != nil {
		n.listener.Close()
	}
	for _, p := range n.peers {
		p.closeConn()
	}
	for conn := range n.inbound {
		conn.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	close(n.stopLoop)
}
