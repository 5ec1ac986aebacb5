package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// echoHandler answers every ping with a pong to its sender and records
// the pongs, timers and client submits it sees. Pings and pongs are
// SyncFrames, a peer message every node can frame: a request is a ping,
// an answer a pong.
type echoHandler struct {
	node *Node
	mu   sync.Mutex
	got  []string
}

func ping(text string) *SyncFrame { return &SyncFrame{Req: true, Payload: []byte(text)} }

func (h *echoHandler) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *SyncFrame:
		if m.Req {
			h.node.Send(from, &SyncFrame{Payload: m.Payload})
			return
		}
		h.record(string(m.Payload))
	case *SubmitTx:
		h.record("submit")
	}
}

func (h *echoHandler) record(s string) {
	h.mu.Lock()
	h.got = append(h.got, s)
	h.mu.Unlock()
}

func (h *echoHandler) OnTimer(payload any) { h.record(fmt.Sprintf("timer:%v", payload)) }

func (h *echoHandler) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.got...)
}

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTCPRoundTrip(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}

	nodes := make([]*Node, 2)
	handlers := make([]*echoHandler, 2)
	for i := range nodes {
		n := NewNode(Config{Self: types.ReplicaID(i + 1), Listen: addrs[i], Peers: peers})
		h := &echoHandler{node: n}
		n.SetHandler(h)
		nodes[i] = n
		handlers[i] = h
		go func() { _ = n.Serve() }()
	}
	defer nodes[0].Close()
	defer nodes[1].Close()
	time.Sleep(50 * time.Millisecond) // listeners up

	nodes[0].Do(func() { nodes[0].Send(2, ping("hello")) })

	waitCond(t, 5*time.Second, "round trip", func() bool {
		got := handlers[0].snapshot()
		return len(got) == 1 && got[0] == "hello"
	})
	if sent := nodes[0].Sent.Load(); sent < 1 {
		t.Fatalf("Sent = %d after a delivered frame, want >= 1", sent)
	}
	health := nodes[0].PeerHealthFor(2)
	if health.State != StateConnected {
		t.Fatalf("peer 2 state = %v after a round trip, want connected", health.State)
	}
	if health.SentMsgs < 1 || health.SentBytes == 0 {
		t.Fatalf("peer 2 health counted %d msgs / %d bytes, want > 0", health.SentMsgs, health.SentBytes)
	}
}

func TestTCPTimer(t *testing.T) {
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	h := &echoHandler{node: n}
	n.SetHandler(h)
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	n.SetTimer(30*time.Millisecond, "fire")
	cancelled := n.SetTimer(30*time.Millisecond, "cancelled")
	n.CancelTimer(cancelled)

	time.Sleep(300 * time.Millisecond)
	got := h.snapshot()
	if len(got) != 1 || got[0] != "timer:fire" {
		t.Fatalf("timer events = %v, want [timer:fire]", got)
	}
}

func TestTCPSelfSend(t *testing.T) {
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	h := &echoHandler{node: n}
	n.SetHandler(h)
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	// Self-ping loops back through the queue: the handler replies to
	// itself with a pong.
	n.Do(func() { n.Send(1, ping("self")) })
	waitCond(t, 2*time.Second, "self send", func() bool {
		got := h.snapshot()
		return len(got) == 1 && got[0] == "self"
	})
}

// TestSendSurvivesListenerGap is the flaky-listener case the writer's
// redial loop exists for: the peer's listener is down when the send is
// enqueued (a restarting process between close and re-listen) and comes
// up only after the first dial attempts have failed. The frame must
// wait in the peer queue and land once the listener exists, instead of
// being dropped on the first refused dial.
func TestSendSurvivesListenerGap(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: peers,
		SendBackoff: 15 * time.Millisecond,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	got := make(chan string, 1)
	go func() {
		time.Sleep(60 * time.Millisecond) // the gap: dials until now are refused
		ln, err := net.Listen("tcp", addrs[1])
		if err != nil {
			t.Error(err)
			return
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if from, err := readPreamble(conn); err != nil || from != 1 {
			t.Errorf("preamble names %v (%v), want replica 1", from, err)
			return
		}
		msg, err := readFrame(conn)
		if err != nil {
			t.Error(err)
			return
		}
		if f, ok := msg.(*SyncFrame); ok {
			got <- string(f.Payload)
		}
	}()

	start := time.Now()
	n.Send(2, ping("late"))
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("Send blocked for %v, want a non-blocking enqueue", elapsed)
	}
	select {
	case text := <-got:
		if text != "late" {
			t.Fatalf("received %q, want %q", text, "late")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message dropped through the listener gap")
	}
	// The receiver can decode the frame before the writer, back from its
	// write call, has reset the counter.
	waitCond(t, time.Second, "consecutive failures reset after delivery", func() bool {
		return n.PeerHealthFor(2).ConsecutiveFailures == 0
	})
}

// TestSendNonBlockingToDeadPeer pins the tentpole property: sends to a
// peer that never comes up return immediately — the caller (in real use
// the event loop) never sleeps through backoff — and the peer's health
// degrades to backoff and then suspect while frames wait in its queue.
func TestSendNonBlockingToDeadPeer(t *testing.T) {
	addrs := freePorts(t, 2) // addrs[1] never listens
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: peers,
		SendBackoff: 10 * time.Millisecond,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	for i := 0; i < 100; i++ {
		n.Send(2, ping("doomed"))
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("100 sends to a dead peer took %v, want immediate enqueues", elapsed)
	}
	if sent := n.Sent.Load(); sent != 0 {
		t.Fatalf("Sent = %d to a dead peer, want 0", sent)
	}
	waitCond(t, 5*time.Second, "peer 2 suspect", func() bool {
		return n.PeerHealthFor(2).State == StateSuspect
	})
	if h := n.PeerHealthFor(2); h.QueueLen == 0 {
		t.Fatal("no frames waiting in the dead peer's queue")
	}
}

// TestDeadPeerDoesNotDelayHealthyPeers is the starvation regression the
// per-peer queues fix: with one dead peer and one live peer, sends
// interleaved to both from the event loop must reach the live peer
// promptly — under the old blocking-retry Send, each dead-peer send
// slept through its whole backoff budget on the loop first.
func TestDeadPeerDoesNotDelayHealthyPeers(t *testing.T) {
	addrs := freePorts(t, 3) // addrs[2] never listens
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1], 3: addrs[2]}

	a := NewNode(Config{Self: 1, Listen: addrs[0], Peers: peers})
	ha := &echoHandler{node: a}
	a.SetHandler(ha)
	b := NewNode(Config{Self: 2, Listen: addrs[1], Peers: peers})
	b.SetHandler(&echoHandler{node: b})
	go func() { _ = a.Serve() }()
	go func() { _ = b.Serve() }()
	defer a.Close()
	defer b.Close()
	time.Sleep(50 * time.Millisecond)

	const rounds = 20
	start := time.Now()
	a.Do(func() {
		for i := 0; i < rounds; i++ {
			a.Send(3, ping("void")) // dead peer first
			a.Send(2, ping(fmt.Sprintf("live-%d", i)))
		}
	})
	waitCond(t, 5*time.Second, "all echoes from the live peer", func() bool {
		return len(ha.snapshot()) == rounds
	})
	// Generous CI bound; the old transport needed >= rounds * backoff
	// budget (tens of seconds) because every dead-peer send slept inline.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("healthy-peer traffic took %v behind a dead peer", elapsed)
	}
}

// TestQueueOverflowDropsOldest pins the backpressure policy for
// protocol traffic: a full peer queue displaces the oldest frame and
// counts the drop, rather than blocking the sender or dropping the
// newest state.
func TestQueueOverflowDropsOldest(t *testing.T) {
	addrs := freePorts(t, 2) // addrs[1] never listens
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: peers,
		SendQueueSize: 8,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()

	for i := 0; i < 50; i++ {
		n.Send(2, ping(fmt.Sprintf("%d", i)))
	}
	h := n.PeerHealthFor(2)
	// The writer may hold one frame in hand; everything else beyond the
	// queue capacity must have been displaced and counted.
	if h.Drops < 50-uint64(h.QueueCap)-1 {
		t.Fatalf("drops = %d with queue cap %d after 50 sends, want >= %d",
			h.Drops, h.QueueCap, 50-h.QueueCap-1)
	}
	if n.Stats().SendDrops != h.Drops {
		t.Fatalf("node drop counter %d != peer drop counter %d", n.Stats().SendDrops, h.Drops)
	}
}

// TestSendUnknownPeerFailsFast pins that an ID with no address is
// dropped immediately, without a queue or a writer.
func TestSendUnknownPeerFailsFast(t *testing.T) {
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	n.Send(99, ping("nowhere"))
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("unknown-peer send took %v, want immediate drop", elapsed)
	}
	if sent := n.Sent.Load(); sent != 0 {
		t.Fatal("unknown-peer send reported as delivered")
	}
}

// TestCloseWithSaturatedQueue is the shutdown-deadlock regression: the
// old Close pushed a stop sentinel through the event queue and blocked
// forever when the queue was full at shutdown. Close must return even
// with the loop wedged and the queue saturated.
func TestCloseWithSaturatedQueue(t *testing.T) {
	addrs := freePorts(t, 1)
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{},
		QueueSize: 4,
	})
	n.SetHandler(&echoHandler{node: n})
	served := make(chan error, 1)
	go func() { served <- n.Serve() }()
	time.Sleep(20 * time.Millisecond)

	// Wedge the event loop, then saturate the queue behind it.
	unblock := make(chan struct{})
	n.Do(func() { <-unblock })
	waitCond(t, 2*time.Second, "queue saturation", func() bool {
		before := n.Stats().EventsDropped
		n.Send(1, ping("filler"))
		return n.Stats().EventsDropped > before
	})

	done := make(chan struct{})
	go func() {
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a saturated event queue")
	}

	// The wedged loop still drains its backlog and exits once released.
	close(unblock)
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not exit after Close")
	}
}

// TestSubmitBackpressureAck pins the client-facing edge of the policy:
// a SubmitTx that lands while the event queue is full is refused with a
// typed backpressure ack on the same connection — the wallet sees the
// overload — while a submit with queue room is acked OK.
func TestSubmitBackpressureAck(t *testing.T) {
	RegisterWireTypes()
	addrs := freePorts(t, 1)
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{},
		QueueSize: 2,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	submit := func() SubmitAck { return gobSubmit(t, addrs[0]) }

	if ack := submit(); !ack.OK {
		t.Fatalf("submit with a free queue refused: %+v", ack)
	}

	// Wedge the loop and saturate the queue: the next submit must be
	// refused with the typed error.
	unblock := make(chan struct{})
	defer close(unblock)
	n.Do(func() { <-unblock })
	waitCond(t, 2*time.Second, "queue saturation", func() bool {
		before := n.Stats().EventsDropped
		n.Send(1, ping("filler"))
		return n.Stats().EventsDropped > before
	})

	ack := submit()
	if ack.OK {
		t.Fatal("submit against a saturated queue was acked OK")
	}
	if ack.Err != ErrBackpressure.Error() {
		t.Fatalf("ack error = %q, want %q", ack.Err, ErrBackpressure.Error())
	}
	if n.Stats().SubmitBackpressure == 0 {
		t.Fatal("backpressure counter not incremented")
	}
}

// TestPeerRestartUnderLoad drives the writer through a full peer
// lifecycle: steady traffic to a live peer, the peer dies mid-stream
// (health: connected → backoff/suspect), restarts on the same address,
// and the writer redials and delivers subsequent traffic (health:
// connected again) without the sender ever blocking.
func TestPeerRestartUnderLoad(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}

	mkReceiver := func() *Node {
		b := NewNode(Config{Self: 2, Listen: addrs[1], Peers: peers})
		b.SetHandler(&echoHandler{node: b})
		go func() { _ = b.Serve() }()
		return b
	}

	a := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: peers,
		SendBackoff:  10 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
	})
	ha := &echoHandler{node: a}
	a.SetHandler(ha)
	go func() { _ = a.Serve() }()
	defer a.Close()

	b := mkReceiver()
	time.Sleep(50 * time.Millisecond)

	// Sustained load for the whole test: a pinger that never stops.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				a.Send(2, ping(fmt.Sprintf("seq-%d", i)))
			}
		}
	}()

	waitCond(t, 5*time.Second, "initial traffic flowing", func() bool {
		return len(ha.snapshot()) > 3 && a.PeerHealthFor(2).State == StateConnected
	})

	// Kill the receiver: health must leave connected while load continues.
	b.Close()
	waitCond(t, 10*time.Second, "peer 2 degraded after kill", func() bool {
		s := a.PeerHealthFor(2).State
		return s == StateBackoff || s == StateSuspect
	})

	// Restart on the same address: the writer must redial and deliver.
	before := len(ha.snapshot())
	b = mkReceiver()
	defer b.Close()
	waitCond(t, 10*time.Second, "traffic resumed after restart", func() bool {
		return len(ha.snapshot()) > before && a.PeerHealthFor(2).State == StateConnected
	})
	if rc := a.PeerHealthFor(2).Reconnects; rc == 0 {
		t.Fatal("reconnect counter did not advance across the restart")
	}
}

// gobSubmit submits an empty transaction over the client socket, as
// zlb-client does, and returns the node's ack.
func gobSubmit(t *testing.T, addr string) SubmitAck {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(envelope{From: 0, Msg: &SubmitTx{Tx: nil}}); err != nil {
		t.Fatal(err)
	}
	var resp envelope
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("reading submit ack: %v", err)
	}
	ack, ok := resp.Msg.(*SubmitAck)
	if !ok {
		t.Fatalf("ack frame carries %T, want *SubmitAck", resp.Msg)
	}
	return *ack
}

// startPair serves two connected nodes, 1 and 2, each answering pings.
func startPair(t *testing.T) (a, b *Node, ha, hb *echoHandler) {
	t.Helper()
	addrs := freePorts(t, 2)
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}
	a = NewNode(Config{Self: 1, Listen: addrs[0], Peers: peers})
	b = NewNode(Config{Self: 2, Listen: addrs[1], Peers: peers})
	ha, hb = &echoHandler{node: a}, &echoHandler{node: b}
	a.SetHandler(ha)
	b.SetHandler(hb)
	go func() { _ = a.Serve() }()
	go func() { _ = b.Serve() }()
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	time.Sleep(50 * time.Millisecond) // listeners up
	return a, b, ha, hb
}

// TestClientAndPeerShareListener: one listener tells a gob client from a
// peer link by the first byte, and serves both at once.
func TestClientAndPeerShareListener(t *testing.T) {
	RegisterWireTypes()
	a, b, ha, hb := startPair(t)
	a.Do(func() { a.Send(2, ping("before")) })
	waitCond(t, 5*time.Second, "a peer round trip", func() bool { return len(ha.snapshot()) == 1 })

	if ack := gobSubmit(t, b.cfg.Listen); !ack.OK {
		t.Fatalf("client submit beside a peer link refused: %+v", ack)
	}
	a.Do(func() { a.Send(2, ping("after")) })
	waitCond(t, 5*time.Second, "the submit and a second round trip", func() bool {
		return len(ha.snapshot()) == 2 && len(hb.snapshot()) == 1
	})
	if got := hb.snapshot(); got[0] != "submit" {
		t.Fatalf("node 2 handled %v, want the submit", got)
	}
	if got := ha.snapshot(); got[0] != "before" || got[1] != "after" {
		t.Fatalf("node 1 got pongs %v, want [before after]", got)
	}
	if a.Stats().DecodeErrors+b.Stats().DecodeErrors != 0 {
		t.Fatal("decode errors on a shared listener")
	}
	if rc := a.PeerHealthFor(2).Reconnects; rc != 0 {
		t.Fatalf("the peer link reconnected %d times beside a client", rc)
	}
}

// TestRefusedStreamsCountAsDecodeErrors: a protocol message on the client
// socket, a bad preamble and an unknown preamble version are each a
// decode error that ends the connection.
func TestRefusedStreamsCountAsDecodeErrors(t *testing.T) {
	RegisterWireTypes()
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	echo := &rbc.Echo{Stmt: accountability.Signed{Signer: 2, Sig: []byte{1}}}
	preamble := appendPreamble(nil, 2)
	badMagic := append([]byte(nil), preamble...)
	badMagic[1] = 'X'
	badVersion := append([]byte(nil), preamble...)
	badVersion[5] = preambleVersion + 1
	for i, stream := range []func(net.Conn) error{
		func(c net.Conn) error { return gob.NewEncoder(c).Encode(envelope{From: 2, Msg: echo}) },
		func(c net.Conn) error { _, err := c.Write(badMagic); return err },
		func(c net.Conn) error { _, err := c.Write(badVersion); return err },
	} {
		conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := stream(conn); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("stream %d: the node answered instead of dropping the connection", i)
		}
		conn.Close()
		if got := n.Stats().DecodeErrors; got != uint64(i+1) {
			t.Fatalf("stream %d: %d decode errors, want %d", i, got, i+1)
		}
	}
	if got := n.Stats().Received; got != 0 {
		t.Fatalf("%d refused messages reached the handler", got)
	}
}

// TestBurstCoalescesWrites: frames queued faster than the writer wakes go
// out several to a write.
func TestBurstCoalescesWrites(t *testing.T) {
	a, _, ha, _ := startPair(t)
	const burst = 200
	a.Do(func() {
		for i := 0; i < burst; i++ {
			a.Send(2, ping(fmt.Sprintf("%d", i)))
		}
	})
	waitCond(t, 5*time.Second, "every pong", func() bool { return len(ha.snapshot()) == burst })
	h := a.PeerHealthFor(2)
	if h.SentMsgs != burst || h.Writes == 0 || h.Writes >= h.SentMsgs {
		t.Fatalf("%d frames in %d writes, want %d frames in fewer writes", h.SentMsgs, h.Writes, burst)
	}
	for i, got := range ha.snapshot() {
		if got != fmt.Sprintf("%d", i) {
			t.Fatalf("pong %d is %q: frames reordered", i, got)
		}
	}
}

// TestUnframeableMessageRefused: a message type with no frame kind is
// refused at Send — one drop, nothing written — and costs the live
// connection nothing: no reconnect, no health change.
func TestUnframeableMessageRefused(t *testing.T) {
	type unframed struct{ Text string }
	a, _, ha, _ := startPair(t)
	a.Do(func() { a.Send(2, ping("up")) })
	waitCond(t, 5*time.Second, "the link up", func() bool { return len(ha.snapshot()) == 1 })

	if _, err := appendFrame(nil, &unframed{"lost"}); !errors.Is(err, errNoKind) {
		t.Fatalf("framing an unframed type = %v, want errNoKind", err)
	}
	a.Send(2, &unframed{"lost"})
	a.Do(func() { a.Send(2, ping("still")) })
	waitCond(t, 5*time.Second, "traffic after the refusal", func() bool { return len(ha.snapshot()) == 2 })
	h := a.PeerHealthFor(2)
	if h.Reconnects != 0 || h.State != StateConnected || h.Drops != 1 || h.ConsecutiveFailures != 0 {
		t.Fatalf("after a refusal: %d reconnects, state %v, %d drops, %d failures; want 0, connected, 1, 0",
			h.Reconnects, h.State, h.Drops, h.ConsecutiveFailures)
	}
	a.Send(2, &unframed{"lost again"})
	if h := a.PeerHealthFor(2); h.Drops != 2 || a.Stats().SendDrops != 2 {
		t.Fatalf("after a second refusal: %d peer drops, %d node send drops; want 2 and 2", h.Drops, a.Stats().SendDrops)
	}
}
