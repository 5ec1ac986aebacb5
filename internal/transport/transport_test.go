package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// echoHandler counts messages and echoes pings back to the sender.
type echoHandler struct {
	node *Node
	mu   sync.Mutex
	got  []string
}

type ping struct{ Text string }
type pong struct{ Text string }

func (h *echoHandler) OnMessage(from types.ReplicaID, msg simnet.Message) {
	switch m := msg.(type) {
	case *ping:
		h.node.Send(from, &pong{Text: m.Text})
	case *pong:
		h.mu.Lock()
		h.got = append(h.got, m.Text)
		h.mu.Unlock()
	}
}

func (h *echoHandler) OnTimer(payload any) {
	h.mu.Lock()
	h.got = append(h.got, fmt.Sprintf("timer:%v", payload))
	h.mu.Unlock()
}

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
	RegisterWireTypes()
	registerTestTypes()
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

	nodes[0].Do(func() { nodes[0].Send(2, &ping{Text: "hello"}) })

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
	RegisterWireTypes()
	registerTestTypes()
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
	RegisterWireTypes()
	registerTestTypes()
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	h := &echoHandler{node: n}
	n.SetHandler(h)
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	// Self-ping loops back through the queue: the handler replies to
	// itself with a pong.
	n.Do(func() { n.Send(1, &ping{Text: "self"}) })
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
	RegisterWireTypes()
	registerTestTypes()
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
		var env envelope
		if err := gob.NewDecoder(conn).Decode(&env); err != nil {
			return
		}
		if p, ok := env.Msg.(*ping); ok {
			got <- p.Text
		}
	}()

	start := time.Now()
	n.Send(2, &ping{Text: "late"})
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
	RegisterWireTypes()
	registerTestTypes()
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
		n.Send(2, &ping{Text: "doomed"})
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
	RegisterWireTypes()
	registerTestTypes()
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
			a.Send(3, &ping{Text: "void"}) // dead peer first
			a.Send(2, &ping{Text: fmt.Sprintf("live-%d", i)})
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
	RegisterWireTypes()
	registerTestTypes()
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
		n.Send(2, &ping{Text: fmt.Sprintf("%d", i)})
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

// TestTrySendBackpressure pins the fail-fast flavor: a full queue
// returns ErrBackpressure and displaces nothing.
func TestTrySendBackpressure(t *testing.T) {
	RegisterWireTypes()
	registerTestTypes()
	addrs := freePorts(t, 2) // addrs[1] never listens
	peers := map[types.ReplicaID]string{1: addrs[0], 2: addrs[1]}
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: peers,
		SendQueueSize: 4,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()

	var hit bool
	for i := 0; i < 50 && !hit; i++ {
		if err := n.TrySend(2, &ping{Text: "x"}); err == ErrBackpressure {
			hit = true
		}
	}
	if !hit {
		t.Fatal("TrySend never returned ErrBackpressure against a full queue")
	}
	if drops := n.PeerHealthFor(2).Drops; drops != 0 {
		t.Fatalf("TrySend displaced %d frames, want 0", drops)
	}
}

// TestSendUnknownPeerFailsFast pins that an ID with no address is
// dropped immediately, without a queue or a writer.
func TestSendUnknownPeerFailsFast(t *testing.T) {
	RegisterWireTypes()
	registerTestTypes()
	addrs := freePorts(t, 1)
	n := NewNode(Config{Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{}})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	n.Send(99, &ping{Text: "nowhere"})
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
	RegisterWireTypes()
	registerTestTypes()
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
		n.Send(1, &ping{Text: "filler"})
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
	registerTestTypes()
	addrs := freePorts(t, 1)
	n := NewNode(Config{
		Self: 1, Listen: addrs[0], Peers: map[types.ReplicaID]string{},
		QueueSize: 2,
	})
	n.SetHandler(&echoHandler{node: n})
	go func() { _ = n.Serve() }()
	defer n.Close()
	time.Sleep(20 * time.Millisecond)

	submit := func() SubmitAck {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
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
		n.Send(1, &ping{Text: "filler"})
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
	RegisterWireTypes()
	registerTestTypes()
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
				a.Send(2, &ping{Text: fmt.Sprintf("seq-%d", i)})
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

var registerOnce sync.Once

// registerTestTypes registers the test-only ping/pong frames exactly once
// (gob.Register panics on duplicates).
func registerTestTypes() {
	registerOnce.Do(func() {
		gob.Register(&ping{})
		gob.Register(&pong{})
	})
}
