package simnet

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/types"
)

// recorder logs every delivery with its virtual time.
type recorder struct {
	env    Env
	events []string
	at     []time.Duration
	onMsg  func(from types.ReplicaID, msg Message)
}

func (r *recorder) OnMessage(from types.ReplicaID, msg Message) {
	if s, ok := msg.(string); ok {
		r.events = append(r.events, s)
		r.at = append(r.at, r.env.Now())
	}
	if r.onMsg != nil {
		r.onMsg(from, msg)
	}
}

func (r *recorder) OnTimer(payload any) {
	r.events = append(r.events, "timer:"+payload.(string))
	r.at = append(r.at, r.env.Now())
}

func build(cfg Config, n int) (*Network, []*recorder) {
	net := New(cfg)
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		i := i
		net.AddNode(types.ReplicaID(i+1), func(env Env) Handler {
			recs[i] = &recorder{env: env}
			return recs[i]
		})
	}
	return net, recs
}

func TestDeliveryWithLatency(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(50 * time.Millisecond), Seed: 1}, 2)
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "hello")
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[1].events) != 1 || recs[1].events[0] != "hello" {
		t.Fatalf("node 2 events = %v", recs[1].events)
	}
	if got := recs[1].at[0]; got < 50*time.Millisecond || got > 60*time.Millisecond {
		t.Fatalf("delivery at %v, want ≈50ms", got)
	}
}

func TestSelfSendIsImmediate(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Hour), Seed: 1}, 1)
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(_ types.ReplicaID, msg Message) {
		if msg == "kick" {
			recs[0].env.Send(1, "self")
		}
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[0].events) != 2 || recs[0].events[1] != "self" {
		t.Fatalf("events = %v", recs[0].events)
	}
	if recs[0].at[1] > time.Millisecond {
		t.Fatalf("self delivery at %v, want ≈0", recs[0].at[1])
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Seed: 1}, 1)
	var cancelID TimerID
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.SetTimer(100*time.Millisecond, "fire")
		cancelID = recs[0].env.SetTimer(50*time.Millisecond, "cancelled")
		recs[0].env.CancelTimer(cancelID)
	}
	net.RunUntilQuiet(time.Minute)
	want := []string{"kick", "timer:fire"}
	if len(recs[0].events) != 2 || recs[0].events[1] != want[1] {
		t.Fatalf("events = %v, want %v", recs[0].events, want)
	}
	if got := recs[0].at[1]; got < 100*time.Millisecond {
		t.Fatalf("timer fired early at %v", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		net, recs := build(Config{Latency: latency.Uniform(time.Millisecond, 20*time.Millisecond), Seed: 99}, 3)
		for i := range recs {
			i := i
			recs[i].onMsg = func(_ types.ReplicaID, msg Message) {
				if msg == "kick" {
					recs[i].env.Send(types.ReplicaID((i+1)%3+1), "ping")
				}
			}
		}
		net.Inject(1, 1, "kick", 0)
		net.Inject(1, 2, "kick", 0)
		net.Inject(1, 3, "kick", 0)
		net.RunUntilQuiet(time.Minute)
		var all []string
		for _, r := range recs {
			all = append(all, r.events...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// costed is a message with an explicit cost profile.
type costed struct {
	bytes  int
	sigops int
}

func (c costed) SimBytes() int  { return c.bytes }
func (c costed) SimSigOps() int { return c.sigops }

func TestCPUCostSerializesProcessing(t *testing.T) {
	cost := CostModel{SigVerify: 10 * time.Millisecond}
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Cost: cost, Seed: 1}, 2)
	recs[0].onMsg = func(_ types.ReplicaID, msg Message) {
		if msg == "kick" {
			// Two messages with 10 sig ops each: the second waits for the
			// first's 100 ms of verification.
			recs[0].env.Send(2, costed{sigops: 10})
			recs[0].env.Send(2, costed{sigops: 10})
		}
	}
	rec2 := &recorder{}
	_ = rec2
	var arrivals []time.Duration
	net.Trace = func(at time.Duration, _, to types.ReplicaID, _ Message) {
		if to == 2 {
			arrivals = append(arrivals, at)
		}
	}
	net.Inject(1, 1, "kick", 0)
	net.RunUntilQuiet(time.Minute)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 95*time.Millisecond {
		t.Fatalf("second message processed after %v, want ≥ ~100ms (serial CPU)", gap)
	}
}

func TestSendCostStaggersBroadcast(t *testing.T) {
	cost := CostModel{SendPerByte: 10 * time.Nanosecond}
	net, _ := build(Config{Latency: latency.Fixed(0), Cost: cost, Seed: 1}, 3)
	var arrivals []time.Duration
	net.Trace = func(at time.Duration, _, to types.ReplicaID, msg Message) {
		if _, ok := msg.(costed); ok {
			arrivals = append(arrivals, at)
		}
	}
	net.Inject(1, 1, "kick", 0)
	h := net.Handler(1).(*recorder)
	h.onMsg = func(types.ReplicaID, Message) {
		// 1 MB to each peer: second departure is ~10ms after the first.
		h.env.Send(2, costed{bytes: 1 << 20})
		h.env.Send(3, costed{bytes: 1 << 20})
	}
	net.RunUntilQuiet(time.Minute)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if gap := arrivals[1] - arrivals[0]; gap < 9*time.Millisecond {
		t.Fatalf("broadcast not staggered: gap %v", gap)
	}
}

func TestDownNodesDropTraffic(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Seed: 1}, 2)
	net.SetUp(2, false)
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "to-down-node")
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[1].events) != 0 {
		t.Fatalf("down node received %v", recs[1].events)
	}
	if net.Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestDropRule(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Seed: 1}, 2)
	net.DropRule = func(from, to types.ReplicaID, _ Message) bool {
		return from == 1 && to == 2
	}
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "filtered")
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[1].events) != 0 {
		t.Fatalf("drop rule ignored: %v", recs[1].events)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Second), Seed: 1}, 2)
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "later")
	}
	net.Run(500 * time.Millisecond)
	if len(recs[1].events) != 0 {
		t.Fatal("message delivered before its time")
	}
	if net.Pending() == 0 {
		t.Fatal("pending event lost")
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[1].events) != 1 {
		t.Fatal("message lost after deadline resume")
	}
}

func TestDeliverRuleRewritesAndDrops(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Seed: 1}, 2)
	net.DeliverRule = func(from, to types.ReplicaID, msg Message) Message {
		if s, ok := msg.(string); ok {
			switch s {
			case "rewrite-me":
				return "rewritten"
			case "swallow-me":
				return nil
			}
		}
		return msg
	}
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "rewrite-me")
		recs[0].env.Send(2, "swallow-me")
		recs[0].env.Send(2, "untouched")
	}
	dropped := net.Dropped
	net.RunUntilQuiet(time.Minute)
	want := []string{"rewritten", "untouched"}
	if len(recs[1].events) != 2 || recs[1].events[0] != want[0] || recs[1].events[1] != want[1] {
		t.Fatalf("node 2 events = %v, want %v", recs[1].events, want)
	}
	if net.Dropped != dropped+1 {
		t.Fatalf("Dropped = %d, want %d (swallowed delivery counted)", net.Dropped, dropped+1)
	}
}

// TestDeliverRuleSeesInFlightMessages pins the delivery-time semantics
// that distinguish DeliverRule from DropRule: a rule installed while a
// message is already in flight still intercepts it.
func TestDeliverRuleSeesInFlightMessages(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(100 * time.Millisecond), Seed: 1}, 2)
	net.Inject(1, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.Send(2, "in-flight")
	}
	net.Run(50 * time.Millisecond) // message sent, not yet delivered
	net.DeliverRule = func(_, _ types.ReplicaID, msg Message) Message {
		if msg == "in-flight" {
			return "intercepted"
		}
		return msg
	}
	net.RunUntilQuiet(time.Minute)
	if len(recs[1].events) != 1 || recs[1].events[0] != "intercepted" {
		t.Fatalf("node 2 events = %v, want [intercepted]", recs[1].events)
	}
}

// TestDeliverRuleEpochScoping is the restart-vs-injection interaction the
// conformance harness depends on: a rule mutating messages for one
// incarnation of a node must stand down once ReplaceHandler restarts it,
// so the fresh incarnation never sees mutations aimed at its previous
// life. Epoch is the handle that makes the rule self-limiting.
func TestDeliverRuleEpochScoping(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(10 * time.Millisecond), Seed: 1}, 2)
	const victim = types.ReplicaID(1)
	if got := net.Epoch(victim); got != 0 {
		t.Fatalf("fresh node epoch = %d, want 0", got)
	}
	// The rule captures the victim's epoch at install time and mutates
	// only deliveries to that incarnation.
	installEpoch := net.Epoch(victim)
	mutated := 0
	net.DeliverRule = func(_, to types.ReplicaID, msg Message) Message {
		if to == victim && net.Epoch(victim) == installEpoch {
			if s, ok := msg.(string); ok {
				mutated++
				return "mutated:" + s
			}
		}
		return msg
	}
	net.Inject(2, victim, "pre-restart", 0)
	net.Run(50 * time.Millisecond)
	if len(recs[0].events) != 1 || recs[0].events[0] != "mutated:pre-restart" {
		t.Fatalf("pre-restart events = %v, want [mutated:pre-restart]", recs[0].events)
	}

	// Restart the victim with a message already in flight: it was sent at
	// the old incarnation but must arrive unmutated at the new one.
	net.Inject(2, victim, "in-flight", 5*time.Millisecond)
	var restarted *recorder
	net.ReplaceHandler(victim, func(env Env) Handler {
		restarted = &recorder{env: env}
		return restarted
	})
	if got := net.Epoch(victim); got != installEpoch+1 {
		t.Fatalf("post-restart epoch = %d, want %d", got, installEpoch+1)
	}
	net.Inject(2, victim, "post-restart", 10*time.Millisecond)
	net.RunUntilQuiet(time.Minute)

	want := []string{"in-flight", "post-restart"}
	if len(restarted.events) != 2 || restarted.events[0] != want[0] || restarted.events[1] != want[1] {
		t.Fatalf("restarted node events = %v, want %v (no stale-epoch mutations)", restarted.events, want)
	}
	if mutated != 1 {
		t.Fatalf("mutated %d deliveries, want 1 (pre-restart only)", mutated)
	}
}

// TestExhaustedFlag pins MaxEvents surfacing: a run that hits the budget
// sets Exhausted, delivers no more than the budget and leaves the rest
// queued instead of reporting a drained queue.
func TestExhaustedFlag(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(time.Millisecond), Seed: 7, MaxEvents: 200}, 6)
	for i, r := range recs {
		i, r := i, r
		r.onMsg = func(types.ReplicaID, Message) {
			// Every delivery fans out to two peers: the traffic never ends.
			r.env.Send(types.ReplicaID((i+1)%6+1), "ping")
			r.env.Send(types.ReplicaID((i+2)%6+1), "ping")
		}
	}
	for i := 0; i < 3; i++ {
		net.Inject(100, types.ReplicaID(i+1), "seed", 0)
	}
	net.RunUntilQuiet(10 * time.Second)
	if !net.Exhausted {
		t.Fatalf("Exhausted not set (delivered %d, pending %d)", net.Delivered, net.Pending())
	}
	if net.Delivered > 200 {
		t.Fatalf("delivered %d beyond MaxEvents 200", net.Delivered)
	}
	if net.Pending() == 0 {
		t.Fatal("queue drained, exhaustion test is vacuous")
	}
}

// TestReplaceHandlerRestartsNode pins restart semantics: the fresh
// handler receives new traffic, timers armed by the old incarnation are
// dropped, and timers armed by the new incarnation fire.
func TestReplaceHandlerRestartsNode(t *testing.T) {
	net, recs := build(Config{Latency: latency.Fixed(10 * time.Millisecond), Seed: 1}, 2)
	// Old incarnation arms a timer far in the future.
	net.Inject(2, 1, "kick", 0)
	recs[0].onMsg = func(types.ReplicaID, Message) {
		recs[0].env.SetTimer(500*time.Millisecond, "stale")
	}
	net.Run(50 * time.Millisecond)

	var restarted *recorder
	net.ReplaceHandler(1, func(env Env) Handler {
		restarted = &recorder{env: env}
		return restarted
	})
	// A message sent after the restart reaches the new handler; the stale
	// timer never fires on it.
	net.Inject(2, 1, "fresh", 0)
	restarted.onMsg = func(types.ReplicaID, Message) {
		restarted.env.SetTimer(20*time.Millisecond, "alive")
	}
	net.RunUntilQuiet(time.Minute)
	want := []string{"fresh", "timer:alive"}
	if len(restarted.events) != 2 || restarted.events[0] != want[0] || restarted.events[1] != want[1] {
		t.Fatalf("restarted node events = %v, want %v", restarted.events, want)
	}
	// The old recorder saw only its own pre-restart traffic.
	if len(recs[0].events) != 1 || recs[0].events[0] != "kick" {
		t.Fatalf("old incarnation events = %v", recs[0].events)
	}
}
