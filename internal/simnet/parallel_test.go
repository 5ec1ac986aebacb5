package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
)

// chatter is a stress handler for the window executor: on every message
// it fans out to a few peers, self-sends, arms short timers (often inside
// the lookahead window), cancels some of them, and consumes its per-node
// RNG — everything the conservative window has to replay exactly. Each
// node records its own delivery log (handler-owned state, safe in both
// modes).
type chatter struct {
	env      Env
	peers    []types.ReplicaID
	log      []string
	lastTid  TimerID
	msgCount int
	maxSends int
}

type ping struct {
	Hop  int
	Tag  string
	Size int
}

func (p *ping) SimBytes() int  { return p.Size }
func (p *ping) SimSigOps() int { return p.Hop % 3 }

func (c *chatter) OnMessage(from types.ReplicaID, msg Message) {
	m := msg.(*ping)
	c.log = append(c.log, fmt.Sprintf("m f=%d hop=%d tag=%s now=%d", from, m.Hop, m.Tag, c.env.Now()))
	c.msgCount++
	if c.msgCount > c.maxSends {
		return
	}
	// Fan out to a deterministic, RNG-influenced subset.
	r := c.env.Rand()
	for i := 0; i < 2; i++ {
		to := c.peers[r.Intn(len(c.peers))]
		c.env.Send(to, &ping{Hop: m.Hop + 1, Tag: m.Tag, Size: 100 + r.Intn(400)})
	}
	switch m.Hop % 4 {
	case 0:
		// Self-send: lands at the departure time, often mid-window.
		c.env.Send(c.env.Self(), &ping{Hop: m.Hop + 1, Tag: m.Tag + "+self", Size: 64})
	case 1:
		// Short timer: well inside the lookahead window.
		c.lastTid = c.env.SetTimer(time.Duration(r.Intn(200))*time.Microsecond, m.Hop)
	case 2:
		// Arm then immediately cancel (the cancel must win in both modes).
		id := c.env.SetTimer(50*time.Microsecond, -m.Hop)
		c.env.CancelTimer(id)
	case 3:
		// Cancel whatever short timer is still pending, maybe too late.
		c.env.CancelTimer(c.lastTid)
		c.env.SetTimer(3*time.Millisecond, m.Hop*10)
	}
}

func (c *chatter) OnTimer(payload any) {
	c.log = append(c.log, fmt.Sprintf("t p=%v now=%d", payload, c.env.Now()))
	if v, ok := payload.(int); ok && v >= 0 && c.msgCount <= c.maxSends {
		to := c.peers[v%len(c.peers)]
		c.env.Send(to, &ping{Hop: v + 1, Tag: "tmr", Size: 128})
	}
}

// buildChatterNet wires nNodes chatter handlers over the given latency
// model and returns the network plus the per-node handlers.
func buildChatterNet(nNodes int, model latency.Model, cost CostModel, seqSim bool, maxEvents int) (*Network, []*chatter) {
	SequentialSim = seqSim
	n := New(Config{Latency: model, Cost: cost, Seed: 7, MaxEvents: maxEvents})
	SequentialSim = false
	peers := make([]types.ReplicaID, nNodes)
	for i := range peers {
		peers[i] = types.ReplicaID(i + 1)
	}
	handlers := make([]*chatter, nNodes)
	for i, id := range peers {
		i := i
		n.AddNode(id, func(env Env) Handler {
			h := &chatter{env: env, peers: peers, maxSends: 400}
			handlers[i] = h
			return h
		})
	}
	return n, handlers
}

// fingerprint summarizes everything the two modes must agree on.
func fingerprint(n *Network, handlers []*chatter) string {
	out := fmt.Sprintf("clock=%d delivered=%d dropped=%d bytes=%d pending=%d exhausted=%v\n",
		n.Now(), n.Delivered, n.Dropped, n.BytesSent, n.Pending(), n.Exhausted)
	for i, h := range handlers {
		out += fmt.Sprintf("node %d (%d events):\n", i+1, len(h.log))
		for _, l := range h.log {
			out += "  " + l + "\n"
		}
	}
	return out
}

// runChatter drives the network through several Run segments (so window
// boundaries interleave with Run deadlines) and injected workload.
func runChatter(t *testing.T, model latency.Model, cost CostModel, seqSim bool, maxEvents int,
	rules func(*Network)) string {
	t.Helper()
	n, handlers := buildChatterNet(6, model, cost, seqSim, maxEvents)
	if rules != nil {
		rules(n)
	}
	for i := 0; i < 3; i++ {
		n.Inject(100, types.ReplicaID(i+1), &ping{Hop: 0, Tag: fmt.Sprintf("seed%d", i), Size: 256}, time.Duration(i)*time.Millisecond)
	}
	n.Run(40 * time.Millisecond)
	n.Inject(100, 2, &ping{Hop: 0, Tag: "mid", Size: 256}, 0)
	n.Run(70 * time.Millisecond)
	n.RunUntilQuiet(500 * time.Millisecond)
	return fingerprint(n, handlers)
}

// widenPool makes sure the shared worker pool is multi-worker even on a
// single-core host, so the parallel path actually runs concurrently.
func widenPool() {
	prev := runtime.GOMAXPROCS(4)
	pipeline.Shared()
	runtime.GOMAXPROCS(prev)
}

// TestParallelMatchesSequential is the window executor's core contract:
// for a latency model with a positive lower bound, parallel windows must
// reproduce the sequential loop bit for bit — per-node delivery logs
// (timestamps included), the virtual clock, event counters, bytes, and
// the pending queue length — across cost models and fault rules.
func TestParallelMatchesSequential(t *testing.T) {
	widenPool()
	models := []struct {
		name  string
		model latency.Model
	}{
		{"uniform", latency.Uniform(900*time.Microsecond, 7*time.Millisecond)},
		{"aws", latency.NewAWSMatrix()},
		{"aws-jittered", latency.Jittered(latency.NewAWSMatrix(), 0.2)},
		{"fixed", latency.Fixed(2 * time.Millisecond)},
	}
	costs := []struct {
		name string
		cost CostModel
	}{
		{"zero-cost", CostModel{}},
		{"default-cost", DefaultCostModel()},
	}
	for _, m := range models {
		for _, c := range costs {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				seq := runChatter(t, m.model, c.cost, true, 0, nil)
				par := runChatter(t, m.model, c.cost, false, 0, nil)
				if seq != par {
					da, db := diffHead(seq, par)
					t.Fatalf("parallel diverged from sequential:\n--- seq\n%s\n--- par\n%s", da, db)
				}
			})
		}
	}
}

// TestParallelMatchesSequentialWithRules exercises DropRule and DelayRule
// under windows: drops gate the sender's bandwidth charge on worker
// goroutines, delays are added during the merge.
func TestParallelMatchesSequentialWithRules(t *testing.T) {
	widenPool()
	rules := func(n *Network) {
		n.DropRule = func(from, to types.ReplicaID, _ Message) bool {
			return from == 3 && to == 5 // one severed link
		}
		n.DelayRule = func(from, to types.ReplicaID, _ Message) time.Duration {
			if from == 2 {
				return 4 * time.Millisecond // slow replica
			}
			return 0
		}
	}
	model := latency.Uniform(1*time.Millisecond, 6*time.Millisecond)
	seq := runChatter(t, model, DefaultCostModel(), true, 0, rules)
	par := runChatter(t, model, DefaultCostModel(), false, 0, rules)
	if seq != par {
		da, db := diffHead(seq, par)
		t.Fatalf("parallel diverged under rules:\n--- seq\n%s\n--- par\n%s", da, db)
	}
	if seq == runChatter(t, model, DefaultCostModel(), true, 0, nil) {
		t.Fatal("rules had no effect; test is vacuous")
	}
}

// TestParallelMatchesSequentialDownNodes covers deliveries to down nodes
// (dropped at pop time in both modes) and wake-ups between Run calls.
func TestParallelMatchesSequentialDownNodes(t *testing.T) {
	widenPool()
	run := func(seqSim bool) string {
		n, handlers := buildChatterNet(6, latency.Fixed(1500*time.Microsecond), DefaultCostModel(), seqSim, 0)
		for i := 0; i < 3; i++ {
			n.Inject(100, types.ReplicaID(i+1), &ping{Hop: 0, Tag: "seed", Size: 256}, 0)
		}
		n.Run(20 * time.Millisecond)
		n.SetUp(4, false)
		n.Run(40 * time.Millisecond)
		n.SetUp(4, true)
		n.RunUntilQuiet(300 * time.Millisecond)
		return fingerprint(n, handlers)
	}
	seq, par := run(true), run(false)
	if seq != par {
		da, db := diffHead(seq, par)
		t.Fatalf("parallel diverged with down nodes:\n--- seq\n%s\n--- par\n%s", da, db)
	}
}

// TestParallelUnboundedModelFallsBack pins the automatic fallback: a
// model without a delay lower bound (Gamma, plain ModelFunc) must yield
// zero lookahead and run sequentially — and still complete correctly.
func TestParallelUnboundedModelFallsBack(t *testing.T) {
	n, _ := buildChatterNet(6, latency.GammaInternet(), CostModel{}, false, 0)
	if n.Lookahead() != 0 {
		t.Fatalf("lookahead %v for unbounded model, want 0", n.Lookahead())
	}
	if n.parallelOK() {
		t.Fatal("parallelOK for unbounded model")
	}
	n.Inject(100, 1, &ping{Hop: 0, Tag: "x", Size: 64}, 0)
	if n.RunUntilQuiet(time.Second) == 0 {
		t.Fatal("nothing ran")
	}
}

// TestTraceParallelMatchesSequential pins the Trace replay contract:
// installing Trace must NOT disable parallel windows (it used to force
// the sequential loop silently), and the hook must observe every
// delivery in the exact order, with the exact timestamps, senders,
// receivers and messages the sequential loop produces — the merge
// replays recorded deliveries at their sequential pop positions.
func TestTraceParallelMatchesSequential(t *testing.T) {
	widenPool()
	run := func(seqSim bool) (string, string) {
		n, handlers := buildChatterNet(6, latency.Uniform(900*time.Microsecond, 7*time.Millisecond), DefaultCostModel(), seqSim, 0)
		var trace string
		n.Trace = func(at time.Duration, from, to types.ReplicaID, msg Message) {
			p := msg.(*ping)
			trace += fmt.Sprintf("at=%d %d->%d hop=%d tag=%s\n", at, from, to, p.Hop, p.Tag)
		}
		if n.parallelOK() == seqSim {
			t.Fatalf("parallel windows usable = %v in mode seqSim=%v: Trace must not disable them, SequentialSim must", !seqSim, seqSim)
		}
		for i := 0; i < 3; i++ {
			n.Inject(100, types.ReplicaID(i+1), &ping{Hop: 0, Tag: fmt.Sprintf("seed%d", i), Size: 256}, time.Duration(i)*time.Millisecond)
		}
		n.Run(40 * time.Millisecond)
		n.RunUntilQuiet(500 * time.Millisecond)
		return trace, fingerprint(n, handlers)
	}
	seqTrace, seqFp := run(true)
	parTrace, parFp := run(false)
	if seqTrace == "" {
		t.Fatal("trace never fired")
	}
	if seqTrace != parTrace {
		da, db := diffHead(seqTrace, parTrace)
		t.Fatalf("trace streams diverged:\n--- seq\n%s\n--- par\n%s", da, db)
	}
	if seqFp != parFp {
		da, db := diffHead(seqFp, parFp)
		t.Fatalf("fingerprints diverged with Trace installed:\n--- seq\n%s\n--- par\n%s", da, db)
	}
}

// TestExhaustedFlag pins MaxEvents surfacing: both modes must set
// Exhausted instead of reporting a drained queue.
func TestExhaustedFlag(t *testing.T) {
	widenPool()
	for _, seqSim := range []bool{true, false} {
		n, _ := buildChatterNet(6, latency.Fixed(time.Millisecond), CostModel{}, seqSim, 200)
		for i := 0; i < 3; i++ {
			n.Inject(100, types.ReplicaID(i+1), &ping{Hop: 0, Tag: "seed", Size: 256}, 0)
		}
		n.RunUntilQuiet(10 * time.Second)
		if !n.Exhausted {
			t.Fatalf("seqSim=%v: Exhausted not set (delivered %d, pending %d)", seqSim, n.Delivered, n.Pending())
		}
		if n.Delivered > 200 {
			t.Fatalf("seqSim=%v: delivered %d beyond MaxEvents 200", seqSim, n.Delivered)
		}
		if n.Pending() == 0 {
			t.Fatalf("seqSim=%v: queue drained, exhaustion test is vacuous", seqSim)
		}
	}
}

// TestParallelReplaceHandlerEpochs covers mid-run-adjacent restarts: a
// timer armed before ReplaceHandler must be dropped in both modes, and a
// stale cancellation must never hit a fresh incarnation's timer.
func TestParallelReplaceHandlerEpochs(t *testing.T) {
	widenPool()
	run := func(seqSim bool) string {
		n, handlers := buildChatterNet(6, latency.Fixed(1200*time.Microsecond), CostModel{}, seqSim, 0)
		for i := 0; i < 3; i++ {
			n.Inject(100, types.ReplicaID(i+1), &ping{Hop: 0, Tag: "seed", Size: 256}, 0)
		}
		n.Run(30 * time.Millisecond)
		// Restart node 2: fresh handler, stale timers dropped.
		peers := make([]types.ReplicaID, 6)
		for i := range peers {
			peers[i] = types.ReplicaID(i + 1)
		}
		n.ReplaceHandler(2, func(env Env) Handler {
			h := &chatter{env: env, peers: peers, maxSends: 400}
			handlers[1] = h
			return h
		})
		n.RunUntilQuiet(300 * time.Millisecond)
		return fingerprint(n, handlers)
	}
	seq, par := run(true), run(false)
	if seq != par {
		da, db := diffHead(seq, par)
		t.Fatalf("parallel diverged across restart:\n--- seq\n%s\n--- par\n%s", da, db)
	}
}

// diffHead trims two long fingerprints to the first divergent region so
// failures stay readable.
func diffHead(a, b string) (string, string) {
	const ctx = 400
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - ctx/2
	if lo < 0 {
		lo = 0
	}
	end := func(s string) int {
		if lo+ctx < len(s) {
			return lo + ctx
		}
		return len(s)
	}
	return fmt.Sprintf("...%s...", a[lo:end(a)]), fmt.Sprintf("...%s...", b[lo:end(b)])
}
