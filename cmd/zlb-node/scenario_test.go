package main

// TestScenariosOnTCP runs every scenario registration (internal/scenario)
// that a real localhost cluster can model through scenario.RunOn, the one
// campaign loop, which checks the paper's four invariants on the deployed
// nodes. tcpCluster is that substrate: replicaNodes whose replica links
// cross the chaos proxy mesh (chaos.Net.PeersFor), while the client
// submits to the real listen addresses. Phase durations are wall-clock
// time. The substrate also makes the transport checks of every phase, for
// the faults standing in it, and times heal→agreement for every revert.

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/chaos"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

const (
	// payEvery is the client's payment interval; every running replica
	// gets each payment of the chain testClient signs from its faucet.
	payEvery    = 200 * time.Millisecond
	payAmount   = 1000
	faucetFunds = 1_000_000_000
	// pollEvery bounds how stale a check's reading is.
	pollEvery = 10 * time.Millisecond
	// stallBound is the event-loop round trip every running replica must
	// answer within while faults stand: dead, cut or slow peers cost their
	// own send queues, never the loop.
	stallBound = 2 * time.Second
	// slowReaderBps throttles every link toward a SlowReader.
	slowReaderBps = 2048
)

// link is a directed replica link of the mesh.
type link = [2]types.ReplicaID

// tcpCluster implements scenario.Runtime on real zlb-node replicas. All
// its methods run on the test goroutine.
type tcpCluster struct {
	t        *testing.T
	seed     int64
	ids      []types.ReplicaID
	addrs    []string
	dataDirs []string
	mesh     *chaos.Net
	client   *testClient
	nodes    []*replicaNode // by ID-1; nil while killed
	began    time.Time
	lastPay  time.Time
	unsent   *utxo.Transaction // signed, but no replica took it yet
	paid     int               // payments some replica took

	excluded, asleep map[types.ReplicaID]bool
	// Link faults stack: a link is cut while its count is positive.
	cuts, throttle map[link]int
	latency        map[link]time.Duration
	// slowed counts the Slow faults on each replica; parted counts the
	// standing partitions, held those whose groups cover the committee
	// and all lie below quorum.
	slowed       map[types.ReplicaID]int
	parted, held int

	// degraded marks each cut link by whether its sender has read it as
	// backoff or suspect yet.
	degraded map[link]bool
	// wakes counts each replica's Sleep cycles; rejoining holds the woken
	// replicas whose up peers' writers have not all reconnected yet.
	wakes      map[types.ReplicaID]int
	rejoining  map[types.ReplicaID]bool
	recovering []recovery
}

// recovery times one revert: from the heal until every up replica holds
// the same chain, with every payment sent before the heal applied.
type recovery struct {
	fault string
	at    time.Time
	paid  int
}

func newTCPCluster(t *testing.T, n int, seed int64) *tcpCluster {
	t.Helper()
	addrs := freeAddrs(t, n)
	mesh, err := chaos.NewNet(addrs)
	if err != nil {
		t.Fatal(err)
	}
	c := &tcpCluster{
		t: t, seed: seed, addrs: addrs, dataDirs: tempDirs(t, n), mesh: mesh,
		client:   newTestClient(t, seed, addrs),
		nodes:    make([]*replicaNode, n),
		excluded: map[types.ReplicaID]bool{}, asleep: map[types.ReplicaID]bool{},
		cuts: map[link]int{}, throttle: map[link]int{}, latency: map[link]time.Duration{},
		degraded: map[link]bool{}, slowed: map[types.ReplicaID]int{},
		wakes: map[types.ReplicaID]int{}, rejoining: map[types.ReplicaID]bool{},
	}
	for i := range n {
		c.ids = append(c.ids, types.ReplicaID(i+1))
	}
	t.Cleanup(mesh.Close) // after the replicas' own cleanups
	return c
}

func (c *tcpCluster) node(id types.ReplicaID) *replicaNode { return c.nodes[id-1] }

// up lists the running replicas whose links are not cut off by a Sleep.
func (c *tcpCluster) up() []types.ReplicaID {
	return slices.DeleteFunc(slices.Clone(c.ids), func(id types.ReplicaID) bool { return c.node(id) == nil || c.asleep[id] })
}

// onLoop runs f on the replica's event loop, bounded by stallBound.
func onLoop[T any](rn *replicaNode, f func() T) (T, error) {
	ch := make(chan T, 1)
	go rn.node.Do(func() { ch <- f() })
	select {
	case v := <-ch:
		return v, nil
	case <-time.After(stallBound):
		var zero T
		return zero, fmt.Errorf("replica %v event loop did not answer within %v", rn.cfg.Self, stallBound)
	}
}

// read runs f on id's event loop; a replica that is down or stalled
// reads as the zero value.
func read[T any](c *tcpCluster, id types.ReplicaID, f func(rn *replicaNode) T) T {
	var v T
	if rn := c.node(id); rn != nil {
		v, _ = onLoop(rn, func() T { return f(rn) })
	}
	return v
}

func height(rn *replicaNode) int { return rn.app.Ledger().Height() }

// start boots replica id with its peer list rewired through the mesh.
func (c *tcpCluster) start(id types.ReplicaID) {
	c.nodes[id-1] = startDurable(c.t, c.addrs, c.dataDirs, int(id)-1, c.seed, func(cfg *nodeConfig) {
		cfg.Peers, cfg.LogLevel, cfg.Logf = c.mesh.PeersFor(id), obs.LevelInfo, c.t.Logf
	})
}

// --- Actuators ---

// linksOf lists the directed links that satisfy keep.
func (c *tcpCluster) linksOf(keep func(from, to types.ReplicaID) bool) []link {
	var out []link
	for _, from := range c.ids {
		for _, to := range c.ids {
			if from != to && keep(from, to) {
				out = append(out, link{from, to})
			}
		}
	}
	return out
}

// cut adds delta to each link's cut count, partitioning the proxy when
// the count turns positive and healing it when the count returns to 0.
func (c *tcpCluster) cut(links []link, delta int) error {
	for _, l := range links {
		before := c.cuts[l]
		c.cuts[l] += delta
		switch {
		case before == 0 && c.cuts[l] > 0:
			c.mesh.Link(l[0], l[1]).Partition()
			c.degraded[l] = false
		case before > 0 && c.cuts[l] == 0:
			delete(c.degraded, l)
			if err := c.mesh.Link(l[0], l[1]).Heal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetUp cuts every link touching id, or heals them.
func (c *tcpCluster) SetUp(id types.ReplicaID, up bool) error {
	links := c.linksOf(func(from, to types.ReplicaID) bool { return from == id || to == id })
	if !up {
		c.asleep[id] = true
		return c.cut(links, 1)
	}
	delete(c.asleep, id)
	c.wakes[id]++
	c.rejoining[id] = true
	c.timeRevert(fmt.Sprintf("wake r%d", id))
	return c.cut(links, -1)
}

// Kill stops id's process.
func (c *tcpCluster) Kill(id types.ReplicaID) error {
	rn := c.node(id)
	if rn == nil {
		return fmt.Errorf("replica %v is already down", id)
	}
	c.nodes[id-1] = nil
	rn.Close()
	return nil
}

// Crash stops id's process, like Kill.
func (c *tcpCluster) Crash(id types.ReplicaID) error { return c.Kill(id) }

// Restart starts id again on the same address and data directory: the
// durable store's recovery and catch-up path.
func (c *tcpCluster) Restart(id types.ReplicaID) error {
	if c.node(id) != nil {
		return fmt.Errorf("replica %v still running", id)
	}
	c.timeRevert(fmt.Sprintf("restart r%d", id))
	c.start(id)
	return nil
}

// Partition cuts every link between the groups and holds the cut until
// heal, whatever extra. A partition whose groups cover the committee and
// all lie below quorum must commit nothing.
func (c *tcpCluster) Partition(groups [][]types.ReplicaID, _ time.Duration) (func() error, error) {
	of := simnet.GroupOf(groups)
	links := c.linksOf(func(from, to types.ReplicaID) bool { return of(from) >= 0 && of(to) >= 0 && of(from) != of(to) })
	if err := c.cut(links, 1); err != nil {
		return nil, err
	}
	hold := 0
	if !slices.ContainsFunc(c.ids, func(id types.ReplicaID) bool { return of(id) < 0 }) &&
		!slices.ContainsFunc(groups, func(g []types.ReplicaID) bool { return len(g) >= types.Quorum(len(c.ids)) }) {
		hold = 1
	}
	c.parted, c.held = c.parted+1, c.held+hold
	return func() error {
		c.parted, c.held = c.parted-1, c.held-hold
		c.timeRevert("partition")
		return c.cut(links, -1)
	}, nil
}

// Slow adds extra latency to every link from id, or toward it; a link
// toward a slow reader is throttled as well.
func (c *tcpCluster) Slow(id types.ReplicaID, toward bool, extra time.Duration) (func() error, error) {
	links := c.linksOf(func(from, to types.ReplicaID) bool { return (!toward && from == id) || (toward && to == id) })
	set := func(sign int) {
		c.slowed[id] += sign
		for _, l := range links {
			c.latency[l] += time.Duration(sign) * extra
			p := c.mesh.Link(l[0], l[1])
			p.SetLatency(c.latency[l])
			if toward {
				c.throttle[l] += sign
				p.SetThrottle(min(c.throttle[l], 1) * slowReaderBps)
			}
		}
	}
	set(1)
	return func() error {
		set(-1)
		c.timeRevert(fmt.Sprintf("slow r%d", id))
		return nil
	}, nil
}

// ExcludeFromMetrics keeps replicas out of HonestMembers for good.
func (c *tcpCluster) ExcludeFromMetrics(ids ...types.ReplicaID) {
	for _, id := range ids {
		c.excluded[id] = true
	}
}

// timeRevert starts timing a revert until every up replica agrees.
func (c *tcpCluster) timeRevert(fault string) {
	c.recovering = append(c.recovering, recovery{fault: fault, at: time.Now(), paid: c.paid})
}

// --- Time ---

// Start boots every replica and starts the clock.
func (c *tcpCluster) Start() {
	c.began = time.Now()
	for _, id := range c.ids {
		c.start(id)
	}
}

// Run pays every payEvery and polls the checks until until (from Start),
// then makes the phase-end checks. While no partition stands and the up
// replicas no Slow fault targets form a quorum, each of them must commit;
// while a held partition stands, none may commit beyond the instance in
// flight at the cut.
func (c *tcpCluster) Run(until time.Duration) error {
	quorum := slices.DeleteFunc(c.up(), func(id types.ReplicaID) bool { return c.slowed[id] > 0 })
	live := c.parted == 0 && len(quorum) >= types.Quorum(len(c.ids))
	start := map[types.ReplicaID]int{}
	for _, id := range c.up() {
		start[id] = read(c, id, height)
	}
	for deadline := c.began.Add(until); time.Now().Before(deadline); {
		if time.Since(c.lastPay) >= payEvery {
			c.pay()
		}
		c.poll()
		time.Sleep(min(pollEvery, time.Until(deadline)))
	}
	for id, before := range start {
		switch now := read(c, id, height); {
		case c.held > 0 && now > before+1:
			return fmt.Errorf("replica %v committed %d blocks inside a below-quorum partition", id, now-before)
		case live && slices.Contains(quorum, id) && now <= before:
			return fmt.Errorf("replica %v committed nothing while a quorum was up", id)
		}
	}
	return c.phaseEnd()
}

// RunUntilQuiet polls, paying nothing, until every up replica holds the
// same chain with every payment applied and no check is pending, or
// maxTime (from Start) passes; then it makes the phase-end checks.
func (c *tcpCluster) RunUntilQuiet(maxTime time.Duration) error {
	for deadline := c.began.Add(maxTime); time.Now().Before(deadline); time.Sleep(pollEvery) {
		c.poll()
		if c.agreed(c.paid) && len(c.recovering) == 0 && len(c.rejoining) == 0 {
			break
		}
	}
	return c.phaseEnd()
}

// pay sends the next payment of the client's chain to every running
// replica; a payment no replica took is offered again next time.
func (c *tcpCluster) pay() {
	c.lastPay = time.Now()
	if c.unsent == nil {
		c.unsent = c.client.pay(payAmount)
	}
	took := false
	for i, rn := range c.nodes {
		if rn != nil && c.client.offer(c.unsent, i) == nil {
			took = true
		}
	}
	if took {
		c.unsent = nil
		c.paid++
	}
}

// applied is how many of the client's payments a ledger holds.
func applied(st nodeState) int { return int((faucetFunds - st.Faucet) / payAmount) }

// agreed reports whether every up replica holds the same height and
// ledger digests, with at least paid payments applied.
func (c *tcpCluster) agreed(paid int) bool {
	var ref *nodeState
	for _, id := range c.up() {
		rn := c.node(id)
		st, err := onLoop(rn, rn.stateNow)
		if err != nil || applied(st) < paid || (ref != nil && (st.Height != ref.Height || !maps.Equal(st.Digests, ref.Digests))) {
			return false
		}
		ref = &st
	}
	return true
}

// health is from's transport view of its link to to.
func (c *tcpCluster) health(from, to types.ReplicaID) transport.PeerHealth {
	return c.node(from).node.PeerHealthFor(to)
}

// reads reports whether link l's sender reads it in one of states.
func (c *tcpCluster) reads(l link, states ...transport.PeerState) bool {
	return slices.Contains(states, c.health(l[0], l[1]).State)
}

// poll resolves what the cluster shows now: cut links read as backoff or
// suspect, woken replicas' peers reconnected, reverts recovered.
func (c *tcpCluster) poll() {
	for l, seen := range c.degraded {
		if !seen && c.node(l[0]) != nil {
			c.degraded[l] = c.reads(l, transport.StateBackoff, transport.StateSuspect)
		}
	}
	for id := range c.rejoining {
		if !slices.ContainsFunc(c.up(), func(from types.ReplicaID) bool {
			if from == id {
				return false
			}
			h := c.health(from, id)
			return h.State != transport.StateConnected || h.Reconnects < uint64(c.wakes[id])
		}) {
			delete(c.rejoining, id)
		}
	}
	c.recovering = slices.DeleteFunc(c.recovering, func(r recovery) bool {
		if !c.agreed(r.paid) {
			return false
		}
		c.t.Logf("recovery %s: %v", r.fault, time.Since(r.at).Round(time.Millisecond))
		return true
	})
}

// phaseEnd checks what must hold by the end of every phase: each running
// event loop answers within stallBound, cut links read degraded, and the
// reverts at the end of the phase before have reconnected and recovered.
func (c *tcpCluster) phaseEnd() error {
	for _, rn := range c.nodes {
		if rn != nil {
			if _, err := onLoop(rn, func() bool { return true }); err != nil {
				return err
			}
		}
	}
	// A writer with nothing to send never touches its cut link; one that
	// queues frames for it must read it as backoff or suspect, within a
	// poll or two of queueing them.
	seen := len(c.degraded) == 0
	for l, ok := range c.degraded {
		for deadline := time.Now().Add(time.Second); !ok && c.node(l[0]) != nil && c.health(l[0], l[1]).QueueLen > 0; time.Sleep(pollEvery) {
			if ok = c.reads(l, transport.StateBackoff, transport.StateSuspect); !ok && time.Now().After(deadline) {
				return fmt.Errorf("replica %v queues frames for its cut link to %v but never read it as backoff or suspect", l[0], l[1])
			}
		}
		seen = seen || ok
	}
	if !seen {
		return errors.New("no cut link read as backoff or suspect")
	}
	for id := range c.rejoining {
		return fmt.Errorf("replica %v's peers did not reconnect after %d Sleep cycles", id, c.wakes[id])
	}
	for _, r := range c.recovering {
		return fmt.Errorf("no agreement with %d payments applied since %s", r.paid, r.fault)
	}
	return nil
}

// --- Reads ---

// Snapshot reads the first honest replica: its height, the payments it
// applied and the culprits it proved. With no coalition nothing is
// detected, excluded or included.
func (c *tcpCluster) Snapshot() harness.Snapshot {
	s := harness.Snapshot{At: time.Since(c.began)}
	if honest := c.HonestMembers(); len(honest) > 0 {
		st := read(c, honest[0], (*replicaNode).stateNow)
		s.Committed, s.Txs, s.Culprits = st.Height, applied(st), len(c.State(honest[0]).Culprits)
	}
	return s
}

// HonestMembers lists the replicas not excluded from the metrics.
func (c *tcpCluster) HonestMembers() []types.ReplicaID {
	return slices.DeleteFunc(slices.Clone(c.ids), func(id types.ReplicaID) bool { return c.excluded[id] })
}

// Deceitful is false: the deployed cluster runs no coalition.
func (c *tcpCluster) Deceitful(types.ReplicaID) bool { return false }

// Disagreements is 0: an honest cluster cannot fork, so a fork reads as
// a violation of invariant (a).
func (c *tcpCluster) Disagreements() int { return 0 }

// ConvergedAgreement reports whether every honest replica holds the same
// committee.
func (c *tcpCluster) ConvergedAgreement() bool {
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return false
	}
	ref := c.State(honest[0]).Committee
	return !slices.ContainsFunc(honest, func(id types.ReplicaID) bool { return !slices.Equal(c.State(id).Committee, ref) })
}

// State reads id in one event-loop round trip. Its chain is the
// replica's decision digests, as the simulator's is: a restarted replica
// restores each block under its decision's digest.
func (c *tcpCluster) State(id types.ReplicaID) harness.ReplicaState {
	return read(c, id, func(rn *replicaNode) harness.ReplicaState {
		st := harness.ReplicaState{
			Chain:     rn.replica.ChainDigests(),
			Culprits:  rn.replica.Log().ProvenCulprits(),
			Committee: rn.replica.View().Members(),
		}
		for _, res := range rn.changes {
			st.Excluded = append(st.Excluded, res.Excluded...)
		}
		return st
	})
}

// TestScenariosOnTCP runs every registered scenario the deployed cluster
// can model on a fresh real-TCP cluster behind the fault-injection mesh,
// at n=5 or ZLB_CHAOS_N; a refused registration is skipped with the
// refusal. Every run must keep the paper's four invariants, pass the
// transport checks of every phase, and end with every replica holding
// the same chain with every payment applied.
func TestScenariosOnTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP scenarios")
	}
	n, err := strconv.Atoi(cmp.Or(os.Getenv("ZLB_CHAOS_N"), "5"))
	if err != nil || n < 5 {
		t.Fatalf("ZLB_CHAOS_N=%q: want an integer >= 5", os.Getenv("ZLB_CHAOS_N"))
	}
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Build(name, n, 29)
			if err != nil {
				t.Fatal(err)
			}
			if err := scenario.Refusal(s); err != nil {
				t.Skip(err)
			}
			var c *tcpCluster
			res, err := scenario.RunOn(s, func(s scenario.Scenario) (scenario.Runtime, error) {
				c = newTCPCluster(t, n, s.Opts.Seed)
				return c, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", res.Format())
			// Every replica ends on the one chain, excluded from the
			// metrics or not.
			if err := c.RunUntilQuiet(time.Since(c.began) + time.Minute); err != nil {
				t.Fatal(err)
			}
			if !c.agreed(c.paid) {
				t.Fatalf("replicas did not agree with all %d payments applied", c.paid)
			}
			t.Logf("%s (n=%d): %d payments, all applied everywhere", name, n, c.paid)
			for _, v := range res.Violations {
				t.Errorf("violation (%s): %s", v.Invariant, v.Detail)
			}
			for _, r := range res.Recovered {
				if !r.Match {
					t.Errorf("replica %v holds %d of %d blocks of the honest chain", r.ID, r.Have, r.Want)
				}
			}
		})
	}
}
