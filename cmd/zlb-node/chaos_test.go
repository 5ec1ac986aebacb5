package main

// Chaos campaigns: real n=5 clusters driven through TCP fault sequences
// (internal/chaos) with recovery invariants asserted — chain agreement
// after heal, bounded event-loop latency behind dead or slow peers,
// health metrics reflecting the injected faults. The chaosCluster
// adapter implements chaos.Cluster over the same replicaNode harness the
// other integration tests use; replica links are rewired through the
// proxy mesh (chaos.Net.PeersFor), client submits dial the real listen
// addresses.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/chaos"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
)

type chaosCluster struct {
	t        *testing.T
	n        int
	seed     int64
	addrs    []string // real listen addresses, ID order
	dataDirs []string
	mesh     *chaos.Net
	client   *testClient

	mu    sync.Mutex
	nodes map[types.ReplicaID]*replicaNode
}

func newChaosCluster(t *testing.T, n int, seed int64, mesh *chaos.Net, addrs []string) *chaosCluster {
	t.Helper()
	c := &chaosCluster{
		t:        t,
		n:        n,
		seed:     seed,
		addrs:    addrs,
		dataDirs: make([]string, n),
		mesh:     mesh,
		client:   newTestClient(t, seed, addrs),
		nodes:    make(map[types.ReplicaID]*replicaNode),
	}
	for i := range c.dataDirs {
		c.dataDirs[i] = t.TempDir()
	}
	for i := 1; i <= n; i++ {
		if err := c.start(types.ReplicaID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// start boots replica id with its peer list rewired through the proxy
// mesh, so every frame it sends crosses the fault-injection layer.
func (c *chaosCluster) start(id types.ReplicaID) error {
	rn, err := newReplicaNode(nodeConfig{
		Self:            id,
		N:               c.n,
		Listen:          c.addrs[id-1],
		Peers:           c.mesh.PeersFor(id),
		Seed:            c.seed,
		DataDir:         c.dataDirs[id-1],
		CheckpointEvery: 2,
		Logf:            c.t.Logf,
	})
	if err != nil {
		return fmt.Errorf("replica %v: %w", id, err)
	}
	logf := c.t.Logf
	go func() {
		if err := rn.Serve(); err != nil {
			// The replica has no event loop now; State's bounded probe
			// reports it.
			logf("replica %v serve: %v", id, err)
		}
	}()
	c.mu.Lock()
	c.nodes[id] = rn
	c.mu.Unlock()
	return nil
}

func (c *chaosCluster) node(id types.ReplicaID) (*replicaNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rn := c.nodes[id]
	if rn == nil {
		return nil, fmt.Errorf("replica %v is down", id)
	}
	return rn, nil
}

func (c *chaosCluster) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rn := range c.nodes {
		if rn != nil {
			rn.Close()
		}
	}
	c.nodes = map[types.ReplicaID]*replicaNode{}
}

// N implements chaos.Cluster.
func (c *chaosCluster) N() int { return c.n }

// Submit implements chaos.Cluster: one chained faucet payment broadcast
// to the listed replicas (all when empty) over the real client path.
func (c *chaosCluster) Submit(to ...types.ReplicaID) error {
	idx := make([]int, 0, c.n)
	if len(to) == 0 {
		for i := 0; i < c.n; i++ {
			idx = append(idx, i)
		}
	} else {
		for _, id := range to {
			idx = append(idx, int(id)-1)
		}
	}
	c.client.submit(1000, idx...)
	return nil
}

// State implements chaos.Cluster. The read is a bounded event-loop
// round-trip: a replica whose loop never answers (e.g. Serve failed at
// startup) yields an error the campaign's own Wait* timeouts surface,
// instead of wedging the whole test until the go test panic.
func (c *chaosCluster) State(id types.ReplicaID) (chaos.ChainState, error) {
	rn, err := c.node(id)
	if err != nil {
		return chaos.ChainState{}, err
	}
	ch := make(chan chaos.ChainState, 1)
	go rn.node.Do(func() {
		ch <- chaos.ChainState{
			Height:  rn.app.Ledger().Height(),
			LastK:   rn.app.Ledger().LastK(),
			Digests: rn.app.Ledger().BlockDigests(),
		}
	})
	select {
	case st := <-ch:
		return st, nil
	case <-time.After(10 * time.Second):
		return chaos.ChainState{}, fmt.Errorf("replica %v event loop did not answer a state probe within 10s", id)
	}
}

// Kill implements chaos.Cluster.
func (c *chaosCluster) Kill(id types.ReplicaID) error {
	rn, err := c.node(id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.nodes[id] = nil
	c.mu.Unlock()
	rn.Close()
	return nil
}

// Restart implements chaos.Cluster: same address, same data directory —
// the durable-store recovery + catch-up path.
func (c *chaosCluster) Restart(id types.ReplicaID) error {
	if rn, _ := c.node(id); rn != nil {
		return fmt.Errorf("replica %v still running", id)
	}
	return c.start(id)
}

// StallProbe implements chaos.Cluster: time a no-op closure's round
// trip through the replica's event loop.
func (c *chaosCluster) StallProbe(id types.ReplicaID, timeout time.Duration) (time.Duration, error) {
	rn, err := c.node(id)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	start := time.Now()
	go rn.node.Do(func() { close(done) })
	select {
	case <-done:
		return time.Since(start), nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("event loop did not service a closure within %v", timeout)
	}
}

// PeerHealth implements chaos.Cluster.
func (c *chaosCluster) PeerHealth(id types.ReplicaID) []transport.PeerHealth {
	rn, err := c.node(id)
	if err != nil {
		return nil
	}
	return rn.node.PeerHealth()
}

// TestChaosCampaigns runs every registered chaos campaign against a
// fresh real-TCP cluster behind the fault-injection mesh. Long
// campaigns (the nightly matrix) need ZLB_CHAOS_LONG=1.
func TestChaosCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("real-TCP chaos campaigns")
	}
	for _, c := range chaos.Campaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if c.Long && os.Getenv("ZLB_CHAOS_LONG") == "" {
				t.Skip("long campaign; set ZLB_CHAOS_LONG=1 (nightly matrix)")
			}
			runChaosCampaign(t, c)
		})
	}
}

// chaosClusterSize is the campaign's minimum unless ZLB_CHAOS_N asks
// for a bigger cluster (the nightly matrix also runs n=9; campaigns
// derive their topology from the actual size).
func chaosClusterSize(t *testing.T, c chaos.Campaign) int {
	t.Helper()
	n := c.Nodes
	if s := os.Getenv("ZLB_CHAOS_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < c.Nodes {
			t.Fatalf("ZLB_CHAOS_N=%q: want an integer >= %d", s, c.Nodes)
		}
		n = v
	}
	return n
}

func runChaosCampaign(t *testing.T, c chaos.Campaign) {
	t.Helper()
	n := chaosClusterSize(t, c)
	t.Logf("campaign %s (n=%d): %s", c.Name, n, c.Description)
	addrs := freeAddrs(t, n)
	mesh, err := chaos.NewNet(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	cluster := newChaosCluster(t, n, int64(29), mesh, addrs)
	defer cluster.closeAll()

	env := &chaos.Env{
		Net:     mesh,
		Cluster: cluster,
		// The invariant bound: a Do round-trip through an event loop
		// backed by dead, flapping or throttled peers. The old blocking
		// transport stalled the loop for its full per-send retry budget
		// per dead peer — seconds each — so 2s cleanly separates "queues
		// absorb the fault" from "the loop is wedged" while staying
		// CI-safe.
		StallBound: 2 * time.Second,
		Logf:       t.Logf,
	}
	if err := c.Run(env); err != nil {
		t.Fatalf("campaign %s: %v", c.Name, err)
	}
	for _, r := range env.Recoveries {
		t.Logf("campaign %s (n=%d): recovery %s = %v", c.Name, n, r.Fault, r.Duration.Round(time.Millisecond))
	}
}
