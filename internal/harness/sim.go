package harness

import (
	"errors"
	"slices"
	"time"

	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// The cluster is the simulator substrate a scenario runs on
// (internal/scenario): this file holds the actuators its faults drive and
// the reads its campaign loop takes. Time is virtual.

// DropFn and DelayFn are the predicates a fault arms on the simulated
// network: drop the message, or add delay to its delivery.
type (
	DropFn  = func(from, to types.ReplicaID, msg simnet.Message) bool
	DelayFn = func(from, to types.ReplicaID, msg simnet.Message) time.Duration
)

// AddDrop arms a drop predicate; the returned func disarms it. Armed
// predicates stack onto the network's DropRule (a message is dropped if
// any fires), read on every send, so one armed between two events takes
// effect at once.
func (c *Cluster) AddDrop(fn DropFn) (remove func() error) {
	p := &fn
	c.drops = append(c.drops, p)
	c.Net.DropRule = func(from, to types.ReplicaID, msg simnet.Message) bool {
		return slices.ContainsFunc(c.drops, func(fn *DropFn) bool { return (*fn)(from, to, msg) })
	}
	return func() error {
		c.drops = slices.DeleteFunc(c.drops, func(q *DropFn) bool { return q == p })
		return nil
	}
}

// AddDelay arms a delay predicate, as AddDrop does; stacked delays sum.
func (c *Cluster) AddDelay(fn DelayFn) (remove func() error) {
	p := &fn
	c.delays = append(c.delays, p)
	c.Net.DelayRule = func(from, to types.ReplicaID, msg simnet.Message) (d time.Duration) {
		for _, fn := range c.delays {
			d += (*fn)(from, to, msg)
		}
		return d
	}
	return func() error {
		c.delays = slices.DeleteFunc(c.delays, func(q *DelayFn) bool { return q == p })
		return nil
	}
}

// SetUp takes a replica off the network or puts it back; messages to or
// from a replica that is down are dropped.
func (c *Cluster) SetUp(id types.ReplicaID, up bool) error {
	c.Net.SetUp(id, up)
	return nil
}

// Kill takes a replica off the network for good. Its state stays, but it
// never speaks again: the paper's benign crash.
func (c *Cluster) Kill(id types.ReplicaID) error { return c.SetUp(id, false) }

// Partition drops every message between the groups, or with extra
// positive delays it by extra. Nodes in no group are unaffected.
func (c *Cluster) Partition(groups [][]types.ReplicaID, extra time.Duration) (heal func() error, err error) {
	lookup := simnet.GroupOf(groups)
	if extra == 0 {
		return c.AddDrop(simnet.PartitionDrop(lookup)), nil
	}
	return c.AddDelay(simnet.PartitionDelay(lookup, extra)), nil
}

// Slow delays by extra every message id sends, or with toward every
// message sent to id.
func (c *Cluster) Slow(id types.ReplicaID, toward bool, extra time.Duration) (revert func() error, err error) {
	return c.AddDelay(func(from, to types.ReplicaID, _ simnet.Message) time.Duration {
		if (toward && to == id) || (!toward && from == id) {
			return extra
		}
		return 0
	}), nil
}

var errExhausted = errors.New("simulator exhausted its MaxEvents budget mid-run; metrics would come from a truncated simulation")

// Run processes events until the virtual deadline. It fails once the
// simulator has exhausted its MaxEvents budget.
func (c *Cluster) Run(until time.Duration) error {
	c.Net.Run(until)
	return c.exhausted()
}

// RunUntilQuiet drains the event queue up to maxTime; it fails as Run
// does.
func (c *Cluster) RunUntilQuiet(maxTime time.Duration) error {
	c.Net.RunUntilQuiet(maxTime)
	return c.exhausted()
}

func (c *Cluster) exhausted() error {
	if c.Exhausted() {
		return errExhausted
	}
	return nil
}

// Deceitful reports whether id belongs to the coalition.
func (c *Cluster) Deceitful(id types.ReplicaID) bool { return c.Coalition.IsDeceitful(id) }

// ReplicaState is what the campaign loop reads of one replica: its
// committed chain digests, the replicas it ever proved deceitful, its
// current committee, and the replicas its completed membership changes
// excluded.
type ReplicaState struct {
	Chain                         map[uint64]types.Digest
	Culprits, Committee, Excluded []types.ReplicaID
}

// State reads replica id.
func (c *Cluster) State(id types.ReplicaID) ReplicaState {
	r := c.Replicas[id]
	st := ReplicaState{Chain: r.ChainDigests(), Culprits: r.Log().ProvenCulprits(), Committee: r.View().Members()}
	for _, change := range c.ChangeResults[id] {
		st.Excluded = append(st.Excluded, change.Excluded...)
	}
	return st
}
