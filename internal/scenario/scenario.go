// Package scenario is a declarative, deterministic engine for staged
// adversarial campaigns: it composes fault phases — coalition attacks
// (internal/adversary), benign crash/sleep replicas, degraded or severed
// partitions, slow proposers — over virtual time on a simulated cluster
// (internal/harness) and reads out per-phase metrics (throughput,
// disagreements, detection/exclusion/inclusion times).
//
// A Scenario is a base cluster configuration plus an ordered list of
// Phases. Each phase activates its faults, runs the cluster to the
// phase's virtual deadline, snapshots the harness metrics, and reverts
// the faults. Because the simulator is deterministic and faults are
// applied at phase boundaries (never mid-event), a scenario's per-phase
// metrics are bit-identical across runs with the same seed — the property
// determinism_test.go pins for every registered scenario.
//
// The engine reproduces the staged and mixed-fault regimes evaluated by
// the extended ZLB report (arXiv:2305.02498) and the malicious-majority
// broadcast study (arXiv:2108.01341): the full attack → detection →
// exclusion → merge arc of the paper's Fig. 2, plus churn and partition
// recoveries the canned single-attack experiments of internal/bench
// cannot express. Registered campaigns are listed by Names and built by
// Build; `zlb-bench -experiment scenarios` runs them all.
//
// Run is the simulator's one campaign loop: these campaigns and the
// message-level ones of internal/conformance all run through it, and it
// checks the paper's four accountability invariants on every finished run
// (see checkInvariants).
package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Fault is one injectable condition. Apply arms it on the runtime's fault
// stack; Revert disarms it. A fault listed in two consecutive phases is
// reverted and re-applied at the boundary with no events in between, so
// it behaves as if continuously active.
type Fault interface {
	Apply(rt *Runtime)
	Revert(rt *Runtime)
}

// Phase is one stage of a campaign: the faults active during a window of
// virtual time.
type Phase struct {
	// Name labels the phase in reports ("fork", "heal", ...).
	Name string
	// Duration is the phase's virtual-time length.
	Duration time.Duration
	// Faults are applied at phase start and reverted at phase end.
	Faults []Fault
}

// Scenario is a named multi-phase campaign over one simulated cluster.
type Scenario struct {
	Name        string
	Description string
	// Opts is the base cluster configuration (committee size, coalition,
	// latency and cost models, seed).
	Opts harness.Options
	// Phases run in order; each covers Duration of virtual time.
	Phases []Phase
	// Drain, if positive, appends a fault-free "drain" phase that runs
	// the event queue until quiet (bounded by Drain extra virtual time),
	// so in-flight recoveries can complete.
	Drain time.Duration
	// VerifyChains lists replicas whose final decided chain is compared
	// digest-for-digest against the first honest replica's; the outcome
	// lands in Result.Recovered (and the campaign's golden).
	VerifyChains []types.ReplicaID
}

// Runtime is the live fault stack of a running scenario. Faults register
// drop and delay predicates; the runtime composes them (OR for drops, sum
// for delays) onto the cluster's simulated network.
type Runtime struct {
	Cluster *harness.Cluster

	nextID int
	drops  []stackedRule[func(from, to types.ReplicaID, msg simnet.Message) bool]
	delays []stackedRule[func(from, to types.ReplicaID, msg simnet.Message) time.Duration]
	// err records the first fault-application failure (e.g. a restart
	// whose application does not come back); Run surfaces it.
	err error
}

// fail records a fault failure; the first one wins.
func (rt *Runtime) fail(err error) {
	if err != nil && rt.err == nil {
		rt.err = err
	}
}

type stackedRule[T any] struct {
	id int
	fn T
}

// NewRuntime wires the fault stack onto the cluster's network. The
// installed rules read the stack on every call, so faults armed later
// take effect immediately.
func NewRuntime(c *harness.Cluster) *Runtime {
	rt := &Runtime{Cluster: c}
	c.Net.DropRule = func(from, to types.ReplicaID, msg simnet.Message) bool {
		for _, r := range rt.drops {
			if r.fn(from, to, msg) {
				return true
			}
		}
		return false
	}
	c.Net.DelayRule = func(from, to types.ReplicaID, msg simnet.Message) time.Duration {
		var d time.Duration
		for _, r := range rt.delays {
			d += r.fn(from, to, msg)
		}
		return d
	}
	return rt
}

// AddDrop arms a drop predicate and returns its handle.
func (rt *Runtime) AddDrop(fn func(from, to types.ReplicaID, msg simnet.Message) bool) int {
	rt.nextID++
	rt.drops = append(rt.drops, stackedRule[func(from, to types.ReplicaID, msg simnet.Message) bool]{id: rt.nextID, fn: fn})
	return rt.nextID
}

// RemoveDrop disarms a drop predicate; unknown handles are ignored.
func (rt *Runtime) RemoveDrop(id int) {
	for i, r := range rt.drops {
		if r.id == id {
			rt.drops = append(rt.drops[:i], rt.drops[i+1:]...)
			return
		}
	}
}

// AddDelay arms a delay predicate and returns its handle.
func (rt *Runtime) AddDelay(fn func(from, to types.ReplicaID, msg simnet.Message) time.Duration) int {
	rt.nextID++
	rt.delays = append(rt.delays, stackedRule[func(from, to types.ReplicaID, msg simnet.Message) time.Duration]{id: rt.nextID, fn: fn})
	return rt.nextID
}

// RemoveDelay disarms a delay predicate; unknown handles are ignored.
func (rt *Runtime) RemoveDelay(id int) {
	for i, r := range rt.delays {
		if r.id == id {
			rt.delays = append(rt.delays[:i], rt.delays[i+1:]...)
			return
		}
	}
}

// --- Fault implementations ---

// MetricExcluder is implemented by faults whose targets must leave the
// honest metric readings for the whole run. Run collects these before
// the first snapshot, so the honest set never changes between snapshots
// and per-phase deltas stay monotone (a mid-run change of the observer
// replica would otherwise produce negative commit or disagreement
// deltas).
type MetricExcluder interface {
	MetricExclusions() []types.ReplicaID
}

// Corrupter is implemented by faults that corrupt replicas outside the
// coalition — a twin holding a replica's key, an equivocator at the wire.
// Run counts them in the ground-truth corrupt set the invariant checker
// may see accused, and keeps them out of the honest metric readings for
// the whole run.
type Corrupter interface {
	Corrupted() []types.ReplicaID
}

// FromStart holds a first-phase fault from before the cluster starts, so
// that the replicas' first proposals already meet it; a fault listed
// plainly takes hold once the cluster has started. Listed in a later
// phase it is the fault it wraps, and Run reads the MetricExcluder and
// Corrupter declarations of the wrapped fault.
type FromStart struct{ Fault }

// Crash takes replicas down permanently: Revert leaves them down, the
// paper's benign (mute) fault.
type Crash struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder.
func (f *Crash) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *Crash) Apply(rt *Runtime) {
	rt.Cluster.ExcludeFromMetrics(f.IDs...)
	for _, id := range f.IDs {
		rt.Cluster.Net.SetUp(id, false)
	}
}

// Revert implements Fault: crashed replicas stay down.
func (f *Crash) Revert(*Runtime) {}

// Sleep takes replicas down for the duration of the phase and wakes them
// on Revert — churn. A woken replica rejoins with whatever protocol state
// it had; it catches up through DECIDE forwarding and the confirmation
// phase like any slow replica.
type Sleep struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder.
func (f *Sleep) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *Sleep) Apply(rt *Runtime) {
	rt.Cluster.ExcludeFromMetrics(f.IDs...)
	for _, id := range f.IDs {
		rt.Cluster.Net.SetUp(id, false)
	}
}

// Revert implements Fault.
func (f *Sleep) Revert(rt *Runtime) {
	for _, id := range f.IDs {
		rt.Cluster.Net.SetUp(id, true)
	}
}

// CrashRestart kills replicas at phase start — process down, in-memory
// consensus state lost, application closed like a dead process's
// descriptors — and restarts them at phase end. The restarted
// incarnation restores the chain its application recovers, rejoins, and
// requests certificate-verified catch-up for everything it missed.
type CrashRestart struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder: a crash-restarted replica
// lags the honest readings while down, like the paper's benign replicas.
func (f *CrashRestart) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *CrashRestart) Apply(rt *Runtime) {
	rt.Cluster.ExcludeFromMetrics(f.IDs...)
	for _, id := range f.IDs {
		rt.fail(rt.Cluster.Crash(id))
	}
}

// Revert implements Fault: the phase boundary is the restart.
func (f *CrashRestart) Revert(rt *Runtime) {
	for _, id := range f.IDs {
		rt.fail(rt.Cluster.Restart(id))
	}
}

// Partition splits the listed nodes into groups. With Extra zero,
// cross-group messages are dropped (full loss); with Extra positive they
// are delayed by Extra (a stalled but lossless partition, which heals
// cleanly because late messages still arrive). Nodes in no group are
// unaffected.
type Partition struct {
	Groups [][]types.ReplicaID
	Extra  time.Duration

	handle int
	isDrop bool
}

// Apply implements Fault.
func (f *Partition) Apply(rt *Runtime) {
	lookup := simnet.GroupOf(f.Groups)
	if f.Extra == 0 {
		f.isDrop = true
		f.handle = rt.AddDrop(simnet.PartitionDrop(lookup))
		return
	}
	f.isDrop = false
	f.handle = rt.AddDelay(simnet.PartitionDelay(lookup, f.Extra))
}

// Revert implements Fault.
func (f *Partition) Revert(rt *Runtime) {
	if f.isDrop {
		rt.RemoveDrop(f.handle)
		return
	}
	rt.RemoveDelay(f.handle)
}

// CoalitionPartition delays honest-to-honest traffic across the
// cluster coalition's partition plan by Extra — the network condition of
// the paper's coalition attacks (§5.2): deceitful replicas keep talking
// to every partition at full speed, only honest cross-partition links
// stall. Staging it as a fault (instead of baking a latency overlay into
// the cluster) is what lets a campaign heal the partition mid-run.
type CoalitionPartition struct {
	Extra time.Duration

	handle int
}

// Apply implements Fault.
func (f *CoalitionPartition) Apply(rt *Runtime) {
	coalition := rt.Cluster.Coalition
	f.handle = rt.AddDelay(simnet.PartitionDelay(coalition.PartitionOf, f.Extra))
}

// Revert implements Fault.
func (f *CoalitionPartition) Revert(rt *Runtime) { rt.RemoveDelay(f.handle) }

// SlowReplica delays every message the replica sends by Extra — the
// "slow proposer": its proposals arrive late, so other slots decide
// first and rounds stretch, but it commits no fault.
type SlowReplica struct {
	ID    types.ReplicaID
	Extra time.Duration

	handle int
}

// Apply implements Fault.
func (f *SlowReplica) Apply(rt *Runtime) {
	id, extra := f.ID, f.Extra
	f.handle = rt.AddDelay(func(from, _ types.ReplicaID, _ simnet.Message) time.Duration {
		if from == id {
			return extra
		}
		return 0
	})
}

// Revert implements Fault.
func (f *SlowReplica) Revert(rt *Runtime) { rt.RemoveDelay(f.handle) }

// --- Results ---

// PhaseResult is the metric delta over one phase window.
type PhaseResult struct {
	Name  string
	Start time.Duration
	End   time.Duration
	// Committed / Txs are instances and claimed transactions committed
	// during the phase (first honest replica); TxPerSec is Txs over the
	// phase's wall of virtual time.
	Committed int
	Txs       int
	TxPerSec  float64
	// Disagreements produced during the phase (Fig. 4 granularity).
	Disagreements int
	// Culprits is the cumulative count of provably deceitful replicas at
	// phase end.
	Culprits int
	// DetectSec / ExcludeSec / IncludeSec are absolute virtual times (in
	// seconds) when the fd-threshold detection, the exclusion consensus
	// and the inclusion consensus completed — set on the phase in which
	// each event landed, -1 elsewhere.
	DetectSec  float64
	ExcludeSec float64
	IncludeSec float64
	// Delivered / Dropped are simulator event deltas.
	Delivered int
	Dropped   int
}

// RecoveryStatus is the final chain comparison for one replica listed in
// Scenario.VerifyChains: whether its decided digests match the first
// honest replica's, instance for instance.
type RecoveryStatus struct {
	ID    types.ReplicaID
	Match bool
	// Have / Want count matching instances vs the honest chain length.
	Have, Want int
}

// Result is a completed campaign.
type Result struct {
	Scenario    string
	Description string
	N           int
	Seed        int64
	Phases      []PhaseResult
	// Converged reports Def. 3 convergence: all honest replicas agree on
	// a final committee with deceitful ratio < 1/3.
	Converged bool
	// Committed / Disagreements / Culprits are end-of-run totals.
	Committed     int
	Disagreements int
	Culprits      int
	// Recovered holds the end-of-run chain comparison for every replica
	// in Scenario.VerifyChains (crash-recovery campaigns).
	Recovered []RecoveryStatus
	// Violations is empty iff the paper's four invariants held on the
	// finished run (see checkInvariants).
	Violations []Violation `json:",omitempty"`
	// Cluster is the finished cluster, for callers that read more of it.
	Cluster *harness.Cluster `json:"-"`
}

// Run executes the scenario — the simulator's one campaign loop — and
// returns its per-phase metrics and the verdict of the paper's four
// invariants on the finished run.
func Run(s Scenario) (*Result, error) {
	c, err := harness.New(s.Opts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	rt := NewRuntime(c)
	// Before the cluster starts: arm the first phase's FromStart faults,
	// collect the corrupt replicas, and exclude every replica any phase
	// will crash, sleep or corrupt from the metrics — the honest set stays
	// constant for the whole run, keeping per-phase deltas monotone.
	corrupt := make(map[types.ReplicaID]bool)
	for i := range s.Phases {
		for _, f := range s.Phases[i].Faults {
			if early, ok := f.(*FromStart); ok {
				if i == 0 {
					early.Apply(rt)
				}
				f = early.Fault
			}
			if ex, ok := f.(MetricExcluder); ok {
				c.ExcludeFromMetrics(ex.MetricExclusions()...)
			}
			if cr, ok := f.(Corrupter); ok {
				for _, id := range cr.Corrupted() {
					corrupt[id] = true
				}
				c.ExcludeFromMetrics(cr.Corrupted()...)
			}
		}
	}
	c.Start()

	res := &Result{Scenario: s.Name, Description: s.Description, N: s.Opts.N, Seed: s.Opts.Seed}
	prev := c.Snapshot()
	var now time.Duration
	for i := range s.Phases {
		ph := &s.Phases[i]
		for _, f := range ph.Faults {
			if _, armed := f.(*FromStart); !armed || i > 0 {
				f.Apply(rt)
			}
		}
		now += ph.Duration
		c.Run(now)
		snap := c.Snapshot()
		res.Phases = append(res.Phases, diffPhase(ph.Name, prev, snap))
		prev = snap
		for _, f := range ph.Faults {
			f.Revert(rt)
		}
	}
	if s.Drain > 0 {
		c.RunUntilQuiet(now + s.Drain)
		snap := c.Snapshot()
		res.Phases = append(res.Phases, diffPhase("drain", prev, snap))
		prev = snap
	}
	if rt.err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, rt.err)
	}
	if c.Exhausted() {
		return nil, fmt.Errorf("scenario %s: simulator exhausted its MaxEvents budget mid-run; metrics would come from a truncated simulation", s.Name)
	}
	res.Converged = c.ConvergedAgreement()
	res.Committed = prev.Committed
	res.Disagreements = prev.Disagreements
	res.Culprits = prev.Culprits
	for _, id := range s.VerifyChains {
		match, have, want := c.ChainAgreement(id)
		res.Recovered = append(res.Recovered, RecoveryStatus{ID: id, Match: match, Have: have, Want: want})
	}
	res.Violations = checkInvariants(c, corrupt)
	res.Cluster = c
	return res, nil
}

// diffPhase turns two cumulative snapshots into the phase delta.
func diffPhase(name string, prev, snap harness.Snapshot) PhaseResult {
	p := PhaseResult{
		Name:          name,
		Start:         prev.At,
		End:           snap.At,
		Committed:     snap.Committed - prev.Committed,
		Txs:           snap.Txs - prev.Txs,
		Disagreements: snap.Disagreements - prev.Disagreements,
		Culprits:      snap.Culprits,
		DetectSec:     -1,
		ExcludeSec:    -1,
		IncludeSec:    -1,
		Delivered:     snap.Delivered - prev.Delivered,
		Dropped:       snap.Dropped - prev.Dropped,
	}
	if span := snap.At - prev.At; span > 0 {
		p.TxPerSec = float64(p.Txs) / span.Seconds()
	}
	if snap.Detected && !prev.Detected {
		p.DetectSec = snap.DetectedAt.Seconds()
	}
	if snap.Excluded && !prev.Excluded {
		p.ExcludeSec = snap.ExcludedAt.Seconds()
	}
	if snap.Included && !prev.Included {
		p.IncludeSec = snap.IncludedAt.Seconds()
	}
	return p
}

// Format renders the result as a deterministic fixed-layout table — the
// representation the goldens in determinism_test.go pin bit for bit.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s n=%d seed=%d converged=%v committed=%d disagreements=%d culprits=%d\n",
		r.Scenario, r.N, r.Seed, r.Converged, r.Committed, r.Disagreements, r.Culprits)
	fmt.Fprintf(&b, "%-15s %8s %8s %6s %10s %7s %8s %10s %10s %10s\n",
		"phase", "start(s)", "end(s)", "commit", "tx/s", "disagr", "culprits", "detect(s)", "exclude(s)", "include(s)")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-15s %8.2f %8.2f %6d %10.1f %7d %8d %10s %10s %10s\n",
			p.Name, p.Start.Seconds(), p.End.Seconds(), p.Committed, p.TxPerSec,
			p.Disagreements, p.Culprits,
			formatEvent(p.DetectSec), formatEvent(p.ExcludeSec), formatEvent(p.IncludeSec))
	}
	for _, rec := range r.Recovered {
		fmt.Fprintf(&b, "recovered %v: chain %d/%d instances, digests match=%v\n",
			rec.ID, rec.Have, rec.Want, rec.Match)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation (%s): %s\n", v.Invariant, v.Detail)
	}
	return b.String()
}

func formatEvent(sec float64) string {
	if sec < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", sec)
}
