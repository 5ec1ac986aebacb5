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
// A scenario with a Workload runs the payment application instead of the
// synthetic one, under an open-loop payment workload (internal/load),
// and reports submit-to-commit latency; the open-loop campaigns are
// registered beside the fault campaigns (WorkloadNames).
//
// Run and RunOn share the one campaign loop: these campaigns and the
// message-level ones of internal/conformance all run through it, and it
// checks the paper's four accountability invariants on every finished run
// (see checkInvariants). The loop drives a Runtime: the simulator, or,
// through RunOn, a real localhost zlb-node cluster behind the chaos proxy
// mesh, where phase durations are wall-clock time. A scenario the
// deployed cluster cannot model is refused there (Refusal).
package scenario

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/load"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Runtime is the substrate a scenario runs on: the simulator
// (harness.Cluster, virtual time) or a real localhost zlb-node cluster
// behind the chaos proxy mesh (cmd/zlb-node's tests, wall-clock time from
// Start). Faults drive its actuators, each fault's doc comment giving its
// reading on both substrates; Run advances it; diffPhase, checkInvariants
// and Result.Recovered read it.
type Runtime interface {
	// SetUp takes a running replica's links down or back up; Kill takes a
	// replica down for good; Crash kills its process and Restart brings
	// it back on what it left behind.
	SetUp(id types.ReplicaID, up bool) error
	Kill(id types.ReplicaID) error
	Crash(id types.ReplicaID) error
	Restart(id types.ReplicaID) error
	// Partition cuts the links between groups, or with extra positive
	// slows them, until heal. Slow delays by extra what id sends, or with
	// toward what it is sent, until revert.
	Partition(groups [][]types.ReplicaID, extra time.Duration) (heal func() error, err error)
	Slow(id types.ReplicaID, toward bool, extra time.Duration) (revert func() error, err error)
	// ExcludeFromMetrics keeps replicas out of HonestMembers for good.
	ExcludeFromMetrics(ids ...types.ReplicaID)

	// Start launches the committee; Run runs it to until; RunUntilQuiet
	// runs it until quiet, up to maxTime.
	Start()
	Run(until time.Duration) error
	RunUntilQuiet(maxTime time.Duration) error

	// Snapshot reads the cumulative metrics diffPhase subtracts;
	// HonestMembers the members neither deceitful nor excluded from the
	// metrics; Disagreements the Fig. 4 count; ConvergedAgreement Def. 3;
	// State one replica.
	Snapshot() harness.Snapshot
	HonestMembers() []types.ReplicaID
	Deceitful(id types.ReplicaID) bool
	Disagreements() int
	ConvergedAgreement() bool
	State(id types.ReplicaID) harness.ReplicaState
}

// Fault is one injectable condition. Apply arms it on the runtime;
// Revert disarms it. A fault listed in two consecutive phases is
// reverted and re-applied at the boundary with no events in between, so
// it behaves as if continuously active.
type Fault interface {
	Apply(rt Runtime) error
	Revert(rt Runtime) error
}

// SimOnly marks a fault only the simulator can stage: it rewrites
// messages inside simnet, or reads the coalition's partition plan.
// Its Apply and Revert are handed a *harness.Cluster; RunOn refuses a
// scenario that holds one (Refusal).
type SimOnly interface {
	SimOnly()
}

// Phase is one stage of a campaign: the faults active during a window of
// time.
type Phase struct {
	// Name labels the phase in reports ("fork", "heal", ...).
	Name string
	// Duration is the phase's length.
	Duration time.Duration
	// Faults are applied at phase start and reverted at phase end.
	Faults []Fault
}

// Scenario is a named multi-phase campaign over one cluster.
type Scenario struct {
	Name        string
	Description string
	// Opts is the base cluster configuration (committee size, coalition,
	// latency and cost models, seed).
	Opts harness.Options
	// Phases run in order; each covers Duration.
	Phases []Phase
	// Drain, if positive, appends a fault-free "drain" phase that runs
	// the cluster until quiet (bounded by Drain extra time), so
	// in-flight recoveries can complete.
	Drain time.Duration
	// VerifyChains lists replicas whose final decided chain is compared
	// digest-for-digest against the first honest replica's; the outcome
	// lands in Result.Recovered (and the campaign's golden).
	VerifyChains []types.ReplicaID
	// Workload, if set, runs the payment application under an open-loop
	// payment workload: the cluster is the one zlb.NewCluster assembles,
	// taking only N, Seed, MaxInstances and Tracer from Opts, and each
	// phase submits its arrivals at their virtual times. The latency
	// report lands in Result.Load. A CrashRestart fault is refused: its
	// restart would bypass zlb.Cluster, which tracks the running payment
	// replicas.
	Workload *load.Workload
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
// phase it is the fault it wraps, and Run reads the MetricExcluder,
// Corrupter and SimOnly declarations of the wrapped fault.
type FromStart struct{ Fault }

// unwrap is the fault a phase lists, seen through FromStart.
func unwrap(f Fault) Fault {
	if early, ok := f.(*FromStart); ok {
		return early.Fault
	}
	return f
}

func each(ids []types.ReplicaID, fn func(types.ReplicaID) error) error {
	for _, id := range ids {
		if err := fn(id); err != nil {
			return err
		}
	}
	return nil
}

// Crash takes replicas down permanently: Revert leaves them down, the
// paper's benign (mute) fault. The simulator takes them off the
// network; TCP kills their processes.
type Crash struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder.
func (f *Crash) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *Crash) Apply(rt Runtime) error {
	rt.ExcludeFromMetrics(f.IDs...)
	return each(f.IDs, rt.Kill)
}

// Revert implements Fault: crashed replicas stay down.
func (f *Crash) Revert(Runtime) error { return nil }

// Sleep takes replicas down for the duration of the phase and wakes them
// on Revert — churn. A woken replica rejoins with whatever protocol state
// it had. The simulator drops every message to or from a sleeper, which
// then catches up through DECIDE forwarding and the confirmation phase
// like any slow replica; TCP cuts every link touching it, so its frames
// wait in the senders' queues until the links heal.
type Sleep struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder.
func (f *Sleep) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *Sleep) Apply(rt Runtime) error {
	rt.ExcludeFromMetrics(f.IDs...)
	return each(f.IDs, func(id types.ReplicaID) error { return rt.SetUp(id, false) })
}

// Revert implements Fault.
func (f *Sleep) Revert(rt Runtime) error {
	return each(f.IDs, func(id types.ReplicaID) error { return rt.SetUp(id, true) })
}

// CrashRestart kills replicas at phase start — process down, in-memory
// consensus state lost, application closed like a dead process's
// descriptors — and restarts them at phase end. The restarted
// incarnation restores the chain its application recovers, rejoins, and
// requests certificate-verified catch-up for everything it missed. The
// simulator rebuilds the replica (harness Crash/Restart); TCP kills the
// process and starts a new one on the same data directory.
type CrashRestart struct {
	IDs []types.ReplicaID
}

// MetricExclusions implements MetricExcluder: a crash-restarted replica
// lags the honest readings while down, like the paper's benign replicas.
func (f *CrashRestart) MetricExclusions() []types.ReplicaID { return f.IDs }

// Apply implements Fault.
func (f *CrashRestart) Apply(rt Runtime) error {
	rt.ExcludeFromMetrics(f.IDs...)
	return each(f.IDs, rt.Crash)
}

// Revert implements Fault: the phase boundary is the restart.
func (f *CrashRestart) Revert(rt Runtime) error { return each(f.IDs, rt.Restart) }

// Partition splits the listed nodes into groups. On the simulator, with
// Extra zero, cross-group messages are dropped (full loss); with Extra
// positive they are delayed by Extra (a stalled but lossless partition,
// which heals cleanly because late messages still arrive). On TCP the
// crossing links are cut and the frames wait in the senders' queues
// until Revert heals those links: a hold, whatever Extra. Nodes in no
// group are unaffected.
type Partition struct {
	Groups [][]types.ReplicaID
	Extra  time.Duration

	heal func() error
}

// Apply implements Fault.
func (f *Partition) Apply(rt Runtime) (err error) {
	f.heal, err = rt.Partition(f.Groups, f.Extra)
	return err
}

// Revert implements Fault.
func (f *Partition) Revert(Runtime) error { return f.heal() }

// CoalitionPartition delays honest-to-honest traffic across the
// cluster coalition's partition plan by Extra — the network condition of
// the paper's coalition attacks (§5.2): deceitful replicas keep talking
// to every partition at full speed, only honest cross-partition links
// stall. Staging it as a fault (instead of baking a latency overlay into
// the cluster) is what lets a campaign heal the partition mid-run. It
// reads the coalition plan, so it runs on the simulator only.
type CoalitionPartition struct {
	Extra time.Duration

	remove func() error
}

// SimOnly implements SimOnly.
func (*CoalitionPartition) SimOnly() {}

// Apply implements Fault.
func (f *CoalitionPartition) Apply(rt Runtime) error {
	c := rt.(*harness.Cluster)
	f.remove = c.AddDelay(simnet.PartitionDelay(c.Coalition.PartitionOf, f.Extra))
	return nil
}

// Revert implements Fault.
func (f *CoalitionPartition) Revert(Runtime) error { return f.remove() }

// SlowReplica delays every message the replica sends by Extra — the
// "slow proposer": its proposals arrive late, so other slots decide
// first and rounds stretch, but it commits no fault. On TCP every link
// from ID gets Extra of latency.
type SlowReplica struct {
	ID    types.ReplicaID
	Extra time.Duration

	revert func() error
}

// Apply implements Fault.
func (f *SlowReplica) Apply(rt Runtime) (err error) {
	f.revert, err = rt.Slow(f.ID, false, f.Extra)
	return err
}

// Revert implements Fault.
func (f *SlowReplica) Revert(Runtime) error { return f.revert() }

// SlowReader delays every message sent to the replica by Extra — a
// replica that reads slowly: the rest of the committee keeps its quorum,
// the reader lags, and its backlog waits on the senders' side until the
// fault lifts. On TCP every link toward ID gets Extra of latency and a
// 2 KiB/s throttle.
type SlowReader struct {
	ID    types.ReplicaID
	Extra time.Duration

	revert func() error
}

// Apply implements Fault.
func (f *SlowReader) Apply(rt Runtime) (err error) {
	f.revert, err = rt.Slow(f.ID, true, f.Extra)
	return err
}

// Revert implements Fault.
func (f *SlowReader) Revert(Runtime) error { return f.revert() }

// --- Results ---

// PhaseResult is the metric delta over one phase window.
type PhaseResult struct {
	Name  string
	Start time.Duration
	End   time.Duration
	// Committed / Txs are instances and claimed transactions committed
	// during the phase (first honest replica; on a payment workload, the
	// payments first committed in the phase); TxPerSec is Txs over the
	// phase's length.
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
	// Load is the latency report of the scenario's Workload; nil without
	// one.
	Load *load.Report `json:",omitempty"`
	// Cluster is the finished simulated cluster, for callers that read
	// more of it; nil on another substrate.
	Cluster *harness.Cluster `json:"-"`
}

// Run executes the scenario on the simulator and returns its per-phase
// metrics and the verdict of the paper's four invariants on the finished
// run.
func Run(s Scenario) (*Result, error) {
	c, drv, err := newCluster(s)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	res, err := run(s, c, drv)
	if err != nil {
		return nil, err
	}
	res.Cluster = c
	return res, nil
}

// RunOn executes the scenario on another substrate, which build makes
// without starting it. A scenario the substrate cannot model is refused
// first (Refusal), before anything is built.
func RunOn(s Scenario, build func(Scenario) (Runtime, error)) (*Result, error) {
	if err := Refusal(s); err != nil {
		return nil, err
	}
	rt, err := build(s)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return run(s, rt, nil)
}

// Refusal reports why the scenario needs the simulator, or nil if it can
// run on any substrate. A coalition (Opts.Deceitful), a payment Workload
// and a SimOnly fault all need the simulated cluster; the attack
// registrations wait for a coalition the deployed node can run.
func Refusal(s Scenario) error {
	if s.Opts.Deceitful > 0 {
		return fmt.Errorf("scenario %s: its coalition (Opts.Deceitful = %d) runs on the simulator only", s.Name, s.Opts.Deceitful)
	}
	if s.Workload != nil {
		return fmt.Errorf("scenario %s: its payment Workload runs on the simulator only", s.Name)
	}
	for _, ph := range s.Phases {
		for _, f := range ph.Faults {
			if _, sim := unwrap(f).(SimOnly); sim {
				return fmt.Errorf("scenario %s: phase %s: %T runs on the simulator only", s.Name, ph.Name, unwrap(f))
			}
		}
	}
	return nil
}

// run is the one campaign loop, on any substrate.
func run(s Scenario, rt Runtime, drv *load.Driver) (*Result, error) {
	fail := func(err error) (*Result, error) { return nil, fmt.Errorf("scenario %s: %w", s.Name, err) }
	// Before the cluster starts: arm the first phase's FromStart faults,
	// collect the corrupt replicas, and exclude every replica any phase
	// will crash, sleep or corrupt from the metrics — the honest set stays
	// constant for the whole run, keeping per-phase deltas monotone.
	corrupt := make(map[types.ReplicaID]bool)
	for i := range s.Phases {
		for _, f := range s.Phases[i].Faults {
			if _, restarts := unwrap(f).(*CrashRestart); restarts && drv != nil {
				return fail(errors.New("a CrashRestart fault cannot run under a payment workload"))
			}
			if early, ok := f.(*FromStart); ok && i == 0 {
				if err := early.Apply(rt); err != nil {
					return fail(err)
				}
			}
			f = unwrap(f)
			if ex, ok := f.(MetricExcluder); ok {
				rt.ExcludeFromMetrics(ex.MetricExclusions()...)
			}
			if cr, ok := f.(Corrupter); ok {
				for _, id := range cr.Corrupted() {
					corrupt[id] = true
				}
				rt.ExcludeFromMetrics(cr.Corrupted()...)
			}
		}
	}
	rt.Start()
	// A payment workload's phase counts its payments first committed in
	// the phase; a proposal carrying a payment every pool holds would
	// count it once per proposer.
	snapshot := func() harness.Snapshot {
		snap := rt.Snapshot()
		if drv != nil {
			snap.Txs = drv.Committed()
		}
		return snap
	}

	res := &Result{Scenario: s.Name, Description: s.Description, N: s.Opts.N, Seed: s.Opts.Seed}
	prev := snapshot()
	var now time.Duration
	for i := range s.Phases {
		ph := &s.Phases[i]
		for _, f := range ph.Faults {
			if _, armed := f.(*FromStart); !armed || i > 0 {
				if err := f.Apply(rt); err != nil {
					return fail(err)
				}
			}
		}
		end := now + ph.Duration
		if drv != nil {
			drv.Phase(i, now, end)
		}
		now = end
		if err := rt.Run(now); err != nil {
			return fail(fmt.Errorf("phase %s: %w", ph.Name, err))
		}
		snap := snapshot()
		res.Phases = append(res.Phases, diffPhase(ph.Name, prev, snap))
		prev = snap
		for _, f := range ph.Faults {
			if err := f.Revert(rt); err != nil {
				return fail(err)
			}
		}
	}
	if s.Drain > 0 {
		if err := rt.RunUntilQuiet(now + s.Drain); err != nil {
			return fail(fmt.Errorf("drain: %w", err))
		}
		snap := snapshot()
		res.Phases = append(res.Phases, diffPhase("drain", prev, snap))
		prev = snap
	}
	res.Converged = rt.ConvergedAgreement()
	res.Committed = prev.Committed
	res.Disagreements = prev.Disagreements
	res.Culprits = prev.Culprits
	for _, id := range s.VerifyChains {
		res.Recovered = append(res.Recovered, recovered(rt, id))
	}
	res.Violations = checkInvariants(rt, s.Opts.N, corrupt)
	if drv != nil {
		res.Load = drv.Report(s.Name)
	}
	return res, nil
}

// recovered compares id's committed chain to the first honest
// replica's, instance for instance.
func recovered(rt Runtime, id types.ReplicaID) RecoveryStatus {
	st := RecoveryStatus{ID: id}
	honest := rt.HonestMembers()
	if len(honest) == 0 {
		return st
	}
	ref, got := rt.State(honest[0]).Chain, rt.State(id).Chain
	for k, d := range ref {
		if got[k] == d {
			st.Have++
		}
	}
	st.Want = len(ref)
	st.Match = st.Have == st.Want
	return st
}

// newCluster builds the scenario's cluster: the harness's, running the
// synthetic workload, or with a Workload the payment cluster, whose
// driver submits the arrivals. A payment cluster keeps no store here,
// so there is nothing to close after the run.
func newCluster(s Scenario) (*harness.Cluster, *load.Driver, error) {
	if s.Workload == nil {
		c, err := harness.New(s.Opts)
		return c, nil, err
	}
	phases := make([]string, len(s.Phases))
	for i, ph := range s.Phases {
		phases[i] = ph.Name
	}
	drv, err := load.NewDriver(*s.Workload, phases, zlb.Config{
		N:         s.Opts.N,
		Seed:      s.Opts.Seed,
		MaxBlocks: s.Opts.MaxInstances,
		Tracer:    s.Opts.Tracer,
	})
	if err != nil {
		return nil, nil, err
	}
	return drv.Cluster.Harness(), drv, nil
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
// representation the goldens in determinism_test.go pin bit for bit. A
// workload run's table is its latency report (Result.Load); its phase
// metrics stay in Phases.
func (r *Result) Format() string {
	var b strings.Builder
	if r.Load != nil {
		b.WriteString(r.Load.Format())
	} else {
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
