// Package harness assembles full ZLB clusters on the discrete-event
// simulator: committee + pool PKI, ASMR replicas (honest, deceitful,
// benign), the coalition attack wiring, partition-aware latency, and the
// metrics every experiment of §5 reads out (throughput, disagreements,
// detection/exclusion/inclusion/catch-up times).
package harness

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Options configures a simulated cluster.
type Options struct {
	// N is the committee size.
	N int
	// Deceitful is d, the coalition size (first d members by ID).
	Deceitful int
	// Attack selects the coalition strategy; zero value = AttackNone.
	Attack adversary.Attack
	// BaseLatency models the underlying network; nil = AWS matrix.
	BaseLatency latency.Model
	// PartitionDelay is the extra delay injected between honest partitions
	// during attacks; nil = none.
	PartitionDelay latency.Model
	// Cost is the CPU model; zero value charges nothing. DefaultCostModel
	// reproduces the paper's c4.xlarge behaviour.
	Cost simnet.CostModel
	// Seed drives all randomness.
	Seed int64
	// Accountable / Recover select the system: ZLB (true,true),
	// Polygraph baseline (true,false), Red Belly baseline (false,false).
	// The payment application (internal/node) binds ZLB whatever they say.
	Accountable bool
	Recover     bool
	// MaxInstances bounds the chain length; 0 = 16.
	MaxInstances uint64
	// BatchTxs / BatchBytes model each proposal's batch (claimed sizes).
	BatchTxs   int
	BatchBytes int
	// PoolSize is the number of standby candidates; 0 = N (all honest).
	PoolSize int
	// AttackAfter makes the coalition behave honestly on instances below
	// this index (0 = attack from instance 1).
	AttackAfter uint64
	// CoordTimeout overrides the binary consensus coordinator timeout.
	CoordTimeout func(types.Round) time.Duration
	// App builds the application each replica runs — the parameter ASMR
	// takes in the paper: what proposes, and what a commit or a fork
	// merge becomes. It is called with the replica's ID and environment
	// while the replica is built, and again on every Restart. Nil is the
	// synthetic workload of the experiments: tagged 32-byte batches of
	// claimed size, no state beyond the chain coordinates in Commits.
	App func(id types.ReplicaID, env simnet.Env) (Application, error)
	// Tracer, when non-nil, records every replica's consensus lifecycle
	// into per-node buffers with virtual timestamps (internal/obs). The
	// merged stream is bit-identical for a fixed seed at any GOMAXPROCS.
	// Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

// AttackRegime is the deployment every attack experiment and campaign
// starts from: full ZLB (accountable and recovering) on the jittered AWS
// matrix, the c4.xlarge cost model and FastRounds.
func AttackRegime(n int, seed int64) Options {
	return Options{
		N:            n,
		Accountable:  true,
		Recover:      true,
		BaseLatency:  latency.Jittered(latency.NewAWSMatrix(), 0.2),
		Cost:         simnet.DefaultCostModel(),
		Seed:         seed,
		CoordTimeout: FastRounds,
	}
}

// FastRounds is the attack regime's coordinator timeout. The attacks run
// consensus at wire speed (Fig. 4 measures disagreements, not
// throughput): a short round lets a partition finish its instance before
// the other partition's conflicting evidence crosses the injected delay —
// for delays of 500 ms and up, but not for 200 ms, which is the paper's
// observed crossover.
func FastRounds(r types.Round) time.Duration { return 120 * time.Millisecond * time.Duration(r+1) }

// SteadyRounds is the throughput experiments' coordinator timeout.
func SteadyRounds(r types.Round) time.Duration { return 600 * time.Millisecond * time.Duration(r+1) }

// Application is what a replica is built around. The payment node
// (internal/node) is one; the synthetic workload is the harness's own.
type Application interface {
	// Bind adds the application's callbacks to the replica configuration
	// under construction. The harness composes its recorders in front of
	// them and binds a deceitful proposer's attack payload to whatever
	// the batch source returns.
	Bind(cfg *asmr.Config)
	// Attach hands over the replica built from that configuration, before
	// it starts: an application that recovered a chain restores it here.
	Attach(r *asmr.Replica)
	// Start launches the attached replica, and its catch-up when a chain
	// was restored.
	Start()
	// Close releases what the application holds; a crash calls it.
	Close() error
}

// Commit records one replica's commit of one instance.
type Commit struct {
	K        uint64
	Attempt  uint32
	Decision *sbc.Decision
	At       time.Duration
}

// Cluster is a fully wired simulated deployment.
type Cluster struct {
	Opts      Options
	Net       *simnet.Network
	Members   []types.ReplicaID
	PoolIDs   []types.ReplicaID
	Coalition *adversary.Coalition
	Replicas  map[types.ReplicaID]*asmr.Replica
	Signers   map[types.ReplicaID]*crypto.Signer
	// apps holds each replica's application, for Start, Crash and Restart.
	apps map[types.ReplicaID]Application

	// Commits[id][k] is the decision replica id committed for instance k.
	Commits map[types.ReplicaID]map[uint64]*Commit
	// Finals[id][k] marks confirmation finality.
	Finals map[types.ReplicaID]map[uint64]time.Duration
	// ChangeResults collects completed membership changes per replica.
	ChangeResults map[types.ReplicaID][]*membership.Result
	// JoinVerified records when an included pool node finished verifying
	// its catch-up (for the Fig. 5 catch-up series).
	JoinVerified map[types.ReplicaID]time.Duration
	// Intern is the cluster-wide RBC payload intern table: one canonical
	// byte slice per proposal digest instead of one copy per replica.
	Intern *rbc.Intern
	// mu guards the cluster maps that every replica's callbacks write
	// (ChangeResults, JoinVerified): they are shared across replicas, not
	// owned by one, so writes go through one lock whoever drives the
	// replicas. Per-replica entries are disjoint, so the lock only
	// serializes map internals and never orders values.
	mu sync.Mutex
	// slotOutcomes[id][k][slot] is the first per-slot binary decision at
	// replica id: the granularity Fig. 4 counts disagreements at.
	slotOutcomes map[types.ReplicaID]map[uint64]map[types.ReplicaID]slotOutcome
	// metricsExcluded removes replicas from HonestMembers and every
	// metric derived from it. The scenario engine marks replicas it
	// crashes or sleeps: a slept replica misses dropped messages and may
	// lag with stale slot outcomes, and the paper likewise excludes its q
	// benign replicas from the honest readings.
	metricsExcluded map[types.ReplicaID]bool
	// drops and delays are the armed fault predicates (AddDrop, AddDelay).
	drops  []*DropFn
	delays []*DelayFn
}

// New builds the cluster. Replica IDs 1..N are the committee; IDs
// N+1..N+PoolSize are standby candidates.
func New(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("harness: N must be positive, got %d", opts.N)
	}
	if opts.MaxInstances == 0 {
		opts.MaxInstances = 16
	}
	poolSize := opts.PoolSize
	if poolSize == 0 {
		poolSize = opts.N
	}
	total := opts.N + poolSize
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, total, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	members := make([]types.ReplicaID, opts.N)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	pool := make([]types.ReplicaID, poolSize)
	for i := range pool {
		pool[i] = types.ReplicaID(opts.N + i + 1)
	}

	attack := opts.Attack
	if attack == 0 {
		attack = adversary.AttackNone
	}
	coalition := adversary.NewCoalition(attack, members, opts.Deceitful, adversary.MaxBranches(opts.N, opts.Deceitful))

	base := opts.BaseLatency
	if base == nil {
		base = latency.NewAWSMatrix()
	}
	var model latency.Model = base
	if opts.PartitionDelay != nil {
		model = &latency.PartitionOverlay{
			Base:        base,
			Extra:       opts.PartitionDelay,
			PartitionOf: coalition.PartitionOf,
		}
	}

	c := &Cluster{
		Opts:          opts,
		Members:       members,
		PoolIDs:       pool,
		Coalition:     coalition,
		Replicas:      make(map[types.ReplicaID]*asmr.Replica, total),
		Signers:       make(map[types.ReplicaID]*crypto.Signer, total),
		apps:          make(map[types.ReplicaID]Application, total),
		Commits:       make(map[types.ReplicaID]map[uint64]*Commit),
		Finals:        make(map[types.ReplicaID]map[uint64]time.Duration),
		ChangeResults: make(map[types.ReplicaID][]*membership.Result),
		JoinVerified:  make(map[types.ReplicaID]time.Duration),
		slotOutcomes:  make(map[types.ReplicaID]map[uint64]map[types.ReplicaID]slotOutcome),
	}
	c.Net = simnet.New(simnet.Config{Latency: model, Cost: opts.Cost, Seed: opts.Seed})
	c.Intern = rbc.NewIntern()

	all := append(append([]types.ReplicaID{}, members...), pool...)
	for i, id := range all {
		c.Signers[id] = signers[i]
		c.Commits[id] = make(map[uint64]*Commit)
		c.Finals[id] = make(map[uint64]time.Duration)
		c.slotOutcomes[id] = make(map[uint64]map[types.ReplicaID]slotOutcome)
		if err := c.install(c.Net.AddNode, id); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// install registers replica id on the network — AddNode at New,
// ReplaceHandler at Restart — as the replica buildReplica returns.
func (c *Cluster) install(register func(types.ReplicaID, func(simnet.Env) simnet.Handler), id types.ReplicaID) error {
	var err error
	register(id, func(env simnet.Env) simnet.Handler {
		var r *asmr.Replica
		r, err = c.buildReplica(id, env)
		return r
	})
	return err
}

// buildReplica assembles one replica around its application — the one
// way a replica is put together, at New and at every Restart: the
// application binds its callbacks into the configuration, the harness
// puts its recorders in front of them, and the replica is built once.
func (c *Cluster) buildReplica(id types.ReplicaID, env simnet.Env) (*asmr.Replica, error) {
	var app Application = &synthetic{c: c, id: id}
	if c.Opts.App != nil {
		var err error
		if app, err = c.Opts.App(id, env); err != nil {
			return nil, fmt.Errorf("harness: application of replica %v: %w", id, err)
		}
	}
	adv := c.Coalition.SBCAdversary(id)
	cfg := asmr.Config{
		Self:               id,
		Signer:             c.Signers[id],
		Env:                env,
		InitialCommittee:   c.Members,
		PoolCandidates:     c.PoolIDs,
		Accountable:        c.Opts.Accountable,
		Recover:            c.Opts.Recover,
		CoordTimeout:       c.Opts.CoordTimeout,
		MaxInstances:       c.Opts.MaxInstances,
		Adversary:          adv,
		AttackFromInstance: c.Opts.AttackAfter,
		Deceitful:          c.Coalition.IsDeceitful(id),
		Intern:             c.Intern,
		Tracer:             c.Opts.Tracer.Node(id),
		OnSlotDecide: func(k uint64, _ uint32, slot types.ReplicaID, value bool, digest types.Digest) {
			byK := c.slotOutcomes[id]
			bySlot, ok := byK[k]
			if !ok {
				bySlot = make(map[types.ReplicaID]slotOutcome)
				byK[k] = bySlot
			}
			if _, dup := bySlot[slot]; !dup {
				bySlot[slot] = slotOutcome{bit: value, digest: digest}
			}
		},
		OnFinal: func(k uint64, _ types.Digest) {
			c.Finals[id][k] = env.Now()
		},
		OnJoined: func(uint64, []types.ReplicaID) {
			c.mu.Lock()
			c.JoinVerified[id] = env.Now()
			c.mu.Unlock()
		},
	}
	app.Bind(&cfg)
	// What the harness shares with the application: its recorders run
	// first (the metrics read a commit the application is still applying),
	// and the reliable broadcast attack forks whatever batch was proposed.
	propose, commit, changed := cfg.BatchSource, cfg.OnCommit, cfg.OnMembershipChange
	if adv != nil && c.Coalition.Attack == adversary.AttackRBCast {
		cfg.BatchSource = func(k uint64) asmr.Batch {
			batch := propose(k)
			if len(batch.Payload) > 0 {
				c.Coalition.BindRBCastPayload(id, adv, batch.Payload)
			}
			return batch
		}
	}
	cfg.OnCommit = func(k uint64, attempt uint32, d *sbc.Decision) {
		c.Commits[id][k] = &Commit{K: k, Attempt: attempt, Decision: d, At: env.Now()}
		if commit != nil {
			commit(k, attempt, d)
		}
	}
	cfg.OnMembershipChange = func(res *membership.Result) {
		c.mu.Lock()
		c.ChangeResults[id] = append(c.ChangeResults[id], res)
		c.mu.Unlock()
		if changed != nil {
			changed(res)
		}
	}
	r := asmr.NewReplica(cfg)
	app.Attach(r)
	c.Replicas[id], c.apps[id] = r, app
	return r, nil
}

// synthetic is the application of the experiments: it proposes a tagged
// batch of the claimed size and keeps nothing. Its chain is what the
// harness recorded in Commits, which is what a restarted replica restores.
type synthetic struct {
	c  *Cluster
	id types.ReplicaID
	r  *asmr.Replica
}

func (s *synthetic) Bind(cfg *asmr.Config) { cfg.BatchSource = s.propose }

func (s *synthetic) propose(k uint64) asmr.Batch {
	payload := make([]byte, 32)
	binary.BigEndian.PutUint32(payload[0:], uint32(s.id))
	binary.BigEndian.PutUint64(payload[4:], k)
	copy(payload[12:], "batch-payload-tag")
	return asmr.Batch{
		Payload:      payload,
		ClaimedBytes: s.c.Opts.BatchBytes,
		ClaimedSigs:  s.c.Opts.BatchTxs,
	}
}

func (s *synthetic) Attach(r *asmr.Replica) {
	s.r = r
	blocks := make([]asmr.RestoredBlock, 0, len(s.c.Commits[s.id]))
	for _, commit := range s.c.Commits[s.id] {
		blocks = append(blocks, asmr.RestoredBlock{K: commit.K, Attempt: commit.Attempt, Digest: commit.Decision.Digest()})
	}
	r.Restore(blocks)
}

func (s *synthetic) Start() {
	s.r.Start()
	if s.r.CommittedCount() > 0 {
		s.r.RequestCatchup()
	}
}

func (s *synthetic) Close() error { return nil }

// Start launches every committee member.
func (c *Cluster) Start() {
	for _, id := range c.Members {
		c.apps[id].Start()
	}
}

// Exhausted reports whether the simulator stopped on its MaxEvents budget
// — a truncated run whose metrics must not be reported as results.
func (c *Cluster) Exhausted() bool { return c.Net.Exhausted }

// Crash kills a replica: it drops off the network and its application is
// closed, the state a killed process leaves behind. Pair with Restart.
func (c *Cluster) Crash(id types.ReplicaID) error {
	c.Net.SetUp(id, false)
	return c.apps[id].Close()
}

// Restart brings a crashed replica back as a fresh process: the old
// in-memory protocol state is discarded (simnet.ReplaceHandler), the
// replica is built again around a new application, which recovers what
// the old one left behind, and the new incarnation rejoins the network,
// resumes at its next instance and requests certificate-verified catch-up
// for everything decided while it was down. A replica whose application
// does not come back stays down.
func (c *Cluster) Restart(id types.ReplicaID) error {
	if err := c.install(c.Net.ReplaceHandler, id); err != nil {
		return err
	}
	c.Net.SetUp(id, true)
	c.apps[id].Start()
	return nil
}

// HonestMembers returns the committee members that are neither deceitful
// nor excluded from the metrics (ExcludeFromMetrics).
func (c *Cluster) HonestMembers() []types.ReplicaID {
	out := make([]types.ReplicaID, 0, len(c.Members))
	for _, id := range c.Members {
		if !c.Coalition.IsDeceitful(id) && !c.metricsExcluded[id] {
			out = append(out, id)
		}
	}
	return out
}

// ExcludeFromMetrics removes replicas from the honest metric readings
// permanently (a replica that slept through instances may lag for the
// rest of the run, so it is not reinstated on wake).
func (c *Cluster) ExcludeFromMetrics(ids ...types.ReplicaID) {
	if c.metricsExcluded == nil {
		c.metricsExcluded = make(map[types.ReplicaID]bool)
	}
	for _, id := range ids {
		c.metricsExcluded[id] = true
	}
}

// slotOutcome is one honest replica's decided outcome for a slot.
type slotOutcome struct {
	bit    bool
	digest types.Digest
}

// Disagreements counts, across all instances and proposer slots, how many
// extra distinct outcomes honest replicas decided — the paper's
// "disagreeing decisions / proposals" metric of Fig. 4: 0 means total
// agreement; a slot decided two different ways contributes 1. Outcomes
// are counted at the per-slot binary-decision granularity: a slot's
// decision is final the moment its binary consensus decides, even if the
// recovery stops the enclosing instance before the full superblock
// commits.
func (c *Cluster) Disagreements() int {
	total := 0
	for _, d := range c.disagreementsByInstance() {
		total += d
	}
	return total
}

func (c *Cluster) disagreementsByInstance() map[uint64]int {
	honest := c.HonestMembers()
	ks := make(map[uint64]bool)
	for _, id := range honest {
		for k := range c.slotOutcomes[id] {
			ks[k] = true
		}
	}
	out := make(map[uint64]int)
	for k := range ks {
		perSlot := make(map[types.ReplicaID]map[slotOutcome]bool)
		for _, id := range honest {
			for slot, oc := range c.slotOutcomes[id][k] {
				// 1-decisions whose payload had not arrived yet are
				// indistinguishable placeholders; skip them rather than
				// fabricate disagreements.
				if oc.bit && oc.digest.IsZero() {
					continue
				}
				// A 0-decision selects no proposal: whether the payload
				// had reached this replica when it decided is not part of
				// the outcome.
				if !oc.bit {
					oc.digest = types.Digest{}
				}
				m, ok := perSlot[slot]
				if !ok {
					m = make(map[slotOutcome]bool)
					perSlot[slot] = m
				}
				m[oc] = true
			}
		}
		for _, outcomes := range perSlot {
			if len(outcomes) > 1 {
				out[k] += len(outcomes) - 1
			}
		}
	}
	return out
}

// DisagreementsByInstance returns, per instance, how many extra distinct
// slot outcomes honest replicas decided (0 omitted).
func (c *Cluster) DisagreementsByInstance() map[uint64]int {
	out := make(map[uint64]int)
	for k, d := range c.disagreementsByInstance() {
		if d > 0 {
			out[k] = d
		}
	}
	return out
}

// AgreedInstances counts instances where every honest replica that
// committed agreed on the digest.
func (c *Cluster) AgreedInstances() int {
	honest := c.HonestMembers()
	ks := make(map[uint64]bool)
	for _, id := range honest {
		for k := range c.Commits[id] {
			ks[k] = true
		}
	}
	agreed := 0
	for k := range ks {
		var ref types.Digest
		ok := true
		first := true
		for _, id := range honest {
			commit, have := c.Commits[id][k]
			if !have {
				continue
			}
			d := commit.Decision.Digest()
			if first {
				ref = d
				first = false
			} else if d != ref {
				ok = false
				break
			}
		}
		if ok && !first {
			agreed++
		}
	}
	return agreed
}

// DetectionTime returns the earliest honest replica's time to hold PoFs on
// fd = ⌈n/3⌉ distinct replicas (the paper's "time to detect", Fig. 5
// left); ok is false if never reached.
func (c *Cluster) DetectionTime() (time.Duration, bool) {
	best := time.Duration(0)
	found := false
	for _, id := range c.HonestMembers() {
		r := c.Replicas[id]
		if r.ThresholdAt > 0 {
			if !found || r.ThresholdAt < best {
				best = r.ThresholdAt
				found = true
			}
		}
	}
	return best, found
}

// ExclusionTime and InclusionTime return the first honest replica's
// membership-change phase durations (Fig. 5 center).
func (c *Cluster) ExclusionTime() (time.Duration, bool) {
	for _, id := range c.HonestMembers() {
		for _, res := range c.ChangeResults[id] {
			return res.ExcludedAt - res.StartedAt, true
		}
	}
	return 0, false
}

// InclusionTime returns the duration of the first inclusion consensus.
func (c *Cluster) InclusionTime() (time.Duration, bool) {
	for _, id := range c.HonestMembers() {
		for _, res := range c.ChangeResults[id] {
			return res.IncludedAt - res.ExcludedAt, true
		}
	}
	return 0, false
}

// Throughput returns committed claimed-transactions per virtual second,
// measured at the first honest replica over its committed instances.
func (c *Cluster) Throughput() float64 {
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return 0
	}
	id := honest[0]
	var txs int
	var last time.Duration
	for _, commit := range c.Commits[id] {
		txs += commit.Decision.TotalClaimedTx()
		if commit.At > last {
			last = commit.At
		}
	}
	if last == 0 {
		return 0
	}
	return float64(txs) / last.Seconds()
}

// CommittedInstances returns how many instances the first honest replica
// committed.
func (c *Cluster) CommittedInstances() int {
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return 0
	}
	return len(c.Commits[honest[0]])
}

// ConvergedAgreement reports whether, after recovery, the final committee
// of every honest replica matches and its deceitful fraction is below
// 1/3 — the convergence property of Def. 3.
func (c *Cluster) ConvergedAgreement() bool {
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return false
	}
	ref := c.Replicas[honest[0]].View().Members()
	for _, id := range honest[1:] {
		got := c.Replicas[id].View().Members()
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
	}
	deceitful := 0
	for _, id := range ref {
		if c.Coalition.IsDeceitful(id) {
			deceitful++
		}
	}
	return deceitful < types.FaultThreshold(len(ref))
}

// Snapshot is a cumulative point-in-time reading of every metric the
// scenario engine diffs across fault phases (internal/scenario). All
// counters are totals since the start of the run; per-phase values are
// obtained by subtracting two snapshots.
type Snapshot struct {
	// At is the virtual clock when the snapshot was taken.
	At time.Duration
	// Committed is the instance count at the first honest replica.
	Committed int
	// Txs is the claimed transactions committed at the first honest
	// replica.
	Txs int
	// Disagreements is the Fig. 4 disagreement count so far.
	Disagreements int
	// Culprits is how many replicas the first honest replica has ever
	// proven deceitful. The count is monotone: proofs consumed by a
	// completed membership change (Log.Forget) still count, so the metric
	// reads as "culprits detected so far" rather than "PoFs currently
	// held".
	Culprits int
	// Detected reports the fd = ⌈n/3⌉ detection threshold (Fig. 5 left);
	// DetectedAt is the earliest honest replica's absolute detection time.
	Detected   bool
	DetectedAt time.Duration
	// Excluded / Included report membership-change progress at the first
	// honest replica that completed a change, with absolute times.
	Excluded   bool
	ExcludedAt time.Duration
	Included   bool
	IncludedAt time.Duration
	// Delivered / Dropped / BytesSent mirror the simulator counters.
	Delivered int
	Dropped   int
	BytesSent int64
}

// Snapshot reads the current cumulative metrics.
func (c *Cluster) Snapshot() Snapshot {
	s := Snapshot{
		At:            c.Net.Now(),
		Disagreements: c.Disagreements(),
		Delivered:     c.Net.Delivered,
		Dropped:       c.Net.Dropped,
		BytesSent:     c.Net.BytesSent,
	}
	honest := c.HonestMembers()
	if len(honest) > 0 {
		first := honest[0]
		s.Committed = len(c.Commits[first])
		for _, commit := range c.Commits[first] {
			s.Txs += commit.Decision.TotalClaimedTx()
		}
		s.Culprits = c.Replicas[first].Log().ProvenCount()
	}
	if at, ok := c.DetectionTime(); ok {
		s.Detected = true
		s.DetectedAt = at
	}
	for _, id := range honest {
		for _, res := range c.ChangeResults[id] {
			if !s.Excluded || res.ExcludedAt < s.ExcludedAt {
				s.Excluded = true
				s.ExcludedAt = res.ExcludedAt
			}
			if !s.Included || res.IncludedAt < s.IncludedAt {
				s.Included = true
				s.IncludedAt = res.IncludedAt
			}
		}
	}
	return s
}

// CulpritsDetected returns every culprit the first honest replica has
// ever proven deceitful, including those whose proofs a completed
// membership change already consumed.
func (c *Cluster) CulpritsDetected() []types.ReplicaID {
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return nil
	}
	return c.Replicas[honest[0]].Log().ProvenCulprits()
}
