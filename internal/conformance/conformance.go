// Package conformance is the structure-aware Byzantine fuzzing harness:
// it drives full asmr/sbc/bincon/rbc clusters with mutated, replayed and
// fabricated protocol messages and checks the paper's accountability
// invariants after every run.
//
// Unlike the wire fuzzers (which prove decoders never panic on arbitrary
// bytes) and the adversary package (which scripts the paper's two named
// coalition attacks), conformance explores the protocol space *between*
// those layers: every mutation is valid-by-construction — a re-signed
// AUX vote for the opposite value, a twin ECHO signed with a stolen key,
// a certificate with one signature removed — so the replicas' semantic
// defences (signature checks, certificate quorums, equivocation
// cross-checking) are what is under test, not the codec.
//
// The injection surface is simnet.Network.DeliverRule: an Injector owns
// the rule, rewrites or swallows messages at delivery time, and fabricates
// additional deliveries through simnet.Inject. Mutations therefore compose
// with the existing fault stack (partitions, delays, crash/restart) and
// stay fully deterministic under a fixed seed.
//
// After every campaign the four paper invariants are asserted
// (see CheckInvariants):
//
//	(a) honest replicas agree up to the common prefix, or have provably
//	    merged when the run forced a disagreement;
//	(b) every observed disagreement yields ≥ ⌈n/3⌉ provable culprits in
//	    the accountability log of every honest replica;
//	(c) replicas excluded by a completed membership change never rejoin
//	    the committee;
//	(d) no honest replica is ever accused.
package conformance

import (
	"fmt"
	"strings"
	"time"

	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Campaign is one registered adversarial strategy: a named way of
// corrupting the message stream, plus the ground truth of which replicas
// it corrupts (the set the invariant checker may see accused).
type Campaign struct {
	Name        string
	Description string
	// Run executes the campaign at committee size n under a fixed seed
	// and returns the invariant-checked result.
	Run func(n int, seed int64) (Result, error)
}

// Result is one campaign run's deterministic outcome: everything the
// goldens pin plus the invariant verdicts.
type Result struct {
	Campaign      string
	N             int
	Seed          int64
	Committed     int
	Disagreements int
	Converged     bool
	// Culprits is the first honest replica's monotone ever-proven set.
	Culprits []types.ReplicaID
	// Excluded is the union of replicas excluded by completed membership
	// changes at the first honest replica.
	Excluded []types.ReplicaID
	// Mutated / Injected / Swallowed count the injector's interventions.
	Mutated   int
	Injected  int
	Swallowed int
	// Violations is empty iff all four invariants held.
	Violations []Violation
}

// Format renders the result in the fixed golden layout.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance %s n=%d seed=%d committed=%d disagreements=%d converged=%v mutated=%d injected=%d swallowed=%d\n",
		r.Campaign, r.N, r.Seed, r.Committed, r.Disagreements, r.Converged, r.Mutated, r.Injected, r.Swallowed)
	fmt.Fprintf(&b, "culprits=%v excluded=%v\n", r.Culprits, r.Excluded)
	if len(r.Violations) == 0 {
		b.WriteString("invariants: ok\n")
		return b.String()
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation (%s): %s\n", v.Invariant, v.Detail)
	}
	return b.String()
}

// campaigns is the ordered registry; order is what reports and the
// seed-matrix CI job iterate in.
var campaigns = []Campaign{
	{
		Name: "equivocation",
		Description: "⌈n/3⌉ replicas send conflicting re-signed AUX votes: " +
			"every honest log gets local PoFs, the coalition is excluded",
		Run: runEquivocation,
	},
	{
		Name: "twins",
		Description: "⌈n/3⌉ replicas have a twin holding their signing key " +
			"that echoes a conflicting digest: local PoFs, exclusion",
		Run: runTwins,
	},
	{
		Name: "stale-epoch",
		Description: "unsigned EST votes shifted across rounds, signed votes " +
			"replayed stale and forged with broken signatures: no accusations",
		Run: runStaleEpoch,
	},
	{
		Name: "cert-mutation",
		Description: "DECIDE certificates mutated with valid signatures " +
			"(truncated, duplicate signer, flipped value): all rejected",
		Run: runCertMutation,
	},
	{
		Name: "replay-reorder",
		Description: "deterministic duplication and delayed re-delivery of " +
			"arbitrary protocol messages: agreement unaffected",
		Run: runReplayReorder,
	},
	{
		Name: "merge-during-catchup",
		Description: "a real coalition fork heals while captured stale DECIDEs " +
			"are replayed into the merge: culprits proven, branches merge",
		Run: runMergeDuringCatchup,
	},
	{
		Name: "forged-init",
		Description: "a coalition fork heals while every certified block shipped to an honest " +
			"replica has an honest INIT statement re-valued under its old signature and an unsigned " +
			"vote planted on a slot decided 0: both dropped, nobody honest accused",
		Run: runForgedInit,
	},
}

// Names lists the registered campaigns in registration order.
func Names() []string {
	out := make([]string, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.Name
	}
	return out
}

// Campaigns returns the registered campaigns in registration order.
func Campaigns() []Campaign {
	out := make([]Campaign, len(campaigns))
	copy(out, campaigns)
	return out
}

// Run executes a registered campaign by name.
func Run(name string, n int, seed int64) (Result, error) {
	for _, c := range campaigns {
		if c.Name == name {
			return c.Run(n, seed)
		}
	}
	return Result{}, fmt.Errorf("conformance: unknown campaign %q (have %v)", name, Names())
}

// fastRounds is the coordinator timeout every campaign uses: short rounds
// keep adversarial runs cheap enough for the fuzz budget.
func fastRounds(r types.Round) time.Duration {
	return 120 * time.Millisecond * time.Duration(r+1)
}

// newCluster builds the shared campaign deployment: full ZLB
// (accountable + recover) on the jittered AWS matrix with the c4.xlarge
// cost model, exactly the scenario engine's environment so conformance
// results and scenario goldens live in the same regime.
func newCluster(n int, seed int64, tweak func(*harness.Options)) (*harness.Cluster, error) {
	opts := harness.Options{
		N:            n,
		Accountable:  true,
		Recover:      true,
		BaseLatency:  latency.Jittered(latency.NewAWSMatrix(), 0.2),
		Cost:         simnet.DefaultCostModel(),
		Seed:         seed,
		BatchTxs:     500,
		BatchBytes:   400 * 500,
		MaxInstances: 3,
		CoordTimeout: fastRounds,
	}
	if tweak != nil {
		tweak(&opts)
	}
	return harness.New(opts)
}

// finish drains the cluster, runs the invariant checker and assembles the
// Result. corrupt is the campaign's ground-truth corrupt set (coalition
// members are added automatically).
func finish(campaign string, n int, seed int64, c *harness.Cluster, inj *Injector, corrupt map[types.ReplicaID]bool, drain time.Duration) Result {
	c.RunUntilQuiet(drain)
	res := Result{
		Campaign:      campaign,
		N:             n,
		Seed:          seed,
		Committed:     c.CommittedInstances(),
		Disagreements: c.Disagreements(),
		Converged:     c.ConvergedAgreement(),
		Culprits:      c.CulpritsDetected(),
		Mutated:       inj.Mutated,
		Injected:      inj.Injected,
		Swallowed:     inj.Swallowed,
	}
	if honest := c.HonestMembers(); len(honest) > 0 {
		seen := make(map[types.ReplicaID]bool)
		for _, change := range c.ChangeResults[honest[0]] {
			for _, id := range change.Excluded {
				if !seen[id] {
					seen[id] = true
					res.Excluded = append(res.Excluded, id)
				}
			}
		}
		res.Excluded = types.SortReplicas(res.Excluded)
	}
	full := make(map[types.ReplicaID]bool, len(corrupt))
	for id := range corrupt {
		full[id] = true
	}
	for _, id := range c.Members {
		if c.Coalition.IsDeceitful(id) {
			full[id] = true
		}
	}
	res.Violations = CheckInvariants(c, full)
	return res
}

// firstIDs returns replica IDs 1..k — the campaign convention for which
// replicas are corrupted, mirroring the adversary package's coalition.
func firstIDs(k int) []types.ReplicaID {
	out := make([]types.ReplicaID, k)
	for i := range out {
		out[i] = types.ReplicaID(i + 1)
	}
	return out
}
