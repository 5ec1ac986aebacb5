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
// additional deliveries through simnet.Inject. Each campaign is a
// scenario.Scenario whose one phase arms its Injector as a fault, so
// mutations compose with the scenario engine's fault stack (partitions,
// delays, crash/restart) and stay fully deterministic under a fixed seed.
//
// scenario.Run, the simulator's one campaign loop, runs every campaign and
// asserts the four paper invariants on the finished run:
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
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/types"
)

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
	Violations []scenario.Violation
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

// campaign is one registered adversarial strategy: a named way of
// corrupting the message stream (each stage function's comment says what
// it does and what must hold). stage sets the injector's rule and returns
// the campaign at committee size n under a fixed seed.
type campaign struct {
	name  string
	stage func(n int, seed int64, inj *Injector) scenario.Scenario
}

// campaigns is the ordered registry; order is what reports, the seed
// matrix and FuzzCampaignSeeds' committed corpus iterate in.
var campaigns = []campaign{
	{"equivocation", stageEquivocation},
	{"twins", stageTwins},
	{"stale-epoch", stageStaleEpoch},
	{"cert-mutation", stageCertMutation},
	{"replay-reorder", stageReplayReorder},
	{"merge-during-catchup", stageMergeDuringCatchup},
	{"forged-init", stageForgedInit},
}

// Names lists the registered campaigns in registration order.
func Names() []string {
	out := make([]string, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.name
	}
	return out
}

// Run executes a registered campaign by name at committee size n under a
// fixed seed, through scenario.Run, and returns the invariant-checked
// result.
func Run(name string, n int, seed int64) (Result, error) {
	for _, camp := range campaigns {
		if camp.name != name {
			continue
		}
		inj := &Injector{}
		res, err := scenario.Run(camp.stage(n, seed, inj))
		if err != nil {
			return Result{}, fmt.Errorf("conformance: %w", err)
		}
		c := res.Cluster
		out := Result{
			Campaign:      name,
			N:             n,
			Seed:          seed,
			Committed:     res.Committed,
			Disagreements: res.Disagreements,
			Converged:     res.Converged,
			Culprits:      c.CulpritsDetected(),
			Mutated:       inj.Mutated,
			Injected:      inj.Injected,
			Swallowed:     inj.Swallowed,
			Violations:    res.Violations,
		}
		if honest := c.HonestMembers(); len(honest) > 0 {
			seen := make(map[types.ReplicaID]bool)
			for _, change := range c.ChangeResults[honest[0]] {
				for _, id := range change.Excluded {
					if !seen[id] {
						seen[id] = true
						out.Excluded = append(out.Excluded, id)
					}
				}
			}
			out.Excluded = types.SortReplicas(out.Excluded)
		}
		return out, nil
	}
	return Result{}, fmt.Errorf("conformance: unknown campaign %q (have %v)", name, Names())
}

// campaignDrain bounds every campaign from t = 0: long enough for a full
// detect/exclude/include arc, short enough for the fuzz budget.
const campaignDrain = 10 * time.Minute

// deployment is the cluster every campaign starts from: the attack regime
// the scenario campaigns run in, with 500-transaction batches over three
// instances.
func deployment(n int, seed int64) harness.Options {
	opts := harness.AttackRegime(n, seed)
	opts.BatchTxs = 500
	opts.BatchBytes = 400 * 500
	opts.MaxInstances = 3
	return opts
}

// staged is a campaign as the scenario engine runs it: one phase of the
// given length holding faults, after inj, which is armed before the
// cluster starts and stays armed through the drain to campaignDrain.
func staged(name string, opts harness.Options, inj *Injector, phase time.Duration, faults ...scenario.Fault) scenario.Scenario {
	return scenario.Scenario{
		Name: name,
		Opts: opts,
		Phases: []scenario.Phase{{
			Name:     "attack",
			Duration: phase,
			Faults:   append([]scenario.Fault{&scenario.FromStart{Fault: inj}}, faults...),
		}},
		Drain: campaignDrain - phase,
	}
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
