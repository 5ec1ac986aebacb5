package scenario

import (
	"fmt"

	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/types"
)

// Violation is one failed invariant with enough detail to reproduce.
type Violation struct {
	// Invariant is the paper label: "a", "b", "c" or "d".
	Invariant string
	Detail    string
}

// checkInvariants asserts the paper's four accountability invariants over
// a finished run. The ground-truth corrupt set is the cluster's coalition
// plus corrupt, the replicas a campaign corrupted outside it (wire-level
// twins and equivocators); every accusation outside that set is a
// violation.
//
//	(a) Agreement up to common prefix: with no observed disagreement,
//	    every pair of honest replicas must agree digest-for-digest on
//	    every instance both committed; after a forced disagreement the
//	    honest committee must have converged (matching final committees
//	    with a sub-⌈n/3⌉ deceitful fraction — the merge happened).
//	(b) Accountability: any observed disagreement must leave every honest
//	    replica with PoFs on at least ⌈n/3⌉ distinct replicas.
//	(c) Exclusion is permanent: a replica excluded by a completed
//	    membership change never reappears in that replica's committee.
//	(d) No false accusation: no honest replica is ever proven deceitful,
//	    at any honest replica, even transiently (the proven set is
//	    monotone).
func checkInvariants(c *harness.Cluster, corrupt map[types.ReplicaID]bool) []Violation {
	var out []Violation
	honest := c.HonestMembers()
	if len(honest) == 0 {
		return []Violation{{Invariant: "a", Detail: "no honest replicas to check"}}
	}
	n := len(c.Members)

	// (a) agreement up to common prefix / convergence after merge.
	if c.Disagreements() == 0 {
		ref := honest[0]
		refChain := c.Replicas[ref].ChainDigests()
		for _, id := range honest[1:] {
			for k, d := range c.Replicas[id].ChainDigests() {
				if rd, ok := refChain[k]; ok && rd != d {
					out = append(out, Violation{
						Invariant: "a",
						Detail: fmt.Sprintf("replicas %v and %v committed different digests for instance %d with no disagreement recorded",
							ref, id, k),
					})
				}
			}
		}
	} else if !c.ConvergedAgreement() {
		out = append(out, Violation{
			Invariant: "a",
			Detail:    fmt.Sprintf("%d disagreements but honest replicas did not converge", c.Disagreements()),
		})
	}

	// (b) disagreement implies ≥ ⌈n/3⌉ provable culprits everywhere.
	if c.Disagreements() > 0 {
		fd := types.FaultThreshold(n)
		for _, id := range honest {
			if got := c.Replicas[id].Log().ProvenCount(); got < fd {
				out = append(out, Violation{
					Invariant: "b",
					Detail: fmt.Sprintf("replica %v proved only %d culprits, need ≥ %d after a disagreement",
						id, got, fd),
				})
			}
		}
	}

	// (c) excluded culprits never rejoin.
	for _, id := range honest {
		members := c.Replicas[id].View().Members()
		current := make(map[types.ReplicaID]bool, len(members))
		for _, m := range members {
			current[m] = true
		}
		for _, change := range c.ChangeResults[id] {
			for _, ex := range change.Excluded {
				if current[ex] {
					out = append(out, Violation{
						Invariant: "c",
						Detail:    fmt.Sprintf("replica %v excluded %v but it is back in the committee", id, ex),
					})
				}
			}
		}
	}

	// (d) no honest replica is ever accused.
	for _, id := range honest {
		for _, culprit := range c.Replicas[id].Log().ProvenCulprits() {
			if !corrupt[culprit] && !c.Coalition.IsDeceitful(culprit) {
				out = append(out, Violation{
					Invariant: "d",
					Detail:    fmt.Sprintf("replica %v holds a PoF against honest replica %v", id, culprit),
				})
			}
		}
	}
	return out
}
