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
// a finished run of an n-replica committee, reading the substrate through
// its Runtime, so they are checked on the deployed nodes too. The
// ground-truth corrupt set is the cluster's coalition
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
func checkInvariants(rt Runtime, n int, corrupt map[types.ReplicaID]bool) []Violation {
	var out []Violation
	honest := rt.HonestMembers()
	if len(honest) == 0 {
		return []Violation{{Invariant: "a", Detail: "no honest replicas to check"}}
	}
	disagreements := rt.Disagreements()
	states := make(map[types.ReplicaID]harness.ReplicaState, len(honest))
	for _, id := range honest {
		states[id] = rt.State(id)
	}

	// (a) agreement up to common prefix / convergence after merge.
	if disagreements == 0 {
		ref := honest[0]
		for _, id := range honest[1:] {
			for k, d := range states[id].Chain {
				if rd, ok := states[ref].Chain[k]; ok && rd != d {
					out = append(out, Violation{
						Invariant: "a",
						Detail: fmt.Sprintf("replicas %v and %v committed different digests for instance %d with no disagreement recorded",
							ref, id, k),
					})
				}
			}
		}
	} else if !rt.ConvergedAgreement() {
		out = append(out, Violation{
			Invariant: "a",
			Detail:    fmt.Sprintf("%d disagreements but honest replicas did not converge", disagreements),
		})
	}

	// (b) disagreement implies ≥ ⌈n/3⌉ provable culprits everywhere.
	if disagreements > 0 {
		fd := types.FaultThreshold(n)
		for _, id := range honest {
			if got := len(states[id].Culprits); got < fd {
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
		current := make(map[types.ReplicaID]bool)
		for _, m := range states[id].Committee {
			current[m] = true
		}
		for _, ex := range states[id].Excluded {
			if current[ex] {
				out = append(out, Violation{
					Invariant: "c",
					Detail:    fmt.Sprintf("replica %v excluded %v but it is back in the committee", id, ex),
				})
			}
		}
	}

	// (d) no honest replica is ever accused.
	for _, id := range honest {
		for _, culprit := range states[id].Culprits {
			if !corrupt[culprit] && !rt.Deceitful(culprit) {
				out = append(out, Violation{
					Invariant: "d",
					Detail:    fmt.Sprintf("replica %v holds a PoF against honest replica %v", id, culprit),
				})
			}
		}
	}
	return out
}
