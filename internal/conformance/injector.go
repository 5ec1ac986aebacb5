package conformance

import (
	"fmt"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// Rule is a campaign's per-delivery mutator, with simnet.DeliverRule
// semantics: return msg unchanged to pass it through, a different message
// to rewrite it in flight, or nil to swallow it. Rules run on the
// simulator's event loop, so they must be deterministic and must build
// fresh messages rather than mutating msg in place — a multicast shares
// one message value across all its recipients.
type Rule func(from, to types.ReplicaID, msg simnet.Message) simnet.Message

// Injector owns a cluster's delivery-interception surface. It is the
// scenario fault every campaign arms before the cluster starts: it
// installs itself as the network's DeliverRule, stays installed through
// the drain, and layers three guarantees on top:
//
//   - messages the injector fabricated (Inject) are never re-mutated, so
//     rules cannot feed back on their own output;
//   - mutations are scoped to the handler incarnation the campaign armed
//     against: once a node's handler is replaced (simnet.ReplaceHandler),
//     deliveries to it pass through untouched — a restarted replica must
//     not receive messages mutated for its previous epoch;
//   - interventions are counted (Mutated/Injected/Swallowed) so goldens
//     pin the exact adversarial pressure a seed produces.
type Injector struct {
	c    *harness.Cluster
	rule Rule
	// corrupt lists the replicas the rule corrupts outside the coalition.
	corrupt []types.ReplicaID
	// injected marks fabricated messages by identity. Entries are kept for
	// the whole run: the same message may be injected to many recipients.
	injected map[simnet.Message]bool
	// epochs snapshots each node's handler epoch at arming time.
	epochs map[types.ReplicaID]uint32
	// Mutated counts in-flight rewrites, Injected fabricated deliveries,
	// Swallowed rule-dropped messages.
	Mutated   int
	Injected  int
	Swallowed int
}

// Apply implements scenario.Fault: it installs the injector as the
// cluster's delivery rule. Installing a DeliverRule forces the simulator
// into sequential mode, so every rule invocation and injection is
// deterministic under the cluster seed.
func (inj *Injector) Apply(rt scenario.Runtime) error {
	c := rt.(*harness.Cluster)
	inj.c = c
	inj.injected = make(map[simnet.Message]bool)
	inj.epochs = make(map[types.ReplicaID]uint32)
	for _, id := range c.Net.NodeIDs() {
		inj.epochs[id] = c.Net.Epoch(id)
	}
	c.Net.DeliverRule = inj.deliver
	return nil
}

// Revert implements scenario.Fault: the rule stays armed through the
// drain.
func (inj *Injector) Revert(scenario.Runtime) error { return nil }

// SimOnly implements scenario.SimOnly: the injector rewrites messages
// inside simnet.
func (*Injector) SimOnly() {}

// Corrupted implements scenario.Corrupter.
func (inj *Injector) Corrupted() []types.ReplicaID { return inj.corrupt }

// SetRule installs the campaign's mutator; a nil rule passes everything.
func (inj *Injector) SetRule(r Rule) { inj.rule = r }

func (inj *Injector) deliver(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
	if inj.injected[msg] {
		return msg
	}
	if inj.rule == nil || inj.c.Net.Epoch(to) != inj.epochs[to] {
		return msg
	}
	out := inj.rule(from, to, msg)
	switch {
	case out == nil:
		inj.Swallowed++
	case out != msg:
		inj.Mutated++
	}
	return out
}

// Inject fabricates a delivery: msg arrives at to, attributed to from,
// after the given virtual delay. The message is exempted from further
// mutation. Safe to call from inside a Rule — that is the main use:
// pass the original through and inject a conflicting sibling.
func (inj *Injector) Inject(from, to types.ReplicaID, msg simnet.Message, after time.Duration) {
	inj.injected[msg] = true
	inj.Injected++
	inj.c.Net.Inject(from, to, msg, after)
}

// Sign signs a statement with a replica's real key — the harness holds
// every signer, committee and pool, which is exactly the capability a
// twin (a second process holding a replica's key) has.
func (inj *Injector) Sign(id types.ReplicaID, stmt accountability.Statement) (accountability.Signed, error) {
	s, ok := inj.c.Signers[id]
	if !ok {
		return accountability.Signed{}, fmt.Errorf("conformance: no signer for %v", id)
	}
	return accountability.SignStatement(s, stmt)
}
