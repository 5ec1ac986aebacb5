package conformance

import (
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// campaignDrain bounds every campaign's quiet-drain: long enough for a
// full detect/exclude/include arc, short enough for the fuzz budget.
const campaignDrain = 10 * time.Minute

// pairKey deduplicates per-recipient injections: one conflicting sibling
// per (sender, recipient, equivocation slot) is enough for a PoF, and
// keeping the volume flat keeps runs cheap and goldens readable.
type pairKey struct {
	from, to types.ReplicaID
	key      accountability.SlotKey
}

// runEquivocation corrupts the first ⌈n/3⌉ replicas at the wire: each of
// their signed AUX votes is delivered unchanged, next to a freshly signed
// vote for the opposite value. Every honest replica assembles local PoFs
// against all ⌈n/3⌉ equivocators, triggers the membership change, and
// excludes them — without the adversary package's scripted coalition ever
// being involved. Consensus outcomes are unaffected: receivers count only
// the first AUX per (signer, round) for voting, so the siblings are pure
// evidence.
func runEquivocation(n int, seed int64) (Result, error) {
	corrupt := firstIDs(types.FaultThreshold(n))
	c, err := newCluster(n, seed, nil)
	if err != nil {
		return Result{}, err
	}
	c.ExcludeFromMetrics(corrupt...)
	corruptSet := make(map[types.ReplicaID]bool, len(corrupt))
	for _, id := range corrupt {
		corruptSet[id] = true
	}
	inj := Arm(c)
	done := make(map[pairKey]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		a, ok := msg.(*bincon.Aux)
		if !ok || !corruptSet[from] || a.Stmt.Signer != from {
			return msg
		}
		k := pairKey{from: from, to: to, key: a.Stmt.Stmt.Key()}
		if !done[k] {
			done[k] = true
			if twin, err := inj.FlipAux(a); err == nil {
				inj.Inject(from, to, twin, time.Millisecond)
			}
		}
		return msg
	})
	c.Start()
	return finish("equivocation", n, seed, c, inj, corruptSet, campaignDrain), nil
}

// runTwins gives the first ⌈n/3⌉ replicas a twin: a second process
// holding the same signing key that echoes a conflicting digest for every
// reliable broadcast the original echoes. The conflicting ECHO statements
// are genuine signatures on a different value in the same slot — provable
// equivocation attributable to the key, exactly the paper's reason ECHO is
// an equivocation slot.
func runTwins(n int, seed int64) (Result, error) {
	corrupt := firstIDs(types.FaultThreshold(n))
	c, err := newCluster(n, seed, nil)
	if err != nil {
		return Result{}, err
	}
	c.ExcludeFromMetrics(corrupt...)
	corruptSet := make(map[types.ReplicaID]bool, len(corrupt))
	for _, id := range corrupt {
		corruptSet[id] = true
	}
	inj := Arm(c)
	done := make(map[pairKey]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		e, ok := msg.(*rbc.Echo)
		if !ok || !corruptSet[from] || e.Stmt.Signer != from {
			return msg
		}
		k := pairKey{from: from, to: to, key: e.Stmt.Stmt.Key()}
		if !done[k] {
			done[k] = true
			if twin, err := inj.TwinEcho(e); err == nil {
				inj.Inject(from, to, twin, time.Millisecond)
			}
		}
		return msg
	})
	c.Start()
	return finish("twins", n, seed, c, inj, corruptSet, campaignDrain), nil
}

// runStaleEpoch floods the cluster with temporally displaced votes: every
// third EST is shadowed by a copy shifted one round into the future,
// every fifth AUX is replayed 50 ms stale and shadowed by a forgery whose
// value was flipped without re-signing. None of it is attributable
// evidence — EST is unsigned by design, the replay repeats a statement
// already on record, and the forgery fails verification — so the run must
// end with an untouched chain and zero accusations.
func runStaleEpoch(n int, seed int64) (Result, error) {
	c, err := newCluster(n, seed, func(o *harness.Options) {
		o.MaxInstances = 4
		o.PoolSize = 1
	})
	if err != nil {
		return Result{}, err
	}
	inj := Arm(c)
	estN, auxN := 0, 0
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		switch m := msg.(type) {
		case *bincon.Est:
			estN++
			if estN%3 == 0 {
				inj.Inject(from, to, ShiftEstRound(m, 1), time.Millisecond)
			}
		case *bincon.Aux:
			auxN++
			if auxN%5 == 0 {
				inj.Inject(from, to, m, 50*time.Millisecond) // stale replay
				inj.Inject(from, to, ForgeAux(m), time.Millisecond)
			}
		}
		return msg
	})
	c.Start()
	return finish("stale-epoch", n, seed, c, inj, nil, campaignDrain), nil
}

// runCertMutation shadows every DECIDE that carries a certificate — the
// answers to a DecideReq; an announcement has nothing to mutate — with
// three certificate mutants whose individual signatures all verify: one
// below quorum, one padding the quorum with a duplicated signer, one
// claiming the opposite value under the genuine certificate. Receivers
// must reject all three — on the quorum count, the distinctness check, and
// the statement match — while the original DECIDE keeps the chain
// committing.
func runCertMutation(n int, seed int64) (Result, error) {
	c, err := newCluster(n, seed, func(o *harness.Options) {
		o.PoolSize = 1
	})
	if err != nil {
		return Result{}, err
	}
	inj := Arm(c)
	done := make(map[pairKey]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		d, ok := msg.(*bincon.Decide)
		if !ok || d.Cert == nil || len(d.Cert.Sigs) < 2 {
			return msg
		}
		k := pairKey{from: from, to: to, key: d.Cert.Stmt.Key()}
		if !done[k] {
			done[k] = true
			inj.Inject(from, to, TruncateCert(d), time.Millisecond)
			inj.Inject(from, to, DuplicateSignerCert(d), 2*time.Millisecond)
			inj.Inject(from, to, FlipDecideValue(d), 3*time.Millisecond)
		}
		return msg
	})
	c.Start()
	return finish("cert-mutation", n, seed, c, inj, nil, campaignDrain), nil
}

// runReplayReorder exercises the duplicate/out-of-order tolerance every
// message handler claims: every fourth delivery is duplicated 20 ms
// later, every seventh is withheld and re-delivered 100 ms late (a
// reordering relative to everything sent after it). Counters, not
// randomness, drive the schedule, so a seed reproduces the exact
// interleaving.
func runReplayReorder(n int, seed int64) (Result, error) {
	c, err := newCluster(n, seed, func(o *harness.Options) {
		o.MaxInstances = 4
		o.PoolSize = 1
	})
	if err != nil {
		return Result{}, err
	}
	inj := Arm(c)
	count := 0
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		count++
		if count%7 == 0 {
			inj.Inject(from, to, msg, 100*time.Millisecond)
			return nil // withheld: the late copy is the only delivery
		}
		if count%4 == 0 {
			inj.Inject(from, to, msg, 20*time.Millisecond)
		}
		return msg
	})
	c.Start()
	return finish("replay-reorder", n, seed, c, inj, nil, campaignDrain), nil
}

// newForkCluster is the deployment of the two campaigns with a real
// scripted coalition: the paper's binary-consensus attack over four
// instances.
func newForkCluster(n int, seed int64) (*harness.Cluster, error) {
	return newCluster(n, seed, func(o *harness.Options) {
		o.Deceitful = adversary.DeceitfulCount(n)
		o.Attack = adversary.AttackBinary
		o.MaxInstances = 4
	})
}

// forkThenHeal starts the cluster with the coalition's partitions deciding
// alone behind a 5 s stall, and heals the network after 6 s.
func forkThenHeal(c *harness.Cluster) {
	c.Net.DelayRule = simnet.PartitionDelay(c.Coalition.PartitionOf, 5*time.Second)
	c.Start()
	c.Run(6 * time.Second)
	c.Net.DelayRule = nil
}

// mergeCaptureLimit bounds how many distinct DECIDEs with a certificate the
// merge campaign records for replay; enough to cover both branches'
// instances.
const mergeCaptureLimit = 16

// runMergeDuringCatchup is the only campaign with a real scripted
// coalition: the paper's binary-consensus attack forks the chain behind a
// staged partition, and while the heal-and-merge is in progress the
// injector replays DECIDE messages captured during the fork into every
// honest replica — stale certificates arriving mid-catch-up, the
// interleaving most likely to resurrect a consumed proof or double-count
// a culprit. The run must still end converged, with ≥ ⌈n/3⌉ proven
// culprits everywhere and the coalition excluded.
func runMergeDuringCatchup(n int, seed int64) (Result, error) {
	c, err := newForkCluster(n, seed)
	if err != nil {
		return Result{}, err
	}
	inj := Arm(c)
	type captured struct {
		from types.ReplicaID
		msg  *bincon.Decide
	}
	var caps []captured
	seen := make(map[*bincon.Decide]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		if d, ok := msg.(*bincon.Decide); ok && d.Cert != nil && !seen[d] && len(caps) < mergeCaptureLimit {
			seen[d] = true
			caps = append(caps, captured{from: from, msg: d})
		}
		return msg
	})

	// Fork and heal, then replay the fork-era DECIDEs into everyone
	// mid-merge.
	forkThenHeal(c)
	for i, cap := range caps {
		for _, h := range c.HonestMembers() {
			inj.Inject(cap.from, h, cap.msg, time.Duration(i+1)*10*time.Millisecond)
		}
	}
	return finish("merge-during-catchup", n, seed, c, inj, nil, campaignDrain), nil
}

// runForgedInit forks the chain like runMergeDuringCatchup, and on the way
// to every honest replica rewrites each certified block — the BlockResp a
// conflicting confirmation pulls, the CatchupResp and the JoinNotice of the
// membership change — in the two places its audit does not read. The INIT
// statement of an honest broadcaster names another payload under the old
// signature (ForgeInitStmt), and a slot decided 0 gains a ready certificate
// holding an honest signer of the slot's binary certificate to the opposite
// vote, unsigned (PlantVote). The block's real certificates are genuine and
// it is adopted or merged as usual; both additions must be dropped on the
// way into the log. A replica that records either unverified proves an
// honest replica deceitful and counts it towards the exclusion threshold:
// invariant (d).
func runForgedInit(n int, seed int64) (Result, error) {
	c, err := newForkCluster(n, seed)
	if err != nil {
		return Result{}, err
	}
	// forge re-values the INIT statement of the first honest slot that has
	// one and plants a vote on the first slot decided 0 whose certificate an
	// honest replica signed; a block with neither passes unchanged.
	forge := func(d *sbc.Decision) *sbc.Decision {
		if d == nil {
			return nil
		}
		for _, slot := range c.Members {
			if !c.Coalition.IsDeceitful(slot) && d.InitStmts[slot] != nil {
				d = ForgeInitStmt(d, slot)
				break
			}
		}
		for _, slot := range c.Members {
			if bit, ok := d.Bits[slot]; !ok || bit || d.BinCerts[slot] == nil {
				continue
			}
			for _, signer := range d.BinCerts[slot].Signers() {
				if !c.Coalition.IsDeceitful(signer) {
					return PlantVote(d, slot, signer)
				}
			}
		}
		return d
	}
	forgeBlocks := func(blocks []asmr.BlockRecord) []asmr.BlockRecord {
		out := make([]asmr.BlockRecord, len(blocks))
		for i, b := range blocks {
			b.Decision = forge(b.Decision)
			out[i] = b
		}
		return out
	}
	inj := Arm(c)
	inj.SetRule(func(_, to types.ReplicaID, msg simnet.Message) simnet.Message {
		if c.Coalition.IsDeceitful(to) {
			return msg
		}
		switch m := msg.(type) {
		case *asmr.BlockResp:
			cp := *m
			cp.Decision = forge(m.Decision)
			return &cp
		case *asmr.CatchupResp:
			return &asmr.CatchupResp{Blocks: forgeBlocks(m.Blocks)}
		case *asmr.JoinNotice:
			cp := *m
			cp.Blocks = forgeBlocks(m.Blocks)
			return &cp
		}
		return msg
	})

	forkThenHeal(c)
	return finish("forged-init", n, seed, c, inj, nil, campaignDrain), nil
}
