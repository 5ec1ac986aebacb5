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
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// pairKey deduplicates per-recipient injections: one conflicting sibling
// per (sender, recipient, equivocation slot) is enough for a PoF, and
// keeping the volume flat keeps runs cheap and goldens readable.
type pairKey struct {
	from, to types.ReplicaID
	key      accountability.SlotKey
}

// stageEquivocation corrupts the first ⌈n/3⌉ replicas at the wire: each of
// their signed AUX votes is delivered unchanged, next to a freshly signed
// vote for the opposite value. Every honest replica assembles local PoFs
// against all ⌈n/3⌉ equivocators, triggers the membership change, and
// excludes them — without the adversary package's scripted coalition ever
// being involved. Consensus outcomes are unaffected: receivers count only
// the first AUX per (signer, round) for voting, so the siblings are pure
// evidence.
func stageEquivocation(n int, seed int64, inj *Injector) scenario.Scenario {
	fd := types.FaultThreshold(n)
	inj.corrupt = firstIDs(fd)
	done := make(map[pairKey]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		a, ok := msg.(*bincon.Aux)
		if !ok || int(from) > fd || a.Stmt.Signer != from {
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
	return staged("equivocation", deployment(n, seed), inj, 0)
}

// stageTwins gives the first ⌈n/3⌉ replicas a twin: a second process
// holding the same signing key that echoes a conflicting digest for every
// reliable broadcast the original echoes. The conflicting ECHO statements
// are genuine signatures on a different value in the same slot — provable
// equivocation attributable to the key, exactly the paper's reason ECHO is
// an equivocation slot.
func stageTwins(n int, seed int64, inj *Injector) scenario.Scenario {
	fd := types.FaultThreshold(n)
	inj.corrupt = firstIDs(fd)
	done := make(map[pairKey]bool)
	inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
		e, ok := msg.(*rbc.Echo)
		if !ok || int(from) > fd || e.Stmt.Signer != from {
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
	return staged("twins", deployment(n, seed), inj, 0)
}

// stageStaleEpoch floods the cluster with temporally displaced votes: every
// third EST is shadowed by a copy shifted one round into the future,
// every fifth AUX is replayed 50 ms stale and shadowed by a forgery whose
// value was flipped without re-signing. None of it is attributable
// evidence — EST is unsigned by design, the replay repeats a statement
// already on record, and the forgery fails verification — so the run must
// end with an untouched chain and zero accusations.
func stageStaleEpoch(n int, seed int64, inj *Injector) scenario.Scenario {
	opts := deployment(n, seed)
	opts.MaxInstances = 4
	opts.PoolSize = 1
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
	return staged("stale-epoch", opts, inj, 0)
}

// stageCertMutation shadows every DECIDE that carries a certificate — the
// answers to a DecideReq; an announcement has nothing to mutate — with
// three certificate mutants whose individual signatures all verify: one
// below quorum, one padding the quorum with a duplicated signer, one
// claiming the opposite value under the genuine certificate. Receivers
// must reject all three — on the quorum count, the distinctness check, and
// the statement match — while the original DECIDE keeps the chain
// committing.
func stageCertMutation(n int, seed int64, inj *Injector) scenario.Scenario {
	opts := deployment(n, seed)
	opts.PoolSize = 1
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
	return staged("cert-mutation", opts, inj, 0)
}

// stageReplayReorder exercises the duplicate/out-of-order tolerance every
// message handler claims: every fourth delivery is duplicated 20 ms
// later, every seventh is withheld and re-delivered 100 ms late (a
// reordering relative to everything sent after it). Counters, not
// randomness, drive the schedule, so a seed reproduces the exact
// interleaving.
func stageReplayReorder(n int, seed int64, inj *Injector) scenario.Scenario {
	opts := deployment(n, seed)
	opts.MaxInstances = 4
	opts.PoolSize = 1
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
	return staged("replay-reorder", opts, inj, 0)
}

// forkPhase is how long the coalition's partitions of the two fork
// campaigns decide alone, behind a 5 s stall in force from before the
// first proposal, until the network heals.
const forkPhase = 6 * time.Second

// fork stages the two campaigns with a real scripted coalition — the
// paper's binary-consensus attack over four instances — as one forkPhase
// under the coalition partition, faults included, then the heal and the
// drain.
func fork(name string, n int, seed int64, inj *Injector, faults ...scenario.Fault) scenario.Scenario {
	opts := deployment(n, seed)
	opts.Deceitful = adversary.DeceitfulCount(n)
	opts.Attack = adversary.AttackBinary
	opts.MaxInstances = 4
	stall := &scenario.FromStart{Fault: &scenario.CoalitionPartition{Extra: 5 * time.Second}}
	return staged(name, opts, inj, forkPhase, append([]scenario.Fault{stall}, faults...)...)
}

// atPhaseEnd is a fault that acts once, when its phase ends.
type atPhaseEnd func(rt *scenario.Runtime)

// Apply implements scenario.Fault.
func (atPhaseEnd) Apply(*scenario.Runtime) {}

// Revert implements scenario.Fault.
func (f atPhaseEnd) Revert(rt *scenario.Runtime) { f(rt) }

// mergeCaptureLimit bounds how many distinct DECIDEs with a certificate the
// merge campaign records for replay; enough to cover both branches'
// instances.
const mergeCaptureLimit = 16

// stageMergeDuringCatchup forks the chain with the paper's binary-consensus
// attack behind a staged partition, and when the fork phase ends — the
// heal-and-merge about to begin — replays DECIDE messages captured during
// the fork into every honest replica: stale certificates arriving
// mid-catch-up, the interleaving most likely to resurrect a consumed proof
// or double-count a culprit. The run must still end converged, with
// ≥ ⌈n/3⌉ proven culprits everywhere and the coalition excluded.
func stageMergeDuringCatchup(n int, seed int64, inj *Injector) scenario.Scenario {
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
	replay := atPhaseEnd(func(rt *scenario.Runtime) {
		for i, cap := range caps {
			for _, h := range rt.Cluster.HonestMembers() {
				inj.Inject(cap.from, h, cap.msg, time.Duration(i+1)*10*time.Millisecond)
			}
		}
	})
	return fork("merge-during-catchup", n, seed, inj, replay)
}

// stageForgedInit forks the chain like stageMergeDuringCatchup, and on the
// way to every honest replica rewrites each certified block — the
// BlockResp a conflicting confirmation pulls, the CatchupResp and the
// JoinNotice of the membership change — in the two places its audit does
// not read. The INIT statement of an honest broadcaster names another
// payload under the old signature (ForgeInitStmt), and a slot decided 0
// gains a ready certificate holding an honest signer of the slot's binary
// certificate to the opposite vote, unsigned (PlantVote). The block's real
// certificates are genuine and it is adopted or merged as usual; both
// additions must be dropped on the way into the log. A replica that
// records either unverified proves an honest replica deceitful and counts
// it towards the exclusion threshold: invariant (d).
func stageForgedInit(n int, seed int64, inj *Injector) scenario.Scenario {
	// forge re-values the INIT statement of the first honest slot that has
	// one and plants a vote on the first slot decided 0 whose certificate an
	// honest replica signed; a block with neither passes unchanged.
	forge := func(c *harness.Cluster, d *sbc.Decision) *sbc.Decision {
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
	forgeBlocks := func(c *harness.Cluster, blocks []asmr.BlockRecord) []asmr.BlockRecord {
		out := make([]asmr.BlockRecord, len(blocks))
		for i, b := range blocks {
			b.Decision = forge(c, b.Decision)
			out[i] = b
		}
		return out
	}
	inj.SetRule(func(_, to types.ReplicaID, msg simnet.Message) simnet.Message {
		c := inj.c
		if c.Coalition.IsDeceitful(to) {
			return msg
		}
		switch m := msg.(type) {
		case *asmr.BlockResp:
			cp := *m
			cp.Decision = forge(c, m.Decision)
			return &cp
		case *asmr.CatchupResp:
			return &asmr.CatchupResp{Blocks: forgeBlocks(c, m.Blocks)}
		case *asmr.JoinNotice:
			cp := *m
			cp.Blocks = forgeBlocks(c, m.Blocks)
			return &cp
		}
		return msg
	})
	return fork("forged-init", n, seed, inj)
}
