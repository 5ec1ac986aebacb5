package asmr_test

import (
	"math"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// missedRun is a benign n=4 run of height instances that its last member
// sat out, down. It is up and running again, and holds no block.
func missedRun(t *testing.T, height uint64) (*harness.Cluster, types.ReplicaID) {
	t.Helper()
	c := benignCluster(t, 4, height)
	victim := c.Members[3]
	c.Net.SetUp(victim, false)
	c.Start()
	c.RunUntilQuiet(time.Minute)
	c.Net.SetUp(victim, true)
	if got := c.Replicas[c.Members[0]].CommittedCount(); got != int(height) {
		t.Fatalf("the running replicas decided %d of %d instances", got, height)
	}
	if got := c.Replicas[victim].CommittedCount(); got != 0 {
		t.Fatalf("replica %v holds %d blocks after sitting the run out", victim, got)
	}
	return c, victim
}

// answer records at replica to a request to source for from..upTo, and
// delivers source's answer to it: the blocks given.
func answer(c *harness.Cluster, source, to types.ReplicaID, from, upTo uint64, blocks []asmr.BlockRecord) {
	c.Replicas[to].Asked(source, from, upTo)
	c.Net.Inject(source, to, &asmr.CatchupResp{FromK: from, ToK: upTo, Blocks: blocks}, time.Millisecond)
	c.Run(c.Net.Now() + 10*time.Millisecond)
}

// TestUnsolicitedEmptyBlockIsRefused: a replica that is running receives,
// as the answer to a request for block 3, a CatchupResp whose block 3 is a
// decision of the right instance number and nothing else — no slot, no
// certificate, no signature. Held against the committee it claims to have
// decided for, it is no block: nothing is committed at 3, the log does not
// move, and the real block 3 commits later with the digest the rest of the
// cluster holds.
func TestUnsolicitedEmptyBlockIsRefused(t *testing.T) {
	const n, k = 4, 3
	c := benignCluster(t, n, 6)
	target := c.Members[0]
	r := c.Replicas[target]
	c.Start()
	// Past what a replica sends itself at the start, and sooner than any
	// frame of a peer can arrive.
	c.Run(400 * time.Microsecond)
	held := r.Log().Statements()
	empty := &sbc.Decision{Instance: asmr.WireInstance(k, 0)}
	r.Asked(c.Members[1], k, k)
	c.Net.Inject(c.Members[1], target, &asmr.CatchupResp{FromK: k, ToK: k, Blocks: []asmr.BlockRecord{{K: k, Decision: empty}}}, 100*time.Microsecond)
	c.Run(c.Net.Now() + 100*time.Microsecond)
	if _, ok := r.Committed(k); ok || r.CommittedCount() != 0 {
		t.Fatalf("replica %v committed %d blocks on an empty decision", target, r.CommittedCount())
	}
	if got := r.Log().Statements(); got != held {
		t.Fatalf("log moved from %d to %d statements", held, got)
	}

	c.RunUntilQuiet(time.Minute)
	want := c.Replicas[c.Members[2]].ChainDigests()[k]
	if got := r.ChainDigests()[k]; got != want || got == empty.Digest() {
		t.Fatalf("block %d of replica %v is %v, the cluster's is %v", k, target, got, want)
	}
	if got := c.Disagreements(); got != 0 {
		t.Fatalf("%d disagreements on a benign run", got)
	}
}

// TestCatchupAdoptsNothingFromForgedBlock ships a replica that holds no
// chain a catch-up transfer whose third block carries one forged vote in
// one certificate. The blocks around it are adopted; from the forged one
// nothing is — not the block, and not the votes of its other certificates,
// which were checked before the audit reached the bad one.
func TestCatchupAdoptsNothingFromForgedBlock(t *testing.T) {
	const n, height, bad = 4, 5, 3
	c := benignCluster(t, n, height)
	c.Start()
	c.RunUntilQuiet(time.Minute)
	source := c.Members[0]
	blocks := make([]asmr.BlockRecord, height)
	for i := range blocks {
		d, ok := c.Replicas[source].Committed(uint64(i + 1))
		if !ok {
			t.Fatalf("instance %d not committed", i+1)
		}
		blocks[i] = asmr.BlockRecord{K: uint64(i + 1), Decision: d}
	}
	// The last slot's certificate, so that every other slot passes first.
	genuine := blocks[bad-1].Decision
	last := types.ReplicaID(n)
	sigs := append([]accountability.Signed(nil), genuine.BinCerts[last].Sigs...)
	sigs[0].Sig = append(crypto.Signature(nil), sigs[0].Sig...)
	sigs[0].Sig[0] ^= 0xff
	forgedDecision := *genuine
	forgedDecision.BinCerts = map[types.ReplicaID]*accountability.Certificate{}
	for id, cert := range genuine.BinCerts {
		forgedDecision.BinCerts[id] = cert
	}
	forgedDecision.BinCerts[last] = &accountability.Certificate{Stmt: genuine.BinCerts[last].Stmt, Sigs: sigs}
	forged := append([]asmr.BlockRecord(nil), blocks...)
	forged[bad-1].Decision = &forgedDecision

	// Pool nodes: they sit outside the committee, run nothing, and adopt
	// what a catch-up transfer proves to them.
	victim, reference := c.PoolIDs[0], c.PoolIDs[1]
	r := c.Replicas[victim]
	ship := func(to types.ReplicaID, blocks []asmr.BlockRecord) {
		answer(c, source, to, 1, math.MaxUint64, blocks)
	}

	ship(victim, forged[bad-1:bad])
	if r.CommittedCount() != 0 || r.Log().Statements() != 0 {
		t.Fatalf("forged block alone: %d blocks committed, %d statements recorded", r.CommittedCount(), r.Log().Statements())
	}
	if r.Log().SigChecks == 0 {
		t.Fatal("the forged block was refused before any signature was checked: the test forges too early")
	}

	ship(victim, forged)
	for _, b := range blocks {
		if _, ok := r.Committed(b.K); ok == (b.K == bad) {
			t.Fatalf("block %d committed = %v", b.K, ok)
		}
	}
	// The log holds what a replica never shown block 3 holds.
	ship(reference, append(append([]asmr.BlockRecord(nil), blocks[:bad-1]...), blocks[bad:]...))
	around := c.Replicas[reference].Log().Statements()
	if got := r.Log().Statements(); got != around || around == 0 {
		t.Fatalf("%d statements recorded, want %d: those of the blocks around the forged one", got, around)
	}

	ship(victim, blocks[bad-1:bad])
	if _, ok := r.Committed(bad); !ok {
		t.Fatalf("genuine block %d refused", bad)
	}
	if got := r.Log().Statements(); got <= around {
		t.Fatalf("%d statements before the genuine block %d and %d after", around, bad, got)
	}
	if r.Log().ProvenCount() != 0 {
		t.Fatalf("culprits %v on an honest chain", r.Log().ProvenCulprits())
	}
	want := c.Replicas[source].ChainDigests()
	for k, d := range r.ChainDigests() {
		if d != want[k] {
			t.Fatalf("block %d adopted as %v, the source holds %v", k, d, want[k])
		}
	}
}

// TestJoinerRunsInFlightInstancesAtTheEpochItJoins: the members restart
// the undecided instances under the new committee before they send the
// join notice, so a frame of the restarted attempt can reach a pool node
// first and make it open the instance under the epoch it still knows. Once
// it joins, it proposes for the attempt its committee runs — on the old one
// its proposal reaches nobody, and with the three it replaced excluded the
// committee is then short of the n−t proposals an instance needs.
func TestJoinerRunsInFlightInstancesAtTheEpochItJoins(t *testing.T) {
	tracer := obs.NewTracer()
	c, err := harness.New(harness.Options{
		N:           4,
		PoolSize:    1,
		Accountable: true,
		Recover:     true,
		BaseLatency: latency.Fixed(time.Millisecond),
		Seed:        7,
		Tracer:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner, sponsor := c.PoolIDs[0], c.Members[1]
	early := &rbc.Init{Stmt: accountability.Signed{Signer: sponsor, Stmt: accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindInit,
		Instance: asmr.WireInstance(1, 1),
		Slot:     uint32(sponsor),
	}}}
	c.Net.Inject(sponsor, joiner, early, time.Millisecond)
	committee := append(append([]types.ReplicaID(nil), c.Members[1:]...), joiner)
	c.Net.Inject(sponsor, joiner, &asmr.JoinNotice{Epoch: 1, Committee: committee, NextK: 1}, 2*time.Millisecond)
	c.Run(3 * time.Millisecond)

	proposed := false
	for _, ev := range tracer.Events() {
		if ev.Node == joiner && ev.Phase == obs.PhaseBatchPropose {
			proposed = true
			if ev.K != 1 || ev.Round != 1 {
				t.Fatalf("the joiner proposed for instance %d at attempt %d, its committee runs instance 1 at attempt 1", ev.K, ev.Round)
			}
		}
	}
	if !proposed {
		t.Fatal("the joiner proposed nothing")
	}
}

// forkCluster is the deployment the conformance campaigns fork: n=9 with
// the largest coalition the paper tolerates running the binary-consensus
// attack in the attack regime, every replica built around the application
// app returns (nil: the harness's synthetic workload).
func forkCluster(t *testing.T, instances uint64, app func(types.ReplicaID, simnet.Env) (harness.Application, error)) *harness.Cluster {
	t.Helper()
	const n = 9
	opts := harness.AttackRegime(n, 42)
	opts.App = app
	opts.Deceitful = adversary.DeceitfulCount(n)
	opts.Attack = adversary.AttackBinary
	opts.BatchTxs = 500
	opts.BatchBytes = 400 * 500
	opts.MaxInstances = instances
	c, err := harness.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startForked starts c with the coalition's partitions deciding alone
// behind a 5 s stall, as the conformance fork campaigns do, and runs it to
// until; the caller heals by clearing Net.DelayRule.
func startForked(c *harness.Cluster, until time.Duration) {
	c.Net.DelayRule = simnet.PartitionDelay(c.Coalition.PartitionOf, 5*time.Second)
	c.Start()
	c.Run(until)
}

// TestAdoptedBlockKeepsItsAttempt: a block adopted whole is served on
// under the attempt it was decided under, not the epoch of the replica
// that adopted it. A committee forks, excludes the coalition, includes as
// many standbys and decides the rest of the chain at attempt 1. A standby
// that was not included, still at epoch 0, adopts those blocks from a
// CatchupResp; asked for its chain, it answers with records another standby
// audits against WireInstance(K, 1) — and adopts, every one.
func TestAdoptedBlockKeepsItsAttempt(t *testing.T) {
	c := forkCluster(t, 6, nil)
	startForked(c, 6*time.Second)
	c.Net.DelayRule = nil
	c.RunUntilQuiet(10 * time.Minute)

	source := c.HonestMembers()[0]
	changes := c.ChangeResults[source]
	if len(changes) == 0 || len(changes[0].Excluded) == 0 || len(changes[0].Included) != len(changes[0].Excluded) {
		t.Fatalf("membership changes at replica %v: %+v, want one that excluded and included as many", source, changes)
	}
	var blocks []asmr.BlockRecord
	for k := uint64(1); k <= 6; k++ {
		if commit, ok := c.Commits[source][k]; ok && commit.Attempt > 0 {
			blocks = append(blocks, asmr.BlockRecord{K: k, Attempt: commit.Attempt, Decision: commit.Decision})
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no block was decided after the membership change")
	}
	var standbys []types.ReplicaID
	for _, id := range c.PoolIDs {
		if r := c.Replicas[id]; !r.IsMember() && r.Epoch() == 0 && r.CommittedCount() == 0 {
			standbys = append(standbys, id)
		}
	}
	if len(standbys) < 2 {
		t.Fatalf("%d standbys left outside the committee, want 2", len(standbys))
	}
	first, second := standbys[0], standbys[1]

	answer(c, source, first, 1, math.MaxUint64, blocks)
	if got := c.Replicas[first].CommittedCount(); got != len(blocks) {
		t.Fatalf("standby %v adopted %d of %d blocks decided at attempt 1", first, got, len(blocks))
	}
	// The answer goes to the standby the request names as its sender.
	c.Replicas[second].Asked(first, 1, math.MaxUint64)
	c.Net.Inject(second, first, &asmr.CatchupReq{FromK: 1, ToK: math.MaxUint64}, time.Millisecond)
	c.Run(c.Net.Now() + time.Second)
	r := c.Replicas[second]
	if got := r.CommittedCount(); got != len(blocks) {
		t.Fatalf("standby %v adopted %d of the %d blocks standby %v served: they left under another attempt than they were decided under",
			second, got, len(blocks), first)
	}
	want := c.Replicas[source].ChainDigests()
	for _, b := range blocks {
		if got := r.ChainDigests()[b.K]; got != want[b.K] {
			t.Errorf("block %d adopted as %v, replica %v decided %v", b.K, got, source, want[b.K])
		}
	}
}

// TestCatchupConflictIsEvidence: a certified block that conflicts with
// what a replica decided is the evidence the paper's accountability runs
// on, whatever message it arrives in. While the partition still stands, and
// before any frame has crossed it, a decided block of one branch reaches an
// honest replica of the other in a CatchupResp, twice: the two quorums
// convict the ⌈n/3⌉ signers they share, all of the coalition, and the
// application is handed the branch to merge, once.
func TestCatchupConflictIsEvidence(t *testing.T) {
	apps := make(map[types.ReplicaID]*forkRecorder)
	c := forkCluster(t, 4, func(id types.ReplicaID, _ simnet.Env) (harness.Application, error) {
		apps[id] = &forkRecorder{}
		return apps[id], nil
	})
	startForked(c, 4*time.Second) // the stall is 5 s: nothing has crossed
	honest := c.HonestMembers()
	victim := honest[0]
	r := c.Replicas[victim]
	var remote asmr.BlockRecord
	ours := r.ChainDigests()
	for _, id := range honest[1:] {
		for k, theirs := range c.Replicas[id].ChainDigests() {
			if mine, ok := ours[k]; ok && mine != theirs && (remote.K == 0 || k < remote.K) {
				d, _ := c.Replicas[id].Committed(k)
				remote = asmr.BlockRecord{K: k, Attempt: c.Commits[id][k].Attempt, Decision: d}
			}
		}
	}
	if remote.K == 0 {
		t.Fatal("the partitions decided no instance differently")
	}
	if r.Disagreed(remote.K) || r.Log().ProvenCount() != 0 {
		t.Fatalf("replica %v holds evidence before any crossed the partition: disagreed %v, culprits %v",
			victim, r.Disagreed(remote.K), r.Log().ProvenCulprits())
	}
	local, _ := r.Committed(remote.K)

	for i := 0; i < 2; i++ { // the second copy must be recognised as seen
		answer(c, honest[1], victim, remote.K, remote.K, []asmr.BlockRecord{remote})
	}
	c.Run(c.Net.Now() + 100*time.Millisecond)

	if !r.Disagreed(remote.K) {
		t.Fatalf("instance %d not marked disagreed: the conflicting block was discarded", remote.K)
	}
	culprits := r.Log().ProvenCulprits()
	if len(culprits) < types.FaultThreshold(c.Opts.N) {
		t.Errorf("proven culprits %v, want >= %d", culprits, types.FaultThreshold(c.Opts.N))
	}
	for _, id := range culprits {
		if !c.Coalition.IsDeceitful(id) {
			t.Errorf("honest replica %v convicted", id)
		}
	}
	if calls := apps[victim].forks; len(calls) != 1 || calls[0] != (fork{remote.K, local, remote.Decision}) {
		t.Errorf("OnDisagreement calls = %+v, want exactly one with (%d, local, remote)", calls, remote.K)
	}
	if d, _ := r.Committed(remote.K); d != local {
		t.Error("the local decision was replaced: the first decision wins locally")
	}
}

// TestAnswerOutsideTheRequestIsDropped: a replica that sat a run out asks
// one peer for block 2. An answer for blocks 2..3 answers no request it
// made and is dropped whole, before any audit, and the request stays in
// flight; the answer for block 2 that carries block 3 as well is taken in
// for block 2 only.
func TestAnswerOutsideTheRequestIsDropped(t *testing.T) {
	c, victim := missedRun(t, 6)
	r, peer := c.Replicas[victim], c.Members[0]
	var blocks []asmr.BlockRecord
	for k := uint64(2); k <= 3; k++ {
		d, _ := c.Replicas[peer].Committed(k)
		blocks = append(blocks, asmr.BlockRecord{K: k, Decision: d})
	}
	deliver := func(from, upTo uint64) {
		c.Net.Inject(peer, victim, &asmr.CatchupResp{FromK: from, ToK: upTo, Blocks: blocks}, time.Millisecond)
		c.Run(c.Net.Now() + 10*time.Millisecond)
	}

	r.Asked(peer, 2, 2)
	checks := r.Stats().StmtSigChecks
	deliver(2, 3)
	if got := r.CommittedCount(); got != 0 {
		t.Fatalf("%d blocks committed from an answer to a range nobody asked for", got)
	}
	if got := r.Stats().StmtSigChecks; got != checks {
		t.Fatalf("signature checks %d -> %d: an answer to another range was audited", checks, got)
	}
	if got := r.InFlight()[peer]; got != 1 {
		t.Fatalf("%d requests to replica %v in flight, want the one for block 2", got, peer)
	}

	deliver(2, 2)
	if _, ok := r.Committed(2); !ok {
		t.Fatal("block 2, asked for, not committed")
	}
	if _, ok := r.Committed(3); ok {
		t.Fatal("block 3, outside the range asked, committed")
	}
	if in := r.InFlight(); len(in) != 0 {
		t.Errorf("requests in flight after the answer: %v", in)
	}
}

// TestCoalitionServesNoBlocks: a coalition member suppresses every channel
// that would incriminate the coalition, and every block it signed would.
// Asked for one block or for its chain, it answers neither; an honest
// replica answers both.
func TestCoalitionServesNoBlocks(t *testing.T) {
	const n, k = 4, 2
	c, err := harness.New(harness.Options{
		N:            n,
		Deceitful:    1,
		Accountable:  true,
		Recover:      true,
		BaseLatency:  latency.Uniform(time.Millisecond, 8*time.Millisecond),
		Seed:         7,
		MaxInstances: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const probeID = types.ReplicaID(2*n + 1)
	p := &probe{}
	c.Net.AddNode(probeID, func(simnet.Env) simnet.Handler { return p })
	c.Start()
	c.RunUntilQuiet(time.Minute)

	deceitful, honest := c.Members[0], c.HonestMembers()[0]
	if !c.Coalition.IsDeceitful(deceitful) {
		t.Fatalf("replica %v is not in the coalition", deceitful)
	}
	for _, to := range []types.ReplicaID{deceitful, honest} {
		if _, ok := c.Replicas[to].Committed(k); !ok {
			t.Fatalf("replica %v did not commit block %d", to, k)
		}
		p.got = nil
		c.Net.Inject(probeID, to, &asmr.CatchupReq{FromK: k, ToK: k}, time.Millisecond)
		c.Net.Inject(probeID, to, &asmr.CatchupReq{FromK: 1, ToK: math.MaxUint64}, 2*time.Millisecond)
		c.Run(c.Net.Now() + time.Second)
		want := 2
		if to == deceitful {
			want = 0
		}
		if len(p.got) != want {
			t.Errorf("replica %v answered %d of two block requests, want %d", to, len(p.got), want)
		}
	}
}

// TestNoRequestOutlivesItsPeer: the record of requests holds only what is
// in flight. Honest replicas of a forked committee ask every member for
// its chain while the partition stands; the coalition never answers, and
// the membership change that excludes it drops those requests with it.
// When the run is over, every request an honest replica made was answered
// or dropped.
func TestNoRequestOutlivesItsPeer(t *testing.T) {
	c := forkCluster(t, 6, nil)
	startForked(c, 4*time.Second)
	honest := c.HonestMembers()
	for _, id := range honest {
		r := c.Replicas[id]
		r.RequestCatchup()
		toCoalition := 0
		for peer := range r.InFlight() {
			if c.Coalition.IsDeceitful(peer) {
				toCoalition++
			}
		}
		if toCoalition != adversary.DeceitfulCount(c.Opts.N) {
			t.Fatalf("replica %v asked %d coalition members, want all %d", id, toCoalition, adversary.DeceitfulCount(c.Opts.N))
		}
	}
	c.Net.DelayRule = nil
	c.RunUntilQuiet(10 * time.Minute)

	for _, id := range honest {
		if changes := c.ChangeResults[id]; len(changes) == 0 || len(changes[0].Excluded) == 0 {
			t.Fatalf("replica %v excluded nobody: %+v", id, changes)
		}
		if in := c.Replicas[id].InFlight(); len(in) != 0 {
			t.Errorf("replica %v still waits on %v", id, in)
		}
	}
}

// TestFarFrameOpensNoInstance: consensus frames naming instances beyond
// RetainDepth above the next one to start — unsigned ESTs, and AUXes
// whose zero signature is never checked — are dropped: they open no
// instance. A frame within the window still opens its instance.
func TestFarFrameOpensNoInstance(t *testing.T) {
	const frames = 1000
	c := benignCluster(t, 4, 8)
	c.Start()
	c.RunUntilQuiet(time.Minute)
	target, peer := c.Members[0], c.Members[1]
	r := c.Replicas[target]
	live := r.Stats().LiveInstances
	far := uint64(8 + 1 + asmr.RetainDepth + 1)
	for i := range uint64(frames) {
		wi := asmr.WireInstance(far+i, 0)
		c.Net.Inject(peer, target, &bincon.Est{Context: accountability.CtxMain, Instance: wi, Slot: 1, Value: true}, time.Millisecond)
		c.Net.Inject(peer, target, &bincon.Aux{Stmt: accountability.Signed{Signer: peer, Stmt: accountability.Statement{
			Context: accountability.CtxMain, Kind: accountability.KindAux, Instance: wi, Slot: 1}}}, time.Millisecond)
	}
	c.Net.RunUntilQuiet(c.Net.Now() + time.Minute)
	if got := r.Stats().LiveInstances; got != live {
		t.Fatalf("live instances %d -> %d: far frames opened instances", live, got)
	}

	near := asmr.WireInstance(far-1, 0)
	c.Net.Inject(peer, target, &bincon.Est{Context: accountability.CtxMain, Instance: near, Slot: 1, Value: true}, time.Millisecond)
	c.Net.RunUntilQuiet(c.Net.Now() + time.Minute)
	if got := r.Stats().LiveInstances; got != live+1 {
		t.Fatalf("live instances %d -> %d: a frame within the window opened no instance", live, got)
	}
}

// TestPullOpensNoInstance: a pull — a DecideReq, a PayloadReq or a
// ProposalReq, each an unsigned request — that names an instance the
// replica never opened is dropped: it opens no instance and draws no
// answer. A pull for an instance the replica holds is still answered.
func TestPullOpensNoInstance(t *testing.T) {
	const pulls = 100
	c := benignCluster(t, 4, 8)
	c.Start()
	c.RunUntilQuiet(time.Minute)
	target, peer := c.Members[0], c.Members[1]
	r := c.Replicas[target]
	live := r.Stats().LiveInstances
	for i := range uint64(pulls) {
		wi := asmr.WireInstance(1_000_000+i, 0)
		c.Net.Inject(peer, target, &bincon.DecideReq{Context: accountability.CtxMain, Instance: wi, Slot: 1}, time.Millisecond)
		c.Net.Inject(peer, target, &rbc.PayloadReq{Context: accountability.CtxMain, Instance: wi, Broadcaster: 1}, time.Millisecond)
		c.Net.Inject(peer, target, &sbc.ProposalReq{Context: accountability.CtxMain, Instance: wi, Slot: 1}, time.Millisecond)
	}
	if got := c.Net.RunUntilQuiet(c.Net.Now() + time.Minute); got != 3*pulls {
		t.Errorf("%d events for %d pulls: the replica answered", got, 3*pulls)
	}
	if got := r.Stats().LiveInstances; got != live {
		t.Fatalf("live instances %d -> %d: pulls opened instances", live, got)
	}

	held := &bincon.DecideReq{Context: accountability.CtxMain, Instance: asmr.WireInstance(8, 0), Slot: 1}
	c.Net.Inject(peer, target, held, time.Millisecond)
	if got := c.Net.RunUntilQuiet(c.Net.Now() + time.Minute); got != 2 {
		t.Fatalf("%d events for a pull of a held instance, want the pull and its answer", got)
	}
}
