package asmr_test

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/obs"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
)

// TestUnsolicitedEmptyBlockIsRefused: a replica that is running receives,
// from nobody it asked, a CatchupResp whose block 3 is a decision of the
// right instance number and nothing else — no slot, no certificate, no
// signature. Held against the committee it claims to have decided for, it
// is no block: nothing is committed at 3, the log does not move, and the
// real block 3 commits later with the digest the rest of the cluster holds.
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
	c.Net.Inject(c.Members[1], target, &asmr.CatchupResp{Blocks: []asmr.BlockRecord{{K: k, Decision: empty}}}, 100*time.Microsecond)
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
		c.Net.Inject(source, to, &asmr.CatchupResp{Blocks: blocks}, time.Millisecond)
		c.Run(c.Net.Now() + 10*time.Millisecond)
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
