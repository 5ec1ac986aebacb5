package asmr_test

import (
	"errors"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/conformance"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/node"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// inFlight is how many instances can hold protocol state ahead of the
// decided chain: the one running, and the next one a faster peer already
// sent frames for.
const inFlight = 2

// benignCluster is a fault-free ZLB cluster on a fast uniform network,
// long enough for retirement to reach its steady state.
func benignCluster(t *testing.T, n int, instances uint64) *harness.Cluster {
	t.Helper()
	return benignClusterOf(t, n, instances, nil)
}

// benignClusterOf is benignCluster with every replica built around the
// application app returns (nil: the harness's synthetic workload).
func benignClusterOf(t *testing.T, n int, instances uint64, app func(types.ReplicaID, simnet.Env) (harness.Application, error)) *harness.Cluster {
	t.Helper()
	c, err := harness.New(harness.Options{
		App:          app,
		N:            n,
		Accountable:  true,
		Recover:      true,
		BaseLatency:  latency.Uniform(time.Millisecond, 8*time.Millisecond),
		Seed:         7,
		MaxInstances: instances,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fork is one conflicting decision a replica handed its application.
type fork struct {
	k             uint64
	local, remote *sbc.Decision
}

// forkRecorder is an application that proposes the replica's default
// batches and keeps the forks it is asked to merge.
type forkRecorder struct {
	r     *asmr.Replica
	h     history // zero: the replica's default
	forks []fork
}

func (a *forkRecorder) Bind(cfg *asmr.Config) {
	a.h.bind(cfg)
	cfg.OnDisagreement = func(k uint64, local, remote *sbc.Decision) {
		a.forks = append(a.forks, fork{k, local, remote})
	}
}
func (a *forkRecorder) Attach(r *asmr.Replica) { a.r = r }
func (a *forkRecorder) Start()                 { a.r.Start() }
func (a *forkRecorder) Close() error           { return nil }

// historyApp is an application that proposes the replica's default
// batches and gives it a history of its own.
type historyApp struct {
	r *asmr.Replica
	h history
}

func (a *historyApp) Bind(cfg *asmr.Config)  { a.h.bind(cfg) }
func (a *historyApp) Attach(r *asmr.Replica) { a.r = r }
func (a *historyApp) Start()                 { a.r.Start() }
func (a *historyApp) Close() error           { return nil }

// history is a replica's History and what its application does with a
// committed decision so that the History holds it.
type history struct {
	asmr.History
	commit func(k uint64, attempt uint32, d *sbc.Decision)
}

func (h history) bind(cfg *asmr.Config) {
	cfg.History, cfg.OnCommit = h.History, h.commit
}

// histories are the History implementations a replica runs with: in
// memory, the simulator's, and a deployed node's store, one per replica,
// which the application appends each committed decision to as
// internal/node does.
var histories = []struct {
	name string
	open func(t *testing.T) history
}{
	{"memory", func(*testing.T) history { return history{History: asmr.NewMemHistory()} }},
	{"store", openStoreHistory},
}

func openStoreHistory(t *testing.T) history {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return history{node.HistoryOf(st), func(k uint64, attempt uint32, d *sbc.Decision) {
		if err := st.Append(&store.BlockRecord{K: k, Attempt: attempt, Digest: store.BlockFrom(k, d, wire.DecodeBatch).Digest, Decision: d}); err != nil {
			t.Error(err)
		}
	}}
}

// runUntilHeight advances the simulation until every committee member
// has decided height instances.
func runUntilHeight(t *testing.T, c *harness.Cluster, height int) {
	t.Helper()
	for deadline := c.Net.Now() + 10*time.Minute; c.Net.Now() < deadline; {
		done := true
		for _, id := range c.Members {
			if c.Replicas[id].CommittedCount() < height {
				done = false
			}
		}
		if done {
			return
		}
		c.Run(c.Net.Now() + 100*time.Millisecond)
	}
	t.Fatalf("cluster did not reach height %d", height)
}

// TestRetirementBoundsState drives 640 instances and checks that what a
// replica holds is set by RetainDepth, not by the chain length: live
// instances, log statements, interned payloads and the payload bytes of
// the decisions it keeps in its instances read the same at height 200 as
// at height 640, while its history grows and the chain stays fully
// readable.
func TestRetirementBoundsState(t *testing.T) {
	for _, n := range []int{4, 7} {
		c := benignCluster(t, n, 640)
		c.Start()
		// Statements per instance: per slot one INIT, n ECHOs, n READYs
		// and, per bincon round (at most two on a benign run), one COORD
		// and n AUXs; plus n CONFIRMs.
		perInstance := n*(1+2*n+2*(1+n)) + n
		window := asmr.RetainDepth + inFlight
		var warm []asmr.Stats
		for _, height := range []int{200, 640} {
			runUntilHeight(t, c, height)
			for i, id := range c.Members {
				s := c.Replicas[id].Stats()
				if s.LiveInstances > window {
					t.Errorf("n=%d height %d replica %v: %d live instances, want <= %d", n, height, id, s.LiveInstances, window)
				}
				if s.UnfinalInstances != 0 {
					t.Errorf("n=%d height %d replica %v: %d unfinal instances on a benign run", n, height, id, s.UnfinalInstances)
				}
				if s.LogStatements > window*perInstance {
					t.Errorf("n=%d height %d replica %v: %d log statements, want <= %d", n, height, id, s.LogStatements, window*perInstance)
				}
				// One payload per slot per live instance, in the table the
				// cluster shares.
				if s.InternedPayloads > window*n {
					t.Errorf("n=%d height %d replica %v: %d interned payloads, want <= %d", n, height, id, s.InternedPayloads, window*n)
				}
				// The payloads of the live instances' decisions, at what a
				// retired one put in the (in-memory) history; the rest is
				// there.
				perInstance := s.HistoryBytes / int64(max(s.RetiredInstances, 1))
				if s.DecisionBytes > int64(window)*perInstance || s.HistoryErrors != 0 {
					t.Errorf("n=%d height %d replica %v: %d decision bytes held, want <= %d; %d history errors",
						n, height, id, s.DecisionBytes, int64(window)*perInstance, s.HistoryErrors)
				}
				if height == 200 {
					warm = append(warm, s)
				} else if s.RetiredInstances <= warm[i].RetiredInstances || s.HistoryBytes <= warm[i].HistoryBytes || s.DecisionBytes > warm[i].DecisionBytes {
					t.Errorf("n=%d replica %v: retired %d at 200 and %d at 640, history %d and %d bytes, decisions held %d and %d bytes", n, id,
						warm[i].RetiredInstances, s.RetiredInstances, warm[i].HistoryBytes, s.HistoryBytes, warm[i].DecisionBytes, s.DecisionBytes)
				}
			}
		}
		for _, id := range c.Members {
			chain := c.Replicas[id].ChainDigests()
			ref := c.Replicas[c.Members[0]].ChainDigests()
			for k := uint64(1); k <= 640; k++ {
				if d, ok := chain[k]; !ok || d != ref[k] {
					t.Fatalf("n=%d replica %v: instance %d missing from or different in ChainDigests", n, id, k)
				}
				if !c.Replicas[id].Final(k) {
					t.Fatalf("n=%d replica %v: instance %d lost its finality", n, id, k)
				}
			}
		}
	}
}

// probe is a node outside the committee that records what replicas send
// it.
type probe struct{ got []simnet.Message }

func (p *probe) OnMessage(_ types.ReplicaID, msg simnet.Message) { p.got = append(p.got, msg) }
func (p *probe) OnTimer(any)                                     {}

// TestRetiredInstanceAnswersIdentically asks a replica for an old
// instance's payload, proposal, binary decision certificate, block,
// catch-up transfer and the chain of a join notice while the instance is
// live and again after it retired: the answers are equal field for field (a
// catch-up transfer and a join notice grow, so their common prefix is),
// whether the retired decisions are kept in memory or read back from a
// deployed node's store.
func TestRetiredInstanceAnswersIdentically(t *testing.T) {
	for _, hist := range histories {
		t.Run(hist.name, func(t *testing.T) { retiredInstanceAnswersIdentically(t, hist.open) })
	}
}

func retiredInstanceAnswersIdentically(t *testing.T, history func(*testing.T) history) {
	const n, k, slot = 4, 5, types.ReplicaID(2)
	c := benignClusterOf(t, n, 120, func(types.ReplicaID, simnet.Env) (harness.Application, error) {
		return &historyApp{h: history(t)}, nil
	})
	const probeID = types.ReplicaID(2*n + 1)
	p := &probe{}
	c.Net.AddNode(probeID, func(simnet.Env) simnet.Handler { return p })
	c.Start()
	target := c.Members[0]
	r := c.Replicas[target]

	ask := func() []simnet.Message {
		t.Helper()
		d, ok := r.Committed(k)
		if !ok {
			t.Fatalf("instance %d not committed", k)
		}
		wi := asmr.WireInstance(k, 0)
		p.got = nil
		for i, req := range []simnet.Message{
			&rbc.PayloadReq{Context: accountability.CtxMain, Instance: wi, Broadcaster: slot, Digest: d.Proposals[slot].Digest},
			&sbc.ProposalReq{Context: accountability.CtxMain, Instance: wi, Slot: slot},
			&bincon.DecideReq{Context: accountability.CtxMain, Instance: wi, Slot: uint32(slot)},
			&asmr.CatchupReq{FromK: k, ToK: k},
			&asmr.CatchupReq{FromK: 1, ToK: math.MaxUint64},
		} {
			// Spaced out so the answers come back in request order.
			c.Net.Inject(probeID, target, req, time.Duration(i+1)*50*time.Millisecond)
		}
		c.Run(c.Net.Now() + time.Second)
		if len(p.got) != 5 {
			t.Fatalf("probe got %d answers, want 5", len(p.got))
		}
		return p.got
	}

	runUntilHeight(t, c, 10)
	if got := r.Stats().RetiredInstances; got != 0 {
		t.Fatalf("%d instances retired at height 10", got)
	}
	live, liveNotice := ask(), r.JoinNoticeBlocks()
	runUntilHeight(t, c, 120)
	if got := r.Stats().RetiredInstances; got < 80 {
		t.Fatalf("only %d instances retired at height 120", got)
	}
	retired := ask()

	for i, name := range []string{"PayloadResp", "ProposalResp", "Decide", "CatchupResp for instance k"} {
		if !reflect.DeepEqual(live[i], retired[i]) {
			t.Errorf("%s for a retired instance differs:\nlive    %+v\nretired %+v", name, live[i], retired[i])
		}
	}
	// Both pulls that stand in for the INIT carry the broadcaster's signed
	// statement, and the pulled DECIDE its certificate.
	if got := retired[0].(*rbc.PayloadResp).InitStmt; got == nil || got.Signer != slot {
		t.Errorf("PayloadResp carries INIT statement %+v, want slot %v's", got, slot)
	}
	if got := retired[1].(*sbc.ProposalResp).InitStmt; got == nil || got.Signer != slot {
		t.Errorf("ProposalResp carries INIT statement %+v, want slot %v's", got, slot)
	}
	if got := retired[2].(*bincon.Decide); got.Cert == nil || got.Cert.SignerCount(nil) < types.Quorum(n) {
		t.Errorf("pulled DECIDE carries certificate %+v, want a quorum", got.Cert)
	}
	before := live[4].(*asmr.CatchupResp).Blocks
	after := retired[4].(*asmr.CatchupResp).Blocks
	if len(before) < 10 || len(after) != 120 {
		t.Fatalf("catch-up transfers carry %d and %d blocks, want >= 10 and 120", len(before), len(after))
	}
	if !reflect.DeepEqual(before, after[:len(before)]) {
		t.Error("catch-up transfer from instance 1 changed for blocks that retired in between")
	}
	if notice := r.JoinNoticeBlocks(); len(liveNotice) < 10 || len(notice) < 120 || !reflect.DeepEqual(liveNotice, notice[:len(liveNotice)]) {
		t.Errorf("join notices carry %d and %d blocks, want >= 10 and >= 120, the first a prefix of the second", len(liveNotice), len(notice))
	}
	if got := r.Stats().LateFramesDropped; got != 0 {
		t.Errorf("%d late frames dropped; the pulls were to be answered", got)
	}
	if got := r.Stats().HistoryErrors; got != 0 {
		t.Errorf("%d history errors", got)
	}
}

// faultyHistory is a history whose reads can be made to fail or to come
// back altered.
type faultyHistory struct {
	asmr.History
	mode string // "", "short" or "corrupt"
}

var errShortRead = errors.New("short read")

func (h *faultyHistory) Get(k uint64) (*sbc.Decision, error) {
	d, err := h.History.Get(k)
	switch {
	case err != nil || h.mode == "":
		return d, err
	case h.mode == "short":
		return nil, errShortRead
	}
	// One payload byte altered, in a copy: the decision digest, which
	// names the payload by its digest field, does not change.
	altered := *d
	altered.Proposals = maps.Clone(d.Proposals)
	for id, p := range altered.Proposals {
		p.Payload = append([]byte(nil), p.Payload...)
		p.Payload[0] ^= 1
		altered.Proposals[id] = p
		break
	}
	return &altered, nil
}

// TestHistoryReadFailureServesNothing reads a retired instance back
// through a history that fails, and through one that returns an altered
// decision: the replica answers a block request and a payload pull for
// it with nothing, as for a block restored from disk, and counts each
// read. The same requests are answered once the reads are sound again.
func TestHistoryReadFailureServesNothing(t *testing.T) {
	const n, k, slot = 4, 5, types.ReplicaID(2)
	faulty := make(map[types.ReplicaID]*faultyHistory)
	c := benignClusterOf(t, n, 80, func(id types.ReplicaID, _ simnet.Env) (harness.Application, error) {
		faulty[id] = &faultyHistory{History: asmr.NewMemHistory()}
		return &historyApp{h: history{History: faulty[id]}}, nil
	})
	const probeID = types.ReplicaID(2*n + 1)
	p := &probe{}
	c.Net.AddNode(probeID, func(simnet.Env) simnet.Handler { return p })
	c.Start()
	target := c.Members[0]
	r := c.Replicas[target]
	runUntilHeight(t, c, 80)
	d, _ := r.Committed(k)
	if d == nil || r.Stats().RetiredInstances < k {
		t.Fatalf("instance %d not retired with a decision at height 80", k)
	}
	wi := asmr.WireInstance(k, 0)

	ask := func(mode string) (blocks int, pulled bool, stats asmr.Stats) {
		t.Helper()
		faulty[target].mode = mode
		p.got = nil
		c.Net.Inject(probeID, target, &asmr.CatchupReq{FromK: k, ToK: k}, 50*time.Millisecond)
		c.Net.Inject(probeID, target, &rbc.PayloadReq{Context: accountability.CtxMain, Instance: wi, Broadcaster: slot, Digest: d.Proposals[slot].Digest}, 100*time.Millisecond)
		c.Run(c.Net.Now() + time.Second)
		for _, msg := range p.got {
			switch m := msg.(type) {
			case *asmr.CatchupResp:
				blocks += len(m.Blocks)
			case *rbc.PayloadResp:
				pulled = true
			}
		}
		return blocks, pulled, r.Stats()
	}
	before := r.Stats()
	for i, mode := range []string{"short", "corrupt"} {
		blocks, pulled, st := ask(mode)
		if blocks != 0 || pulled {
			t.Errorf("%s reads: %d blocks served and payload pulled %v, want nothing", mode, blocks, pulled)
		}
		if got := st.HistoryErrors - before.HistoryErrors; got != uint64(2*(i+1)) {
			t.Errorf("%s reads: %d history errors counted in all, want %d", mode, got, 2*(i+1))
		}
	}
	if blocks, pulled, _ := ask(""); blocks != 1 || !pulled {
		t.Errorf("sound reads: %d blocks served and payload pulled %v, want the block and the payload", blocks, pulled)
	}
}

// conflictingDecision forges what only a coalition can produce: a second
// certified decision for local's instance, with slot flipped to 0 under a
// quorum of AUX votes from signers for the round local decided in.
func conflictingDecision(t *testing.T, c *harness.Cluster, local *sbc.Decision, slot types.ReplicaID, signers []types.ReplicaID) *sbc.Decision {
	t.Helper()
	remote := &sbc.Decision{
		Instance:   local.Instance,
		Bits:       map[types.ReplicaID]bool{},
		Proposals:  map[types.ReplicaID]sbc.ProposalInfo{},
		BinCerts:   map[types.ReplicaID]*accountability.Certificate{},
		ReadyCerts: map[types.ReplicaID]*accountability.Certificate{},
		InitStmts:  map[types.ReplicaID]*accountability.Signed{},
	}
	for id, bit := range local.Bits {
		if id == slot {
			continue
		}
		remote.Bits[id] = bit
		remote.BinCerts[id] = local.BinCerts[id]
		if bit {
			remote.Proposals[id] = local.Proposals[id]
			remote.ReadyCerts[id] = local.ReadyCerts[id]
			remote.InitStmts[id] = local.InitStmts[id]
		}
	}
	stmt := local.BinCerts[slot].Stmt
	stmt.Value = accountability.BoolDigest(false)
	var sigs []accountability.Signed
	for _, id := range signers {
		s, err := accountability.SignStatement(c.Signers[id], stmt)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, s)
	}
	cert, err := accountability.NewCertificate(stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	remote.Bits[slot] = false
	remote.BinCerts[slot] = cert
	return remote
}

// TestLateConflictAfterRetirement delivers a certified conflicting block
// for an instance that retired long ago. The replica kept only the
// decision, in its history, and that is enough: its certificates go back
// into the log ahead of the remote ones, the quorums intersect in ⌈n/3⌉
// signers, each is convicted, and the application gets both branches to
// merge — once, the local one read back from the history equal in digest
// and content to the one decided. A replica whose history does not hold
// the decision (a node without a store) still hands the remote branch to
// the application, once, with no local one; it convicts no one itself,
// and counts the read that found nothing.
func TestLateConflictAfterRetirement(t *testing.T) {
	for _, hist := range histories {
		t.Run(hist.name, func(t *testing.T) { lateConflictAfterRetirement(t, hist.open) })
	}
	t.Run("none", func(t *testing.T) {
		lateConflictAfterRetirement(t, func(*testing.T) history { return history{History: node.HistoryOf(nil)} })
	})
}

func lateConflictAfterRetirement(t *testing.T, history func(*testing.T) history) {
	const n, k = 4, 5
	apps := make(map[types.ReplicaID]*forkRecorder)
	const victim = types.ReplicaID(n)
	c := benignClusterOf(t, n, 100, func(id types.ReplicaID, _ simnet.Env) (harness.Application, error) {
		apps[id] = &forkRecorder{}
		if id == victim { // its peers keep the default history
			apps[id].h = history(t)
		}
		return apps[id], nil
	})
	r := c.Replicas[victim]
	c.Start()
	runUntilHeight(t, c, 100)
	if got := r.Stats().LiveInstances; got > asmr.RetainDepth+inFlight {
		t.Fatalf("%d live instances at height 100: instance %d did not retire", got, k)
	}
	if got := r.Log().ProvenCount(); got != 0 {
		t.Fatalf("%d culprits before the conflict", got)
	}

	// What the victim decided; a peer's copy when its history dropped it.
	local, _ := r.Committed(k)
	held := local != nil
	if !held {
		local, _ = c.Replicas[c.Members[0]].Committed(k)
	}
	slot := local.OrderedProposals()[0].Broadcaster // any slot decided 1
	remote := conflictingDecision(t, c, local, slot, c.Members[:3])
	pruned := r.Stats().HistoryPruned
	for i := 0; i < 2; i++ { // the second copy must be recognised as seen
		answer(c, c.Members[0], victim, k, k, []asmr.BlockRecord{{K: k, Decision: remote}})
	}
	c.Run(c.Net.Now() + 500*time.Millisecond)

	calls := apps[victim].forks
	if len(calls) != 1 || calls[0].k != k || calls[0].remote != remote || (calls[0].local != nil) != held {
		t.Fatalf("OnDisagreement calls = %+v, want exactly one with (%d, local held %v, remote)", calls, k, held)
	}
	if !held {
		if got := r.Stats().HistoryPruned - pruned; got != 1 {
			t.Errorf("%d reads counted pruned, want 1", got)
		}
		if got := r.Log().ProvenCulprits(); len(got) != 0 || !r.Disagreed(k) {
			t.Errorf("without the local decision: culprits %v, disagreed %v; want none and true", got, r.Disagreed(k))
		}
		return
	}
	if got := calls[0].local; got.Digest() != local.Digest() || !reflect.DeepEqual(got, local) {
		t.Fatalf("OnDisagreement's local branch differs from the decision:\ngot  %+v\nwant %+v", got, local)
	}
	if !r.Disagreed(k) {
		t.Errorf("instance %d not marked disagreed", k)
	}
	// The local certificate holds a quorum of the four signers and the
	// forged one holds replicas 1–3: they share at least two.
	culprits := r.Log().ProvenCulprits()
	if len(culprits) < types.FaultThreshold(n) {
		t.Fatalf("proven culprits %v, want >= %d", culprits, types.FaultThreshold(n))
	}
	for _, id := range culprits {
		if id == victim {
			t.Errorf("replica %v convicted itself", id)
		}
	}
}

// TestUnsolicitedBlocksAreRefused: a replica that was down while the
// others decided is running again, missing every block. A peer sends it a
// genuine CatchupResp for block k that it never asked for: nothing is
// committed, no instance is opened and no signature is checked. Once it
// asks, its peers' answers are adopted, and no request is left in flight.
func TestUnsolicitedBlocksAreRefused(t *testing.T) {
	const height, k = 6, 3
	c, victim := missedRun(t, height)
	r, source := c.Replicas[victim], c.Members[0]
	block, _ := c.Replicas[source].Committed(k)

	before := r.Stats()
	c.Net.Inject(source, victim, &asmr.CatchupResp{FromK: k, ToK: k, Blocks: []asmr.BlockRecord{{K: k, Decision: block}}}, 10*time.Millisecond)
	c.Run(c.Net.Now() + 500*time.Millisecond)
	after := r.Stats()
	if _, ok := r.Committed(k); ok {
		t.Fatalf("block %d committed from an answer nobody asked for", k)
	}
	if after.LiveInstances != before.LiveInstances {
		t.Errorf("live instances %d -> %d: the frame built protocol state", before.LiveInstances, after.LiveInstances)
	}
	if after.StmtSigChecks != before.StmtSigChecks {
		t.Errorf("signature checks %d -> %d: the frame was audited", before.StmtSigChecks, after.StmtSigChecks)
	}

	r.RequestCatchup()
	c.Run(c.Net.Now() + time.Second)
	if got := r.CommittedCount(); got != height {
		t.Fatalf("replica %v adopted %d of %d blocks it asked for", victim, got, height)
	}
	want := c.Replicas[source].ChainDigests()
	for k, d := range r.ChainDigests() {
		if d != want[k] {
			t.Errorf("block %d adopted as %v, replica %v decided %v", k, d, source, want[k])
		}
	}
	if in := r.InFlight(); len(in) != 0 {
		t.Errorf("requests still in flight after every peer answered: %v", in)
	}
}

// openPruningStoreHistory is openStoreHistory with a checkpoint cut every
// `every` blocks, each pruning the segments below it: every flush rolls
// the segment, so the store retains only what follows its last cut.
func openPruningStoreHistory(every uint64) func(*testing.T) history {
	return func(t *testing.T) history {
		st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return history{node.HistoryOf(st), func(k uint64, attempt uint32, d *sbc.Decision) {
			err := st.Append(&store.BlockRecord{K: k, Attempt: attempt, Digest: store.BlockFrom(k, d, wire.DecodeBatch).Digest, Decision: d})
			if err == nil {
				err = st.Flush()
			}
			if err == nil && k%every == 0 {
				err = st.WriteCheckpoint(&wire.CheckpointState{LastK: k})
			}
			if err != nil {
				t.Error(err)
			}
		}}
	}
}

// TestLagBeyondTheHistoryStalls pins what a replica that missed more
// instances than RetainDepth gets when it asks its peers for them. Peers
// that keep every decision (the simulator's memory history) send the
// whole chain. Peers that keep none once an instance retires (a zlb-node
// without -data-dir), or whose store pruned the segments below its last
// checkpoint, send only the instances they still hold, and count each
// block they cannot send as a pruned read. Nothing falls back below
// that: asking again brings nothing more, and a node whose ledger applies
// blocks in chain order holds the ones it got ahead of the gap for good.
// At n = 10 the confirmation threshold is 9 of 10, so the peers finalize
// and retire instances the absent replica never confirmed; below n = 10
// it takes every member's confirmation, and they retire nothing while it
// is away.
func TestLagBeyondTheHistoryStalls(t *testing.T) {
	const n, height = 10, 100
	for _, c := range []struct {
		name string
		open func(*testing.T) history
		full bool
	}{
		{"memory", func(*testing.T) history { return history{History: asmr.NewMemHistory()} }, true},
		{"none", func(*testing.T) history { return history{History: node.HistoryOf(nil)} }, false},
		{"pruned-store", openPruningStoreHistory(10), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			const victim = types.ReplicaID(n)
			cl := benignClusterOf(t, n, height, func(id types.ReplicaID, _ simnet.Env) (harness.Application, error) {
				if id == victim {
					return &historyApp{h: history{History: asmr.NewMemHistory()}}, nil
				}
				return &historyApp{h: c.open(t)}, nil
			})
			cl.Net.SetUp(victim, false)
			cl.Start()
			cl.RunUntilQuiet(time.Minute)
			cl.Net.SetUp(victim, true)
			source := cl.Replicas[cl.Members[0]]
			if got := source.CommittedCount(); got != height {
				t.Fatalf("the running replicas decided %d of %d instances", got, height)
			}
			pruned := source.Stats().HistoryPruned
			r := cl.Replicas[victim]
			for range 2 { // asking again brings nothing more
				r.RequestCatchup()
				cl.Run(cl.Net.Now() + time.Second)
			}

			got := r.ChainDigests()
			want := source.ChainDigests()
			for k, d := range got {
				if d != want[k] {
					t.Errorf("block %d adopted as %v, the source holds %v", k, d, want[k])
				}
			}
			if c.full {
				if len(got) != height || source.Stats().HistoryPruned != pruned {
					t.Fatalf("%d of %d blocks caught up, %d pruned reads; want all and none", len(got), height, source.Stats().HistoryPruned-pruned)
				}
				return
			}
			first := uint64(height)
			for k := range got {
				first = min(first, k)
			}
			if len(got) == 0 || first <= height-asmr.RetainDepth-inFlight || len(got) != int(height-first+1) {
				t.Fatalf("caught up %d blocks from %d; want the last ones, above %d, and nothing below", len(got), first, height-asmr.RetainDepth-inFlight)
			}
			if _, ok := r.Committed(1); ok {
				t.Fatal("block 1 caught up from peers that no longer hold it")
			}
			if reads := source.Stats().HistoryPruned - pruned; reads < 2*(first-1) {
				t.Errorf("%d pruned reads on the source for two requests of %d blocks it lacks", reads, first-1)
			}
			t.Logf("caught up blocks %d..%d of %d; the source counted %d pruned reads", first, height, height, source.Stats().HistoryPruned-pruned)
		})
	}
}

// TestAggressiveDepthKeepsAccountability reruns the adversarial campaigns
// with instances retiring one instance behind the chain head instead of
// RetainDepth, so that every fork, replay and catch-up in them meets
// retired instances. The paper's invariants (a)–(d) must hold and the
// proven culprits must be the ones the campaign proves at RetainDepth.
func TestAggressiveDepthKeepsAccountability(t *testing.T) {
	const n, seed = 9, 42 // what the campaign goldens pin

	// The campaigns run three or four instances; at depth 1 that is
	// enough for the first ones to retire while the run is still going.
	restore := asmr.SetRetainDepth(1)
	short := benignCluster(t, n, 4)
	short.Start()
	runUntilHeight(t, short, 4)
	restore()
	if got := short.Replicas[short.Members[0]].Stats().RetiredInstances; got < 2 {
		t.Fatalf("a 4-instance run at depth 1 retired %d instances, want >= 2", got)
	}

	for _, name := range conformance.Names() {
		want, err := conformance.Run(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		restore := asmr.SetRetainDepth(1)
		got, err := conformance.Run(name, n, seed)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != 0 {
			t.Errorf("%s at depth 1: %s", name, got.Format())
		}
		if !reflect.DeepEqual(got.Culprits, want.Culprits) || !reflect.DeepEqual(got.Excluded, want.Excluded) {
			t.Errorf("%s: culprits %v excluded %v at depth 1, %v and %v at RetainDepth",
				name, got.Culprits, got.Excluded, want.Culprits, want.Excluded)
		}
		if got.Committed != want.Committed || got.Disagreements != want.Disagreements || got.Converged != want.Converged {
			t.Errorf("%s differs at depth 1:\n%s%s", name, got.Format(), want.Format())
		}
	}

	type outcome struct {
		culprits   []types.ReplicaID
		retired    uint64 // instances the honest replicas retired
		healed     uint64 // instances they decided under the committee after the change
		violations []scenario.Violation
		converged  bool
	}
	attack := func() outcome {
		s, err := scenario.Build("attack-detect-exclude-merge", 9, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cluster
		out := outcome{
			culprits:   c.CulpritsDetected(),
			violations: res.Violations,
			converged:  res.Converged,
		}
		for _, id := range c.HonestMembers() {
			out.retired += c.Replicas[id].Stats().RetiredInstances
			for _, commit := range c.Commits[id] {
				if commit.Attempt > 0 {
					out.healed++
				}
			}
		}
		return out
	}
	want := attack()
	restore = asmr.SetRetainDepth(1)
	got := attack()
	restore()
	if len(got.violations) != 0 || !got.converged {
		t.Errorf("attack-detect-exclude-merge at depth 1: converged %v, violations %v", got.converged, got.violations)
	}
	if len(got.culprits) == 0 || !reflect.DeepEqual(got.culprits, want.culprits) {
		t.Errorf("attack-detect-exclude-merge: culprits %v at depth 1, %v at RetainDepth", got.culprits, want.culprits)
	}
	// A coalition member signs no confirmation, and at n=9 finality needs
	// all nine: what the committee under attack decided is never final, so
	// whatever the depth the rule must hold on to every instance the fork
	// could reach. What may retire is what the healed committee decided.
	if got.healed == 0 || got.retired >= got.healed {
		t.Errorf("attack-detect-exclude-merge at depth 1 retired %d instances, the healed committee decided %d: the chain under attack must stay",
			got.retired, got.healed)
	}
}

// TestConfirmAnnouncesEveryDecision cuts one replica off from the whole
// binary phase of one instance: votes and DECIDE announcements are lost, as
// they are for a replica that was down while the others decided. The
// confirmations, sent once the instance is over, do reach it; each one
// stands for the announcements it missed, so it pulls the certificates,
// adopts them and finishes the instance with the same digest.
func TestConfirmAnnouncesEveryDecision(t *testing.T) {
	const n, cut, victim = 4, 3, types.ReplicaID(4)
	c := benignCluster(t, n, 8)
	pulled := 0
	c.Net.DeliverRule = func(_, to types.ReplicaID, msg simnet.Message) simnet.Message {
		if to != victim {
			return msg
		}
		_, wi, _ := sbc.ContextInstanceOf(msg)
		if k, _ := asmr.SplitInstance(wi); k != cut {
			return msg
		}
		switch m := msg.(type) {
		case *bincon.Est, *bincon.Coord, *bincon.Aux:
			return nil
		case *bincon.Decide:
			if m.Cert == nil {
				return nil
			}
			pulled++
		}
		return msg
	}
	c.Start()
	c.RunUntilQuiet(10 * time.Minute)
	r := c.Replicas[victim]
	if got := r.CommittedCount(); got != 8 {
		t.Fatalf("replica %v committed %d of 8 instances", victim, got)
	}
	ref := c.Replicas[c.Members[0]].ChainDigests()
	for k, d := range r.ChainDigests() {
		if d != ref[k] {
			t.Errorf("instance %d: replica %v holds another digest", k, victim)
		}
	}
	// One certificate per slot at the least, one per slot and peer at most.
	if pulled < n || pulled > n*(n-1) {
		t.Errorf("replica %v received %d certificates for instance %d, want %d to %d", victim, pulled, cut, n, n*(n-1))
	}
}
