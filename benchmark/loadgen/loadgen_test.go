package loadgen

import (
	"context"
	"encoding/gob"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

const ms = time.Millisecond

// TestAttributeBroadcast: with broadcast submission every block is a
// prefix of the submission order, so count-based attribution is exact.
func TestAttributeBroadcast(t *testing.T) {
	// Set-up transaction applied (base 1), then blocks of 3, 2 and 1.
	polls := []Poll{{At: 10 * ms, Applied: 4}, {At: 25 * ms, Applied: 6}, {At: 40 * ms, Applied: 7}}
	got := Attribute(make([]bool, 8), 1, polls)
	want := []time.Duration{10 * ms, 10 * ms, 10 * ms, 25 * ms, 25 * ms, 40 * ms, NotCommitted, NotCommitted}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tx %d committed at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAttributeShardedRaggedEdge: with sharded submission a superblock
// takes a prefix of each replica's own queue. Transactions 0..7 go round
// robin to replicas A,B (A: 0 2 4 6, B: 1 3 5 7). The first block carries
// A's 0 2 4 and B's 1; the second carries the rest. By count the first
// block (4 transactions) is credited to 0..3, so transaction 3, really in
// block 2, is credited one block early and 4, really in block 1, one
// block late: off by the ragged edge of one block, never more.
func TestAttributeShardedRaggedEdge(t *testing.T) {
	polls := []Poll{{At: 10 * ms, Applied: 5}, {At: 20 * ms, Applied: 9}}
	got := Attribute(make([]bool, 8), 1, polls)
	truth := []time.Duration{10 * ms, 10 * ms, 10 * ms, 20 * ms, 10 * ms, 20 * ms, 20 * ms, 20 * ms}
	wrong := 0
	for i := range truth {
		if got[i] != truth[i] {
			wrong++
			if d := got[i] - truth[i]; d != 10*ms && d != -10*ms {
				t.Errorf("tx %d credited %v away from its block", i, d)
			}
		}
	}
	if wrong != 2 {
		t.Errorf("%d transactions credited to the neighbouring block, want 2", wrong)
	}
}

// TestAttributeRefusedSubmit: a transaction no replica accepted never
// commits and must not shift the transactions behind it.
func TestAttributeRefusedSubmit(t *testing.T) {
	lost := []bool{false, true, false, false}
	polls := []Poll{{At: 10 * ms, Applied: 3}, {At: 20 * ms, Applied: 4}}
	got := Attribute(lost, 1, polls)
	want := []time.Duration{10 * ms, NotCommitted, 10 * ms, 20 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tx %d committed at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAppliedAt(t *testing.T) {
	polls := []Poll{{At: 10 * ms, Applied: 4}, {At: 25 * ms, Applied: 6}}
	for _, c := range []struct {
		at   time.Duration
		want uint64
	}{{0, 1}, {10 * ms, 4}, {24 * ms, 4}, {25 * ms, 6}, {time.Second, 6}} {
		if got := AppliedAt(1, polls, c.at); got != c.want {
			t.Errorf("AppliedAt(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

func TestLatenciesAndPercentiles(t *testing.T) {
	sentAt := []time.Duration{1 * ms, 2 * ms, 3 * ms, 4 * ms, 50 * ms, 60 * ms}
	committedAt := []time.Duration{11 * ms, 32 * ms, NotCommitted, 9 * ms, 70 * ms, 61 * ms}
	lat := Latencies(sentAt, committedAt, 2*ms, 60*ms) // tx 0 before, tx 5 at the end of the window
	want := []time.Duration{5 * ms, 20 * ms, 30 * ms}
	if len(lat) != len(want) {
		t.Fatalf("got %d samples %v, want %d", len(lat), lat, len(want))
	}
	for i := range want {
		if lat[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, lat[i], want[i])
		}
	}
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i+1) * ms
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * ms}, {0.95, 95 * ms}, {0.99, 99 * ms}, {1, 100 * ms}, {0.001, 1 * ms}} {
		if got := Percentile(hundred, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of no samples is not 0")
	}
	if Millis(1500*time.Microsecond) != 1.5 {
		t.Error("Millis(1.5ms) != 1.5")
	}
}

// TestPlan: the plan is a function of the seed, every payment is the
// 240-byte single-input shape, and a ledger applies the whole plan in
// order, including the spend chains of a block wider than the wallets.
func TestPlan(t *testing.T) {
	const count = 2*Wallets + 10
	a, err := NewPlan(7, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(7, count, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewPlan(8, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Txs {
		if a.Txs[i].ID() != b.Txs[i].ID() {
			t.Fatalf("tx %d differs with the number of signing goroutines", i)
		}
		if a.Txs[i].CanonicalSize() != 240 {
			t.Fatalf("tx %d is %d bytes, want 240", i, a.Txs[i].CanonicalSize())
		}
	}
	if a.Txs[0].ID() == c.Txs[0].ID() || a.Setup.ID() == c.Setup.ID() {
		t.Fatal("different seeds gave the same transactions")
	}
	extra, err := a.Tx(count) // signed on demand, continuing wallet count%Wallets's chain
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Tx(count + 5); err == nil {
		t.Fatal("Tx skipped ahead without an error")
	}
	filler, err := a.Filler()
	if err != nil {
		t.Fatal(err)
	}

	ledger := bm.NewLedger(a.Scheme())
	ledger.Genesis(a.Genesis())
	if ledger.CommitBlock(bm.NewBlock(1, []*utxo.Transaction{a.Setup})) != 1 {
		t.Fatal("fan-out did not apply")
	}
	all := append(append([]*utxo.Transaction{}, a.Txs...), filler)
	if len(all) != count+2 || all[count] != extra {
		t.Fatalf("plan holds %d transactions after one on-demand signature", len(a.Txs))
	}
	if got := ledger.CommitBlock(bm.NewBlock(2, all)); got != len(all) {
		t.Fatalf("ledger applied %d of %d plan transactions", got, len(all))
	}
	if got := ledger.Table().Balance(a.Recipient()); int(got) != len(all) {
		t.Fatalf("recipient holds %d coins after %d payments", got, len(all))
	}
}

func TestPoisson(t *testing.T) {
	due := Poisson(3, 500, 4*time.Second)
	if n := len(due); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 4 s at 500/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("arrival times not ascending")
		}
	}
	if due[len(due)-1] >= 4*time.Second {
		t.Fatal("arrival past the horizon")
	}
	again := Poisson(3, 500, 4*time.Second)
	if len(again) != len(due) || again[17] != due[17] {
		t.Fatal("same seed, different schedule")
	}
}

// fakeCluster stands in for the nodes: its replicas speak the client
// protocol, and it "applies" every distinct transaction any of them
// accepted, on top of the set-up transaction.
type fakeCluster struct {
	mu      sync.Mutex
	applied map[types.Digest]bool
	lns     []net.Listener
	wg      sync.WaitGroup
}

func newFakeCluster(t *testing.T) *fakeCluster {
	f := &fakeCluster{applied: make(map[types.Digest]bool)}
	t.Cleanup(func() {
		for _, ln := range f.lns {
			ln.Close()
		}
		f.wg.Wait()
	})
	return f
}

func (f *fakeCluster) count(context.Context) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return 1 + uint64(len(f.applied)), nil
}

// replica starts one fake replica and returns its address. It acks every
// SubmitTx, refusing those whose ordinal on the connection refuse
// selects, and returns how many it accepted so far through accepted.
func (f *fakeCluster) replica(t *testing.T, refuse func(ordinal int) bool) (addr string, accepted *atomic.Int64) {
	t.Helper()
	transport.RegisterWireTypes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.lns = append(f.lns, ln)
	accepted = new(atomic.Int64)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer c.Close()
				dec, enc := gob.NewDecoder(c), gob.NewEncoder(c)
				for ordinal := 0; ; ordinal++ {
					var env clientEnvelope
					if dec.Decode(&env) != nil {
						return
					}
					ack := &transport.SubmitAck{OK: true}
					if refuse != nil && refuse(ordinal) {
						ack = &transport.SubmitAck{Err: transport.ErrBackpressure.Error()}
					} else {
						accepted.Add(1)
						f.mu.Lock()
						f.applied[env.Msg.(*transport.SubmitTx).Tx.ID()] = true
						f.mu.Unlock()
					}
					if enc.Encode(clientEnvelope{From: 1, Msg: ack}) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestRunClosedLoopSharded drives two fake replicas: transaction i goes
// to replica i%2 only, a refused submit is marked lost and reported as
// unapplied, and the drain broadcasts fillers while it waits.
func TestRunClosedLoopSharded(t *testing.T) {
	plan, err := NewPlan(1, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster := newFakeCluster(t)
	addrA, acceptedA := cluster.replica(t, nil)
	addrB, acceptedB := cluster.replica(t, func(ordinal int) bool { return ordinal == 3 }) // plan tx 7
	res, err := Run(context.Background(), Config{
		Addrs:    []string{addrA, addrB},
		Applied:  cluster.count,
		Plan:     plan,
		Shard:    true,
		InFlight: 8,
		Base:     1,
		Start:    time.Now(),
		SendFor:  100 * time.Millisecond,
		DrainFor: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A closed loop outlasts its 40 pre-signed transactions by signing on
	// demand.
	if res.Submitted < 40 || res.SignedLate != res.Submitted-40 || len(res.SentAt) != res.Submitted {
		t.Fatalf("submitted %d, %d signed late", res.Submitted, res.SignedLate)
	}
	if res.Refused != 1 {
		t.Fatalf("refused = %d, want 1", res.Refused)
	}
	for i, lost := range res.Lost {
		if lost != (i == 7) {
			t.Errorf("Lost[%d] = %v", i, lost)
		}
	}
	// The refused transaction never applies, so the drain runs into its
	// limit one short, having broadcast fillers (each to both replicas).
	if res.Fillers == 0 || res.Unapplied != 1 {
		t.Errorf("fillers = %d, unapplied = %d", res.Fillers, res.Unapplied)
	}
	half := int64((res.Submitted + 1) / 2)
	if got := acceptedA.Load(); got != half+int64(res.Fillers) {
		t.Errorf("replica A accepted %d submits, want its %d and %d fillers", got, half, res.Fillers)
	}
	if got := acceptedB.Load(); got != int64(res.Submitted)-half-1+int64(res.Fillers) {
		t.Errorf("replica B accepted %d submits, want its %d less the refused one and %d fillers", got, int64(res.Submitted)-half, res.Fillers)
	}
}

// TestRunOpenLoopBroadcast follows a schedule against two fake replicas.
func TestRunOpenLoopBroadcast(t *testing.T) {
	due := Poisson(2, 400, 250*time.Millisecond)
	plan, err := NewPlan(2, len(due), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan.Due = due
	cluster := newFakeCluster(t)
	addrA, acceptedA := cluster.replica(t, nil)
	addrB, acceptedB := cluster.replica(t, nil)
	res, err := Run(context.Background(), Config{
		Addrs:    []string{addrA, addrB},
		Applied:  cluster.count,
		Plan:     plan,
		Base:     1,
		Start:    time.Now().Add(10 * time.Millisecond),
		SendFor:  250 * time.Millisecond,
		DrainFor: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != len(due) || res.Refused != 0 || res.Fillers != 0 || res.Unapplied != 0 {
		t.Fatalf("result %+v for %d scheduled transactions", res, len(due))
	}
	if acceptedA.Load() != int64(len(due)) || acceptedB.Load() != int64(len(due)) {
		t.Fatalf("replicas accepted %d and %d of %d broadcasts", acceptedA.Load(), acceptedB.Load(), len(due))
	}
	for i := range res.SentAt {
		if res.SentAt[i] != due[i] {
			t.Fatalf("latency of tx %d is timed from %v, not from its due time %v", i, res.SentAt[i], due[i])
		}
		if res.Lag[i] < 0 {
			t.Fatalf("tx %d sent %v before it was due", i, -res.Lag[i])
		}
	}
	committedAt := Attribute(res.Lost, 1, res.Polls)
	if lat := Latencies(res.SentAt, committedAt, 0, time.Second); len(lat) != len(due) {
		t.Fatalf("%d of %d transactions attributed a commit", len(lat), len(due))
	}
}
