package membership

import (
	"sync"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/committee"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

func TestChoose(t *testing.T) {
	proposals := [][]types.ReplicaID{
		{10, 11, 12},
		{10, 13, 14},
		{15},
	}
	got := Choose(4, proposals)
	if len(got) != 4 {
		t.Fatalf("chose %d, want 4", len(got))
	}
	// Round-robin spread: first pick of each proposal wins first (10, 13,
	// 15), then the next unused (11).
	want := map[types.ReplicaID]bool{10: true, 13: true, 15: true, 11: true}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected choice %v in %v", id, got)
		}
	}
	// Deterministic.
	again := Choose(4, proposals)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("choose not deterministic")
		}
	}
	// Exhaustion: asking for more than available returns all distinct.
	all := Choose(10, proposals)
	if len(all) != 6 {
		t.Fatalf("exhausted choose returned %d, want 6", len(all))
	}
	// No duplicates ever.
	seen := map[types.ReplicaID]bool{}
	for _, id := range all {
		if seen[id] {
			t.Fatalf("duplicate %v", id)
		}
		seen[id] = true
	}
}

func TestEncodingRoundTrips(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	stmt := accountability.Statement{
		Context: accountability.CtxMain, Kind: accountability.KindAux,
		Instance: 1, Slot: 1, Value: accountability.BoolDigest(true),
	}
	stmt2 := stmt
	stmt2.Value = accountability.BoolDigest(false)
	a, _ := accountability.SignStatement(signers[0], stmt)
	b, _ := accountability.SignStatement(signers[0], stmt2)
	pof, err := accountability.NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	payload := accountability.AppendPoFs(nil, []accountability.PoF{pof})
	back, err := wire.Decode(payload, accountability.ReadPoFs)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Culprit != pof.Culprit {
		t.Fatal("PoF round trip failed")
	}
	if !back[0].Verify(signers[1]) {
		t.Fatal("decoded PoF does not verify")
	}

	ids := []types.ReplicaID{5, 6, 7}
	gotIDs, err := wire.Decode(wire.AppendReplicas(nil, ids), wire.ReadReplicas)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != 3 || gotIDs[0] != 5 {
		t.Fatalf("replica round trip = %v", gotIDs)
	}
	if _, err := wire.Decode([]byte("garbage"), accountability.ReadPoFs); err == nil {
		t.Fatal("garbage PoF payload accepted")
	}
}

func TestChangeInstancePacking(t *testing.T) {
	for _, c := range []struct {
		epoch   uint64
		attempt uint32
	}{{1, 0}, {1, 3}, {7, 63}, {1000, 1}} {
		wi := ChangeInstance(c.epoch, c.attempt)
		e, a := SplitChangeInstance(wi)
		if e != c.epoch || a != c.attempt {
			t.Fatalf("pack(%d,%d) → (%d,%d)", c.epoch, c.attempt, e, a)
		}
	}
}

// changeNode hosts one membership change per replica. The change is
// created lazily on a "start" kick so its initial broadcasts happen after
// every node is registered (in ASMR, changes always start during event
// processing).
type changeNode struct {
	build  func() *Change
	change *Change
}

func (n *changeNode) OnMessage(from types.ReplicaID, msg simnet.Message) {
	if msg == simnet.Message("start") {
		if n.change == nil {
			n.change = n.build()
		}
		return
	}
	if n.change == nil {
		n.change = n.build()
	}
	n.change.OnMessage(from, msg)
}

func (n *changeNode) OnTimer(payload any) {
	if p, ok := payload.(bincon.TimerPayload); ok && n.change != nil {
		n.change.OnTimer(p)
	}
}

// TestMembershipChangeEndToEnd runs the full Alg. 1 flow in isolation: 9
// replicas, 3 of which are proven deceitful; the honest 6 run the change
// and agree on exclusions and inclusions.
func TestMembershipChangeEndToEnd(t *testing.T) {
	n := 9
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n+4, 11)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
	}
	poolIDs := []types.ReplicaID{10, 11, 12, 13}
	culprits := []types.ReplicaID{1, 2, 3}

	// Forge genuine equivocation evidence for the culprits.
	var pofs []accountability.PoF
	for _, id := range culprits {
		signer := signers[int(id)-1]
		stmt := accountability.Statement{
			Context: accountability.CtxMain, Kind: accountability.KindAux,
			Instance: 1, Slot: 2, Value: accountability.BoolDigest(true),
		}
		stmt2 := stmt
		stmt2.Value = accountability.BoolDigest(false)
		a, _ := accountability.SignStatement(signer, stmt)
		b, _ := accountability.SignStatement(signer, stmt2)
		pof, err := accountability.NewPoF(a, b)
		if err != nil {
			t.Fatal(err)
		}
		pofs = append(pofs, pof)
	}

	net := simnet.New(simnet.Config{Latency: latency.Uniform(time.Millisecond, 10*time.Millisecond), Seed: 11})
	// Every replica's OnResult writes results: the lock keeps the map safe
	// whichever goroutine runs the callbacks.
	var resultsMu sync.Mutex
	results := map[types.ReplicaID]*Result{}
	honest := members[3:]
	for _, id := range honest {
		id := id
		signer := signers[int(id)-1]
		net.AddNode(id, func(env simnet.Env) simnet.Handler {
			return &changeNode{build: func() *Change {
				log := accountability.NewLog(signer, nil)
				for _, p := range pofs {
					log.AddPoF(p)
				}
				return NewChange(Config{
					Epoch:      1,
					Self:       id,
					Signer:     signer,
					Log:        log,
					Env:        env,
					Committee:  members,
					Pool:       committee.NewPool(poolIDs),
					TargetSize: n,
					CoordTimeout: func(r types.Round) time.Duration {
						return 40 * time.Millisecond * time.Duration(r+1)
					},
					OnResult: func(res *Result) {
						resultsMu.Lock()
						results[id] = res
						resultsMu.Unlock()
					},
				})
			}}
		})
	}
	for _, id := range honest {
		net.Inject(0, id, "start", 0)
	}
	net.RunUntilQuiet(5 * time.Minute)

	if len(results) != len(honest) {
		t.Fatalf("%d of %d honest completed the change", len(results), len(honest))
	}
	var ref *Result
	for id, res := range results {
		if ref == nil {
			ref = res
		}
		if len(res.Excluded) != len(ref.Excluded) || len(res.Included) != len(ref.Included) {
			t.Fatalf("replica %v disagrees on the change outcome", id)
		}
		for i := range res.Excluded {
			if res.Excluded[i] != ref.Excluded[i] {
				t.Fatalf("replica %v excluded %v, ref %v", id, res.Excluded, ref.Excluded)
			}
		}
		for _, ex := range res.Excluded {
			found := false
			for _, c := range culprits {
				if ex == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("non-culprit %v excluded", ex)
			}
		}
		if len(res.Included) != len(res.Excluded) {
			t.Fatalf("included %d ≠ excluded %d", len(res.Included), len(res.Excluded))
		}
		if res.IncludedAt < res.ExcludedAt || res.ExcludedAt < res.StartedAt {
			t.Fatal("phase timestamps out of order")
		}
	}
}

func TestValidateExclusionProposalRejectsGarbage(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{Latency: latency.Fixed(time.Millisecond), Seed: 3})
	var change *Change
	net.AddNode(2, func(env simnet.Env) simnet.Handler {
		log := accountability.NewLog(signers[1], nil)
		// One real PoF so the change constructor has something to propose.
		stmt := accountability.Statement{
			Context: accountability.CtxMain, Kind: accountability.KindAux,
			Instance: 1, Slot: 1, Value: accountability.BoolDigest(true),
		}
		stmt2 := stmt
		stmt2.Value = accountability.BoolDigest(false)
		a, _ := accountability.SignStatement(signers[0], stmt)
		b, _ := accountability.SignStatement(signers[0], stmt2)
		pof, _ := accountability.NewPoF(a, b)
		log.AddPoF(pof)
		change = NewChange(Config{
			Epoch: 1, Self: 2, Signer: signers[1], Log: log, Env: env,
			Committee:  []types.ReplicaID{1, 2, 3, 4},
			Pool:       committee.NewPool(nil),
			TargetSize: 4,
		})
		return &changeNode{change: change}
	})
	if change.validateExclusionProposal(3, []byte("garbage")) {
		t.Fatal("garbage proposal validated")
	}
	empty := accountability.AppendPoFs(nil, nil)
	if change.validateExclusionProposal(3, empty) {
		t.Fatal("empty PoF set validated")
	}
}
