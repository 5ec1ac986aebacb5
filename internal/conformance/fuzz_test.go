package conformance

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/harness"
	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// FuzzCampaignSeeds explores the registered campaigns across seeds:
// data[0] selects the campaign, data[1:9] (little-endian, zero-padded) is
// the cluster seed. Every execution must end with all four invariants
// intact — the fuzzer is hunting for a seed whose interleaving breaks
// agreement, under-proves a disagreement, resurrects an excluded replica
// or accuses an honest one. The committed corpus pins one entry per
// campaign at seed 42, the seed the scenario goldens were captured from.
func FuzzCampaignSeeds(f *testing.F) {
	for i := range Names() {
		f.Add([]byte{byte(i), 42})
	}
	names := Names()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		name := names[int(data[0])%len(names)]
		var sb [8]byte
		copy(sb[:], data[1:])
		seed := int64(binary.LittleEndian.Uint64(sb[:]) & 0x7fffffff)
		res, err := Run(name, 9, seed)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", name, seed, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s seed=%d: invariant violations:\n%s", name, seed, res.Format())
		}
	})
}

// FuzzMutationSchedule drives a generic byte-programmed injector over an
// attack-free cluster: each delivery consumes one schedule byte choosing
// pass / duplicate / withhold-and-redeliver / future-EST shadow / forged
// AUX shadow. Whatever program the fuzzer writes, the run must stay in
// total agreement with zero accusations — none of the operations are
// attributable evidence.
func FuzzMutationSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 0, 1, 2, 3})
	f.Add([]byte{2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		inj := &Injector{}
		step := 0
		inj.SetRule(func(from, to types.ReplicaID, msg simnet.Message) simnet.Message {
			op := data[step%len(data)]
			step++
			switch op % 5 {
			case 1:
				inj.Inject(from, to, msg, 20*time.Millisecond)
			case 2:
				inj.Inject(from, to, msg, 100*time.Millisecond)
				return nil
			case 3:
				if m, ok := msg.(*bincon.Est); ok {
					inj.Inject(from, to, ShiftEstRound(m, 1), time.Millisecond)
				}
			case 4:
				if m, ok := msg.(*bincon.Aux); ok {
					inj.Inject(from, to, ForgeAux(m), time.Millisecond)
				}
			}
			return msg
		})
		res, err := scenario.Run(staged("mutation-schedule", harness.Options{
			N:            4,
			Accountable:  true,
			Recover:      true,
			Cost:         simnet.DefaultCostModel(),
			Seed:         11,
			BatchTxs:     50,
			BatchBytes:   400 * 50,
			MaxInstances: 2,
			PoolSize:     1,
			CoordTimeout: harness.FastRounds,
		}, inj, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("schedule %v: %v", data, res.Violations)
		}
		for _, id := range res.Cluster.HonestMembers() {
			if got := res.Cluster.Replicas[id].Log().ProvenCount(); got != 0 {
				t.Fatalf("schedule %v: replica %v proved %d culprits from unattributable noise", data, id, got)
			}
		}
	})
}

// FuzzPoFGossipDecode closes the loop with the wire layer: arbitrary
// bytes run through the PoF-set decoder, and any proof that parses must
// still fail signature verification against the local key universe —
// random bytes must never yield an accusation the gossip handler would
// accept. The seed corpus includes a structurally valid PoF signed in a
// *different* key universe (SchemeSim verification is registry-scoped),
// so the fuzzer mutates from well-formed proofs, not just noise.
func FuzzPoFGossipDecode(f *testing.F) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	foreign, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 99)
	if err != nil {
		f.Fatal(err)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindAux,
		Instance: 1, Slot: 2, Round: 0,
		Value: accountability.BoolDigest(false),
	}
	a, err := accountability.SignStatement(foreign[0], stmt)
	if err != nil {
		f.Fatal(err)
	}
	stmt.Value = accountability.BoolDigest(true)
	b, err := accountability.SignStatement(foreign[0], stmt)
	if err != nil {
		f.Fatal(err)
	}
	pof, err := accountability.NewPoF(a, b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(accountability.AppendPoFs(nil, []accountability.PoF{pof}))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		pofs, err := wire.Decode(data, accountability.ReadPoFs)
		if err != nil {
			return
		}
		for _, p := range pofs {
			if p.Verify(signers[0]) {
				t.Fatalf("fuzzed bytes produced a verifying PoF against %v", p.Culprit)
			}
		}
	})
}
