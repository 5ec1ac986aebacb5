package asmr_test

import (
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// sigCheck is one call that reached a node's signature scheme.
type sigCheck struct {
	pub    string
	digest types.Digest
	sig    string
}

// tallyScheme counts, per (key, digest, signature), the checks that reach
// one node's scheme. Embedding the interface hides the batch capability,
// so every check comes through Verify.
type tallyScheme struct {
	crypto.Scheme
	checks map[sigCheck]int
}

func (s *tallyScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.checks[sigCheck{string(pub), digest, string(sig)}]++
	return s.Scheme.Verify(pub, digest, sig)
}

// TestEverySignatureCheckedOncePerNode runs an honest n=4 chain and reads
// each node's scheme: no (signer, statement, signature) is checked twice,
// none of the node's own is checked at all, so the checks a node makes are
// the distinct foreign signatures it saw. Every proposal commits and every
// slot decides 1 in one binary round, so per instance that is n−1 INITs,
// n(n−1) ECHOs, n(n−1) READYs, n−1 COORDs (the node coordinates one slot in
// n itself), n(n−1) AUXs and n−1 CONFIRMs: 3(n−1)(n+1), 45 at n=4.
func TestEverySignatureCheckedOncePerNode(t *testing.T) {
	const n, instances = 4, 24
	reg := crypto.NewRegistry(crypto.SchemeSim)
	inner, err := crypto.NewScheme(crypto.SchemeSim, reg)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]types.ReplicaID, n)
	keys := make([]*crypto.KeyPair, n)
	rand := crypto.NewDeterministicRand(11)
	for i := range members {
		members[i] = types.ReplicaID(i + 1)
		if keys[i], err = inner.GenerateKey(rand); err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(members[i], keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	net := simnet.New(simnet.Config{Latency: latency.Uniform(time.Millisecond, 8*time.Millisecond), Seed: 11})
	schemes := make([]*tallyScheme, n)
	replicas := make([]*asmr.Replica, n)
	for i, id := range members {
		i, id := i, id
		schemes[i] = &tallyScheme{Scheme: inner, checks: make(map[sigCheck]int)}
		net.AddNode(id, func(env simnet.Env) simnet.Handler {
			replicas[i] = asmr.NewReplica(asmr.Config{
				Self:             id,
				Signer:           crypto.NewSigner(id, keys[i], schemes[i], reg),
				Env:              env,
				InitialCommittee: members,
				Accountable:      true,
				Recover:          true,
				MaxInstances:     instances,
			})
			return replicas[i]
		})
	}
	for _, r := range replicas {
		r.Start()
	}
	net.RunUntilQuiet(10 * time.Minute)

	for i, r := range replicas {
		if got := r.CommittedCount(); got != instances {
			t.Fatalf("replica %v committed %d instances, want %d", members[i], got, instances)
		}
		total := 0
		for c, times := range schemes[i].checks {
			total += times
			if times > 1 {
				t.Errorf("replica %v checked one signature %d times", members[i], times)
			}
			if c.pub == string(keys[i].Public()) {
				t.Errorf("replica %v checked a signature of its own", members[i])
			}
		}
		if want := instances * 3 * (n - 1) * (n + 1); total != want {
			t.Errorf("replica %v made %d signature checks, want %d: the foreign signatures of %d one-round instances", members[i], total, want, instances)
		}
		log := r.Log()
		if log.SigChecks != uint64(total) {
			t.Errorf("replica %v: log counts %d checks, its scheme saw %d", members[i], log.SigChecks, total)
		}
		if log.SigKnown == 0 {
			t.Errorf("replica %v: no statement accepted from the log, not even its own", members[i])
		}
		t.Logf("replica %v: %.1f checks and %.1f known per instance", members[i],
			float64(total)/instances, float64(log.SigKnown)/instances)
	}
}
