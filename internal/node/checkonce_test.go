package node

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// meteredScheme counts the signature checks that reach the scheme.
type meteredScheme struct {
	crypto.Scheme
	checks atomic.Int64
}

func (s *meteredScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.checks.Add(1)
	return s.Scheme.Verify(pub, digest, sig)
}

// TestCommittedTransactionsCheckedOncePerNode runs a superblock through
// four nodes the way their replicas would: each proposes what its pool
// admitted, is delivered all four proposals and commits them. Node 1's
// pool admitted a payment with a forged signature — admission checks no
// signature — and proposed it. Every transaction of the block reaches
// each node's scheme exactly once, whether the speculation at delivery
// checked it or the speculation was dropped (TryDo on a saturated pool)
// and the commit did; the forged payment is skipped on every node, and
// the four ledgers are identical.
func TestCommittedTransactionsCheckedOncePerNode(t *testing.T) {
	for _, speculated := range []bool{true, false} {
		name := "dropped"
		if speculated {
			name = "speculated"
		}
		t.Run(name, func(t *testing.T) { checkOncePerNode(t, speculated) })
	}
}

func checkOncePerNode(t *testing.T, speculated bool) {
	const n, perNode = 4, 5
	nodes := make([]*fixture, n)
	meters := make([]*meteredScheme, n)
	for i := range nodes {
		nodes[i] = newFixture(t, tcpEnv(types.ReplicaID(i+1)), wire.NewBatchCache(2*n), func(o *Options) {
			meters[i] = &meteredScheme{Scheme: o.Scheme}
			o.Scheme = meters[i]
		})
		if !speculated {
			nodes[i].txv = pipeline.NewTxVerifier(saturatedPool(t), meters[i])
		}
	}

	// Block 1 splits the faucet between one payer per node.
	payers, split := nodes[0].splitFaucet(t, n)
	first := encode(t, split)
	for _, f := range nodes {
		f.Commit(1, 0, decide(1, map[types.ReplicaID][]byte{1: first}))
	}

	// Block 2: each node proposes its payer's payments; node 1 also the
	// forged one, last of its payer's chain so that nothing spends it.
	for s, f := range nodes {
		for i := 0; i < perNode; i++ {
			if err := f.Pool().Add(payers[s].pay(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	forged := payers[0].pay(1)
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 0x80
	forged.Invalidate()
	if err := nodes[0].Pool().Add(forged); err != nil {
		t.Fatalf("admitting the forged payment: %v", err)
	}
	payloads := make(map[types.ReplicaID][]byte, n)
	for s, f := range nodes {
		payloads[types.ReplicaID(s+1)] = f.Propose(2).Payload
	}

	const want = 1 + n*perNode + 1 // the split, the payments, the forged one
	for i, f := range nodes {
		for _, p := range payloads {
			f.Prevalidate(p)
		}
		if speculated {
			for deadline := time.Now().Add(10 * time.Second); meters[i].checks.Load() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		before := int64(1)
		if speculated {
			before = want
		}
		if got := meters[i].checks.Load(); got != before {
			t.Fatalf("node %d: %d signature checks before the commit, want %d", i+1, got, before)
		}
		f.Commit(2, 0, decide(2, payloads))
		if got := meters[i].checks.Load(); got != want {
			t.Errorf("node %d: %d signature checks for a chain of %d transactions", i+1, got, want)
		}
		if st := f.Status(); st.TxsApplied != 1+n*perNode || f.Ledger().HasTx(forged.ID()) {
			t.Errorf("node %d: %d transactions applied, forged one applied: %v; want %d and false",
				i+1, st.TxsApplied, f.Ledger().HasTx(forged.ID()), 1+n*perNode)
		}
	}
	for i, f := range nodes[1:] {
		if a, b := nodes[0].Ledger().BlockDigests(), f.Ledger().BlockDigests(); !reflect.DeepEqual(a, b) {
			t.Errorf("node %d block digests %v, node 1's %v", i+2, b, a)
		}
		if a, b := nodes[0].Ledger().Table().Entries(), f.Ledger().Table().Entries(); !reflect.DeepEqual(a, b) {
			t.Errorf("node %d holds %d unspent outputs that differ from node 1's %d", i+2, len(b), len(a))
		}
	}
}
