package probe

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"github.com/zeroloss/zlb/benchmark/loadgen"
	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bm"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/pipeline"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/store"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
	"github.com/zeroloss/zlb/internal/wire"
)

// Shape is the workload shape a probe reproduces.
type Shape struct {
	Seed int64
	// N is the committee size.
	N int
	// BlockTxs is the number of transactions per block, as the traced
	// cluster run measured it. Above loadgen.Wallets a block contains
	// intra-block spend chains.
	BlockTxs int
	// Disjoint splits a block's transactions over N disjoint proposals
	// (sharded submission). Otherwise every proposal carries the block's
	// transactions, each cut at a slightly different point of the pool as
	// the replicas of a broadcast run do, so the N payloads overlap but
	// are not the same bytes.
	Disjoint bool
	// StoreDir is an empty directory for the store probe.
	StoreDir string
}

// probeTxBudget bounds the transactions one layer probe signs, verifies
// (once per proposal carrying them) and commits, that is its run time.
const probeTxBudget = 3000

func (s Shape) blocks() int {
	return min(max(probeTxBudget/s.BlockTxs, 3), 24)
}

// proposals cuts one block's transactions into the N proposal batches.
func (s Shape) proposals(txs []*utxo.Transaction) [][]*utxo.Transaction {
	out := make([][]*utxo.Transaction, s.N)
	for r := range out {
		if s.Disjoint {
			out[r] = txs[r*len(txs)/s.N : (r+1)*len(txs)/s.N]
		} else {
			out[r] = txs[:max(1, len(txs)-r)]
		}
	}
	return out
}

// frame mirrors the transport's gob envelope.
type frame struct {
	From types.ReplicaID
	Msg  any
}

// gobLink is one direction of a peer connection: an encoder and a
// decoder sharing a stream, so type descriptors travel once, as on a
// long-lived connection.
type gobLink struct {
	buf bytes.Buffer
	enc *gob.Encoder
	dec *gob.Decoder
}

func newGobLink() *gobLink {
	l := &gobLink{}
	l.enc = gob.NewEncoder(&l.buf)
	l.dec = gob.NewDecoder(&l.buf)
	return l
}

// Layers times the public functions of the packages on a block's path —
// pool, batch codec, frame codec, speculative verification, ledger
// commit, store — for Shape.blocks() blocks, and returns the per-layer
// metrics (medians over blocks) by name. Every call is a span under its
// block's root span.
func Layers(rec *Recorder, s Shape) (map[string]float64, error) {
	transport.RegisterWireTypes()
	nBlocks := s.blocks()
	plan, err := loadgen.NewPlan(s.Seed, nBlocks*s.BlockTxs, 1)
	if err != nil {
		return nil, err
	}
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, s.N, s.Seed)
	if err != nil {
		return nil, err
	}
	scheme := plan.Scheme()
	ledger := bm.NewLedger(scheme)
	ledger.Genesis(plan.Genesis())
	ledger.SetParallel(pipeline.Shared())
	if ledger.CommitBlock(bm.NewBlock(0, []*utxo.Transaction{plan.Setup})) != 1 {
		return nil, fmt.Errorf("probe: fan-out transaction did not apply")
	}
	st, err := store.Open(s.StoreDir, store.Options{CheckpointEvery: 16, Fsync: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	pool := mempool.New()
	cache := wire.NewBatchCache(0)
	txv := pipeline.NewTxVerifier(pipeline.Shared(), scheme)
	link := newGobLink()

	samples := make(map[string][]float64)
	micros := func(name string, d time.Duration, per int) {
		samples[name] = append(samples[name], float64(d)/float64(time.Microsecond)/float64(per))
	}
	millis := func(name string, d time.Duration) {
		samples[name] = append(samples[name], float64(d)/float64(time.Millisecond))
	}
	var failed error
	fail := func(err error) {
		if failed == nil && err != nil {
			failed = err
		}
	}

	for b := 1; b <= nBlocks && failed == nil; b++ {
		txs := plan.Txs[(b-1)*s.BlockTxs : b*s.BlockTxs]
		root := rec.Begin("block", NoParent, b)

		// One statement signed, verified, and certified by a 2t+1 quorum.
		stmt := accountability.Statement{Context: accountability.CtxMain, Kind: accountability.KindEcho,
			Instance: types.Instance(b), Slot: 1, Value: types.Hash([]byte{byte(b)})}
		var signed accountability.Signed
		micros("crypto.sign_us", rec.Time("crypto.sign", root, b, func() {
			signed, err = accountability.SignStatement(signers[0], stmt)
			fail(err)
		}), 1)
		micros("crypto.verify_us", rec.Time("crypto.verify", root, b, func() {
			if !signed.Verify(signers[1]) {
				fail(fmt.Errorf("probe: statement signature rejected"))
			}
		}), 1)
		quorum := []accountability.Signed{signed}
		for _, sg := range signers[1:types.Quorum(s.N)] {
			q, err := accountability.SignStatement(sg, stmt)
			fail(err)
			quorum = append(quorum, q)
		}
		cert, err := accountability.NewCertificate(stmt, quorum)
		fail(err)
		if failed != nil {
			break
		}
		micros("accountability.cert_verify_us", rec.Time("accountability.cert_verify", root, b, func() {
			fail(cert.Verify(signers[1], s.N, nil))
		}), 1)

		micros("mempool.add_us", rec.Time("mempool.add", root, b, func() {
			for _, tx := range txs {
				fail(pool.Add(tx))
			}
		}), len(txs))
		micros("mempool.take_us", rec.Time("mempool.take", root, b, func() {
			if got := pool.Take(2000); len(got) != len(txs) {
				fail(fmt.Errorf("probe: pool returned %d of %d transactions", len(got), len(txs)))
			}
		}), 1)

		// The proposals' way over the wire: batch codec inside, gob frame
		// outside, one INIT per proposal and one ECHO round trip.
		props := s.proposals(txs)
		payloads := make([][]byte, len(props))
		var encode, frameEnc, frameDec, decode time.Duration
		for r, batch := range props {
			encode += rec.Time("wire.encode_batch", root, b, func() {
				payloads[r], err = wire.EncodeBatch(batch)
				fail(err)
			})
			init := &rbc.Init{Stmt: signed, Payload: payloads[r], ClaimedSigs: len(batch)}
			frameEnc += rec.Time("transport.frame_encode", root, b, func() {
				fail(link.enc.Encode(frame{From: 1, Msg: init}))
			})
			var got frame
			frameDec += rec.Time("transport.frame_decode", root, b, func() {
				fail(link.dec.Decode(&got))
			})
			decode += rec.Time("wire.decode_batch", root, b, func() {
				_, err := wire.DecodeBatch(payloads[r])
				fail(err)
			})
		}
		micros("wire.encode_batch_us", encode, len(props))
		micros("transport.frame_encode_us", frameEnc, len(props))
		micros("transport.frame_decode_us", frameDec, len(props))
		micros("wire.decode_batch_us", decode, len(props))
		micros("transport.vote_frame_us", rec.Time("transport.vote_frame", root, b, func() {
			var got frame
			fail(link.enc.Encode(frame{From: 1, Msg: &rbc.Echo{Stmt: signed}}))
			fail(link.dec.Decode(&got))
		}), 1)

		// Speculative verification of every delivered proposal, then the
		// block assembled as the node's blockFrom does and committed.
		var block *bm.Block
		micros("pipeline.speculate_us_per_tx", rec.Time("pipeline.speculate", root, b, func() {
			for _, p := range payloads {
				txv.SpeculateBatch(p, cache)
			}
			var union []*utxo.Transaction
			seen := make(map[types.Digest]bool, len(txs))
			for _, p := range payloads {
				decoded, err := cache.Decode(p)
				fail(err)
				for _, tx := range decoded {
					fail(tx.VerifySig(scheme)) // joins the speculation: waits for its verdict
					if id := tx.ID(); !seen[id] {
						seen[id] = true
						union = append(union, tx)
					}
				}
			}
			block = bm.NewBlock(uint64(b), union)
		}), len(txs))
		micros("bm.commit_us_per_tx", rec.Time("bm.commit", root, b, func() {
			if applied := ledger.CommitBlock(block); applied != len(txs) {
				fail(fmt.Errorf("probe: block %d applied %d of %d transactions", b, applied, len(txs)))
			}
		}), len(txs))
		millis("store.append_flush_ms", rec.Time("store.append_flush", root, b, func() {
			fail(st.AppendBlock(block, 0))
			fail(st.Flush())
		}))
		if st.ShouldCheckpoint() || b == nBlocks {
			millis("store.checkpoint_ms", rec.Time("store.checkpoint", root, b, func() {
				fail(st.WriteCheckpoint(ledger.CheckpointState()))
			}))
		}
		micros("mempool.prune_us", rec.Time("mempool.prune", root, b, func() {
			pool.Prune(block.Txs)
		}), 1)
		rec.End(root)
	}
	if failed != nil {
		return nil, failed
	}
	out := make(map[string]float64, len(samples))
	for name, v := range samples {
		sort.Float64s(v)
		out[name] = v[len(v)/2]
	}
	return out, nil
}
