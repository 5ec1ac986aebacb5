package pipeline

import (
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/wire"
)

// TxVerifier speculatively verifies transaction signatures on the worker
// pool, ahead of the block commit that needs them. Verdicts are published
// through each transaction's atomic signature-verdict slot
// (utxo.(*Transaction).VerifySig), so by the time consensus decides a
// batch, committing it re-checks nothing: the deterministic outcome was
// computed while the protocol was still voting.
//
// One TxVerifier serves one deployment and one signature scheme; a
// transaction object must only ever be verified under that scheme (the
// verdict is memoized on the transaction).
type TxVerifier struct {
	pool   *Pool
	scheme crypto.Scheme
}

// NewTxVerifier creates a TxVerifier that speculates on pool.
func NewTxVerifier(pool *Pool, scheme crypto.Scheme) *TxVerifier {
	return &TxVerifier{pool: pool, scheme: scheme}
}

// SpeculateBatch decodes a proposal payload through the shared batch
// cache and pre-verifies its transactions, entirely off the event loop.
// Call it when a proposal is delivered by the reliable broadcast — while
// the binary consensus is still deciding whether the batch commits. The
// payload must be immutable (consensus payloads are); decode errors are
// ignored here and resurface, deterministically, wherever the payload is
// decoded for real. A saturated pool drops the work (TryDo): the commit
// checks whatever is left.
func (t *TxVerifier) SpeculateBatch(payload []byte, cache *wire.BatchCache) {
	t.pool.TryDo(func() {
		txs, err := cache.Decode(payload)
		if err != nil {
			return
		}
		for _, tx := range txs {
			_ = tx.VerifySig(t.scheme)
		}
	})
}
