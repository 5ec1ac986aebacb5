// Package pipeline is the multi-core commit pipeline: a bounded worker
// pool plus the verification stages that run on it. The discrete-event
// simulator and the TCP node both process protocol events on a single
// goroutine; what is CPU-heavy on the commit path — transaction signature
// checks and batch decoding — is a pure function of the message bytes and
// the PKI, so it can be fanned out across cores (and speculatively started
// before consensus decides) without changing a single protocol decision.
// Applying a block to the UTXO table is not: it is ordered, cheap (a few
// microseconds a transaction against tens for a signature) and stays on
// the event loop (internal/bm). Protocol signatures — statements and
// certificates — are not checked here: each replica's accountability log
// is its one set of verified statements.
//
// Determinism contract: the pipeline never touches event ordering or the
// virtual clock. Workers only compute verdicts that are pure functions of
// their inputs, fan-in order is by task index, and every cached verdict
// is exactly what the sequential code would have computed. Forcing
// sequential mode (zlb.Config.SequentialCommit: a nil TxVerifier)
// executes the same code inline and must produce bit-identical results —
// the determinism tests pin this.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. A nil *Pool is valid and executes
// everything inline on the caller (sequential mode).
type Pool struct {
	workers int
	tasks   chan func()
}

// NewPool starts a pool with the given number of workers; workers <= 0
// sizes it to runtime.GOMAXPROCS(0). The workers live for the life of the
// process — use Shared instead of creating pools per cluster.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan func(), 4*workers),
	}
	for i := 0; i < workers; i++ {
		go func() {
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, created on first use with
// GOMAXPROCS workers. Every cluster shares it: worker goroutines are a
// process resource, while verdict caches (Verifier, TxVerifier) stay
// per-cluster.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(0) })
	return sharedPool
}

// TryDo submits fn for asynchronous execution. It reports false — and
// does not run fn — when the pool is nil (sequential mode) or saturated:
// speculative work is dropped rather than blocking the event loop, and
// the verdict is simply computed on demand later.
func (p *Pool) TryDo(fn func()) bool {
	if p == nil {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// Map runs fn(0..n-1) and returns when all calls completed. Work is
// claimed from a shared atomic index, the caller participates (so Map
// never deadlocks on a saturated pool), and fan-in is deterministic: Map
// returns only after every index ran, so callers reduce results by index
// regardless of which worker produced them. A nil pool runs inline in
// index order.
//
// Completion is tracked per index, not per helper task: the caller waits
// only until every fn call has finished, never for a queued helper to be
// scheduled. Map is therefore safe to call from pool workers themselves
// (the parallel simulator runs event handlers on the pool, and those
// handlers fan out nested verification Maps): a helper task that never
// runs — because every worker is busy inside such a nested Map — can no
// longer deadlock the fan-in, since whoever finishes the last index
// releases the waiter, and in-progress indices are by definition owned
// by live goroutines.
func (p *Pool) Map(n int, fn func(int)) {
	if p == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next, completed atomic.Int64
	done := make(chan struct{})
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
			if completed.Add(1) == int64(n) {
				close(done)
			}
		}
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	submitted := 0
	for submitted < helpers {
		select {
		case p.tasks <- run:
			submitted++
			continue
		default:
		}
		break // pool saturated; the caller and prior helpers drain the rest
	}
	run()
	<-done
}
