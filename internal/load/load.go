// Package load is the open-loop payment workload: a target-rate arrival
// schedule submitted to a simulated ZLB payment cluster (transactions
// arrive when the virtual clock says so, never submit-and-wait), with
// per-transaction submit-to-commit latency reported as p50/p99/p999 per
// phase and class.
//
// Closed-loop benchmarks (internal/bench's Fig. 3 driver) measure
// throughput but hide queueing: a saturated ingress path simply makes
// the loop slower. The open-loop generator keeps offering transactions
// at the configured rate whether or not the system keeps up, which is
// what exposes mempool admission policy — bounded honest-tail latency
// under a Sybil flood, fee-market priority under squeeze, bounded memory
// during a partition.
//
// A Workload rides on a scenario (internal/scenario): scenario.Run, the
// simulator's one campaign loop, builds the payment cluster through a
// Driver, arms the scenario's faults on it and hands each phase's window
// to Driver.Phase. The campaigns are scenario registrations.
//
// Everything is deterministic for a fixed seed: arrivals are scheduled
// on the simulator's virtual clock, commit timestamps come from the
// observing replica's per-event time, and admission decisions depend
// only on the submission sequence (internal/mempool). A report is
// therefore bit-identical across runs and across GOMAXPROCS — the root
// determinism suite pins the registered campaigns as goldens.
package load

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/mempool"
	"github.com/zeroloss/zlb/internal/types"
)

// Tick is the arrival quantization grid: arrivals within one tick
// submit back-to-back at the tick's virtual time.
const Tick = 25 * time.Millisecond

// Class describes one population of accounts sharing a fee level: the
// honest users, the Sybil spammers, the priority payers of a campaign.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Accounts is the number of pre-funded wallets driving this class;
	// arrivals round-robin across them.
	Accounts int
	// Fee is offered per transaction (inputs minus outputs).
	Fee zlb.Amount
	// Amount is the value transferred per transaction (default 10).
	Amount zlb.Amount
}

// amount is the value a class transfers per transaction, its default
// resolved.
func (cl Class) amount() zlb.Amount {
	if cl.Amount == 0 {
		return 10
	}
	return cl.Amount
}

// Workload is an open-loop payment schedule: account classes offering
// transactions at per-phase target rates into pools that all enforce one
// admission policy.
type Workload struct {
	// Classes are the account populations.
	Classes []Class
	// Rates[p][c] is class c's target arrival rate in tx/s during the
	// scenario's phase p (missing or zero = the class is silent).
	Rates [][]float64
	// Policy is the mempool admission policy (zero = no admission
	// control, the arrival-order baseline).
	Policy mempool.Policy
	// BatchTxs caps transactions per consensus proposal; small values
	// create queueing pressure at modest rates (default 2000, the
	// cluster default).
	BatchTxs int
}

// arrival is one scheduled submission.
type arrival struct {
	at    time.Duration
	class int
	idx   int // per-(phase, class) arrival index; account = idx % Accounts
}

// account is one client wallet's transaction chain: after the first
// ledger-backed payment, each transaction spends the previous one's
// change, so an account can keep submitting without waiting for commits.
type account struct {
	w   *zlb.Wallet
	tip []zlb.Input // change of the last admitted tx; nil = use the ledger
}

// sinkAddress is where every generated payment sends its value — a
// fixed address derived from a label, never a wallet.
func sinkAddress() zlb.Address {
	return zlb.Address(types.Hash([]byte("internal/load payment sink")))
}

// Driver submits a workload's arrivals to the payment cluster it built
// and records what becomes of each one.
type Driver struct {
	// Cluster is the payment cluster the workload runs on.
	Cluster *zlb.Cluster

	w        Workload
	phases   []string
	n        int
	seed     int64
	accounts [][]*account
	rec      *recorder
}

// NewDriver builds the payment cluster a workload runs on, for a
// scenario with the named phases. cfg gives the committee size, seed,
// chain bound and tracer; the driver adds one pre-funded wallet per
// account, the workload's admission policy and batch size, and its
// commit probe. The cluster is built but not started.
func NewDriver(w Workload, phases []string, cfg zlb.Config) (*Driver, error) {
	wallets := 0
	for _, cl := range w.Classes {
		if cl.Accounts <= 0 {
			return nil, fmt.Errorf("load: class %q has no accounts", cl.Name)
		}
		wallets += cl.Accounts
	}
	d := &Driver{w: w, phases: phases, n: cfg.N, seed: cfg.Seed, rec: newRecorder(len(phases), len(w.Classes))}
	cfg.WalletCount = wallets
	cfg.Mempool = w.Policy
	cfg.BatchTxs = w.BatchTxs
	cfg.OnCommittedBatch = d.rec.onCommit
	cluster, err := zlb.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	// Wallets are handed out class by class, in declaration order.
	d.accounts = make([][]*account, len(w.Classes))
	wi := 0
	for ci, cl := range w.Classes {
		d.accounts[ci] = make([]*account, cl.Accounts)
		for i := range d.accounts[ci] {
			wallet, err := cluster.WalletFor(wi)
			if err != nil {
				return nil, err
			}
			d.accounts[ci][i] = &account{w: wallet}
			wi++
		}
	}
	d.Cluster = cluster
	return d, nil
}

// Phase submits phase p's arrivals, which fall in [start, end) of
// virtual time: the cluster runs up to each arrival's time before the
// arrival is submitted. Running on to end is the caller's.
func (d *Driver) Phase(p int, start, end time.Duration) {
	c := d.Cluster
	sink := sinkAddress()
	for _, ev := range d.arrivals(p, start, end) {
		if ev.at > c.Now() {
			c.Run(ev.at - c.Now())
		}
		cl := d.w.Classes[ev.class]
		a := d.accounts[ev.class][ev.idx%cl.Accounts]
		tx, nextTip, err := buildTx(c, a, sink, cl.amount(), cl.Fee)
		if err != nil {
			d.rec.starved(p, ev.class)
			continue
		}
		verdict := c.Submit(tx)
		d.rec.submitted(p, ev.class, tx.ID(), ev.at, verdict)
		if verdict == nil {
			// Only an admitted transaction advances the chain; a
			// rejected one is retried from the same tip (fresh nonce)
			// on the account's next arrival.
			a.tip = nextTip
		}
	}
}

// arrivals expands phase p's target rates into the deterministic arrival
// sequence: per class, count = floor(rate · duration) arrivals spaced
// 1/rate apart, quantized down to the tick grid, merged across classes
// ordered by (time, class, index).
func (d *Driver) arrivals(p int, start, end time.Duration) []arrival {
	if p >= len(d.w.Rates) {
		return nil
	}
	rates := d.w.Rates[p]
	var out []arrival
	for ci := range d.w.Classes {
		if ci >= len(rates) || rates[ci] <= 0 {
			continue
		}
		rate := rates[ci]
		count := int(rate * (end - start).Seconds())
		gap := time.Duration(float64(time.Second) / rate)
		for j := 0; j < count; j++ {
			at := start + time.Duration(j)*gap
			at = at / Tick * Tick // quantize to the tick grid
			if at >= end {
				at = end - Tick
			}
			if at < start {
				at = start
			}
			out = append(out, arrival{at: at, class: ci, idx: j})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		if out[i].class != out[j].class {
			return out[i].class < out[j].class
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// buildTx creates the account's next chained payment: the first spends
// the wallet's ledger-backed funds, every later one spends the previous
// admitted transaction's change. It returns the transaction and the
// change inputs that become the account's tip if the submission is
// admitted. An exhausted account (no change left, nothing spendable)
// returns an error and the arrival is counted as starved.
func buildTx(cluster *zlb.Cluster, a *account, sink zlb.Address, amount, fee zlb.Amount) (*zlb.Transaction, []zlb.Input, error) {
	if a.tip == nil {
		tx, err := cluster.PayWithFee(a.w, sink, amount, fee)
		if err != nil {
			return nil, nil, err
		}
		return tx, changeInputs(tx, a.w.Address()), nil
	}
	tx, err := a.w.PayWithFee(a.tip, []zlb.Output{{Account: sink, Value: amount}}, fee)
	if err != nil {
		return nil, nil, err
	}
	return tx, changeInputs(tx, a.w.Address()), nil
}

// changeInputs collects the outputs tx returns to addr, as spendable
// inputs for the account's next transaction.
func changeInputs(tx *zlb.Transaction, addr zlb.Address) []zlb.Input {
	var ins []zlb.Input
	for i, out := range tx.Outputs {
		if out.Account == addr {
			ins = append(ins, zlb.Input{
				Prev:  zlb.Outpoint{TxID: tx.ID(), Index: uint32(i)},
				Value: out.Value,
			})
		}
	}
	return ins
}

// rejectReason buckets a Submit verdict into a fixed report column.
func rejectReason(err error) string {
	switch {
	case errors.Is(err, mempool.ErrDuplicate):
		return "dup"
	case errors.Is(err, mempool.ErrCommitted):
		return "committed"
	case errors.Is(err, mempool.ErrFeeTooLow):
		return "fee"
	case errors.Is(err, mempool.ErrRateLimited):
		return "rate"
	case errors.Is(err, mempool.ErrAccountCap):
		return "cap"
	case errors.Is(err, mempool.ErrPoolFull):
		return "full"
	case errors.Is(err, mempool.ErrReplaceUnderpriced):
		return "replace"
	default:
		return "other"
	}
}
