// Package load is the open-loop workload harness: it drives a simulated
// ZLB cluster with a target-rate arrival schedule (transactions arrive
// when the virtual clock says so, never submit-and-wait) and records
// per-transaction submit-to-commit latency, reported as p50/p99/p999 per
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
// Everything is deterministic for a fixed seed: arrivals are scheduled
// on the simulator's virtual clock, commit timestamps come from the
// observing replica's per-event time, and admission decisions depend
// only on the submission sequence (internal/mempool). A campaign report
// is therefore bit-identical across runs and across GOMAXPROCS — the
// root determinism suite pins the three registered campaigns as goldens.
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

// Stall describes a partition fault armed for the duration of a phase:
// cross-group traffic between the replica groups is delayed by Extra.
type Stall struct {
	Groups [][]zlb.ReplicaID
	Extra  time.Duration
}

// PhaseSpec is one window of the open-loop schedule.
type PhaseSpec struct {
	// Name labels the phase in reports.
	Name string
	// Duration is the phase's length in virtual time.
	Duration time.Duration
	// Rates is the target arrival rate in tx/s per class, indexed like
	// Config.Classes (missing or zero = the class is silent).
	Rates []float64
	// Stall, when non-nil, partitions the cluster for the phase.
	Stall *Stall
}

// Config parameterizes one open-loop run.
type Config struct {
	// Name labels the run.
	Name string
	// N is the committee size.
	N int
	// Seed drives all randomness.
	Seed int64
	// Classes are the account populations.
	Classes []Class
	// Phases is the schedule, executed in order.
	Phases []PhaseSpec
	// Policy is the mempool admission policy (zero = no admission
	// control, the arrival-order baseline).
	Policy mempool.Policy
	// BatchTxs caps transactions per consensus proposal; small values
	// create queueing pressure at modest rates (default 2000, the
	// cluster default).
	BatchTxs int
	// Tick is the arrival quantization grid (default 25ms): arrivals
	// within one tick submit back-to-back at the tick's virtual time.
	Tick time.Duration
	// Drain is extra virtual time after the last phase for in-flight
	// transactions to commit (default 10s).
	Drain time.Duration
	// MaxBlocks bounds the chain length (default 1<<16 — effectively
	// unbounded for campaign-scale runs).
	MaxBlocks uint64
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

// Run executes the schedule against a fresh cluster and reports
// per-phase, per-class latency percentiles.
func Run(cfg Config) (*Report, error) {
	if cfg.Tick == 0 {
		cfg.Tick = 25 * time.Millisecond
	}
	if cfg.Drain == 0 {
		cfg.Drain = 10 * time.Second
	}
	if cfg.MaxBlocks == 0 {
		cfg.MaxBlocks = 1 << 16
	}
	totalAccounts := 0
	for i, cl := range cfg.Classes {
		if cl.Accounts <= 0 {
			return nil, fmt.Errorf("load: class %q has no accounts", cl.Name)
		}
		if cl.Amount == 0 {
			cfg.Classes[i].Amount = 10
		}
		totalAccounts += cl.Accounts
	}
	rec := newRecorder(len(cfg.Phases), len(cfg.Classes))
	cluster, err := zlb.NewCluster(zlb.Config{
		N:                cfg.N,
		Seed:             cfg.Seed,
		WalletCount:      totalAccounts,
		MaxBlocks:        cfg.MaxBlocks,
		Mempool:          cfg.Policy,
		BatchTxs:         cfg.BatchTxs,
		OnCommittedBatch: rec.onCommit,
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	defer cluster.Close()

	// Wallets are handed out class by class, in declaration order.
	accounts := make([][]*account, len(cfg.Classes))
	wi := 0
	for ci, cl := range cfg.Classes {
		accounts[ci] = make([]*account, cl.Accounts)
		for i := range accounts[ci] {
			w, err := cluster.WalletFor(wi)
			if err != nil {
				return nil, err
			}
			accounts[ci][i] = &account{w: w}
			wi++
		}
	}
	cluster.Start()

	sink := sinkAddress()
	var elapsed time.Duration
	advanceTo := func(at time.Duration) {
		if at > cluster.Now() {
			cluster.Run(at - cluster.Now())
		}
	}
	for pi, ph := range cfg.Phases {
		start := elapsed
		end := start + ph.Duration
		if ph.Stall != nil {
			cluster.StallPartition(ph.Stall.Groups, ph.Stall.Extra)
		}
		for _, ev := range phaseArrivals(cfg, ph, start, end) {
			advanceTo(ev.at)
			cl := cfg.Classes[ev.class]
			a := accounts[ev.class][ev.idx%cl.Accounts]
			tx, nextTip, err := buildTx(cluster, a, sink, cl.Amount, cl.Fee)
			if err != nil {
				rec.starved(pi, ev.class)
				continue
			}
			verdict := cluster.Submit(tx)
			rec.submitted(pi, ev.class, tx.ID(), ev.at, verdict)
			if verdict == nil {
				// Only an admitted transaction advances the chain; a
				// rejected one is retried from the same tip (fresh nonce)
				// on the account's next arrival.
				a.tip = nextTip
			}
		}
		advanceTo(end)
		if ph.Stall != nil {
			cluster.ClearPartitionStall()
		}
		elapsed = end
	}
	cluster.RunUntilQuiet(elapsed + cfg.Drain)

	pending, _, evictions := cluster.MempoolStats()
	return rec.report(cfg, cluster.Height(), pending, evictions), nil
}

// phaseArrivals expands one phase's target rates into the deterministic
// arrival sequence: per class, count = floor(rate · duration) arrivals
// spaced 1/rate apart, quantized down to the tick grid, merged across
// classes ordered by (time, class, index).
func phaseArrivals(cfg Config, ph PhaseSpec, start, end time.Duration) []arrival {
	var out []arrival
	for ci := range cfg.Classes {
		if ci >= len(ph.Rates) || ph.Rates[ci] <= 0 {
			continue
		}
		rate := ph.Rates[ci]
		count := int(rate * ph.Duration.Seconds())
		gap := time.Duration(float64(time.Second) / rate)
		for j := 0; j < count; j++ {
			at := start + time.Duration(j)*gap
			at = at / cfg.Tick * cfg.Tick // quantize to the tick grid
			if at >= end {
				at = end - cfg.Tick
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
