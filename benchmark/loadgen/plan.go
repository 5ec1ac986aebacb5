// Package loadgen is the benchmark's traffic generator: it derives the
// payer wallets and the whole pre-signed run from the seed, submits it
// over the node's real client protocol (gob SubmitTx envelopes, acks
// read), observes commits by polling one replica's /status, and turns
// those count observations into per-transaction commit latencies.
package loadgen

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

const (
	// Wallets is the number of payer wallets. Wallet w signs transaction
	// i when i%Wallets == w and spends its own previous change, so a
	// block of more than Wallets transactions contains intra-block spend
	// chains and a smaller one does not.
	Wallets = 256
	// walletFunds is what the fan-out transaction gives each wallet; a
	// payment moves one coin, so it bounds a wallet to that many payments.
	walletFunds = 3_000_000
	// faucetFunds and the faucet key derivation mirror cmd/zlb-node's
	// demo genesis (seedGenesis, and the key cmd/zlb-client also derives).
	faucetFunds   = 1_000_000_000
	faucetKeySalt = 0xFA0CE7
)

// payer is one wallet and the unspent output it will spend next.
type payer struct {
	w    *utxo.Wallet
	next utxo.Input
}

// pay signs the wallet's next 240-byte payment: one input, one coin to
// the recipient, the change back to the wallet.
func (p *payer) pay(to utxo.Address) (*utxo.Transaction, error) {
	tx, err := p.w.Pay([]utxo.Input{p.next}, []utxo.Output{{Account: to, Value: 1}})
	if err != nil {
		return nil, err
	}
	change := uint32(len(tx.Outputs) - 1)
	p.next = utxo.Input{Prev: utxo.Outpoint{TxID: tx.ID(), Index: change}, Value: tx.Outputs[change].Value}
	return tx, nil
}

// Plan is one run's inputs, a pure function of the seed and the count.
type Plan struct {
	// Setup is the faucet fan-out transaction funding every wallet; it is
	// submitted and applied before any traffic.
	Setup *utxo.Transaction
	// Txs is the pre-signed traffic in submission order. Tx extends it when
	// a run outlasts it.
	Txs []*utxo.Transaction
	// Due is each transaction's send time as an offset from the start of
	// traffic for an open-loop run (see Poisson); nil for closed loop.
	Due []time.Duration

	scheme    crypto.Scheme
	payers    []payer // the Wallets payers, then the spare one that funds fillers
	faucet    utxo.Address
	recipient utxo.Address
}

// Scheme is the transaction signature scheme of the plan (and of the
// nodes): ed25519.
func (p *Plan) Scheme() crypto.Scheme { return p.scheme }

// Genesis returns the demo genesis allocation the nodes boot with.
func (p *Plan) Genesis() map[utxo.Address]types.Amount {
	return map[utxo.Address]types.Amount{p.faucet: faucetFunds}
}

// Recipient is the account every payment pays one coin to, so its
// balance counts the payments a ledger has applied.
func (p *Plan) Recipient() utxo.Address { return p.recipient }

// NewPlan derives the wallets from seed and signs count payments.
// Signing is spread over the given number of goroutines; the result does
// not depend on it.
func NewPlan(seed int64, count int, workers int) (*Plan, error) {
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, crypto.NewRegistry(crypto.SchemeEd25519))
	if err != nil {
		return nil, err
	}
	wallet := func(keySeed int64) (*utxo.Wallet, error) {
		kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(keySeed))
		if err != nil {
			return nil, err
		}
		return utxo.NewWallet(kp, scheme), nil
	}
	faucet, err := wallet(seed ^ faucetKeySalt)
	if err != nil {
		return nil, err
	}
	// Wallet keys live in a seed-dependent range well away from the
	// faucet's and the node PKI's (which is drawn from seed itself).
	base := seed*1_000_003 + 7_000_000
	payers := make([]payer, Wallets+1)
	outs := make([]utxo.Output, len(payers))
	for i := range payers {
		if payers[i].w, err = wallet(base + int64(i)); err != nil {
			return nil, err
		}
		outs[i] = utxo.Output{Account: payers[i].w.Address(), Value: walletFunds}
	}
	recipient, err := wallet(base - 1)
	if err != nil {
		return nil, err
	}
	genesis := utxo.Input{Prev: utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: 0}, Value: faucetFunds}
	setup, err := faucet.Pay([]utxo.Input{genesis}, outs)
	if err != nil {
		return nil, fmt.Errorf("signing fan-out: %w", err)
	}
	for i := range payers {
		payers[i].next = utxo.Input{Prev: utxo.Outpoint{TxID: setup.ID(), Index: uint32(i)}, Value: walletFunds}
	}

	p := &Plan{
		Setup:     setup,
		Txs:       make([]*utxo.Transaction, count),
		scheme:    scheme,
		payers:    payers,
		faucet:    faucet.Address(),
		recipient: recipient.Address(),
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutine g owns wallets g, g+workers, ...; wallet w signs
			// transactions w, w+Wallets, ... in order.
			for w := g; w < Wallets; w += workers {
				for i := w; i < count; i += Wallets {
					tx, err := payers[w].pay(p.recipient)
					if err != nil {
						errs[g] = fmt.Errorf("signing tx %d: %w", i, err)
						return
					}
					p.Txs[i] = tx
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Poisson draws the arrival times, as offsets from the start of traffic,
// of a Poisson process of the given rate (per second) up to the horizon.
func Poisson(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= horizon {
			return due
		}
		due = append(due, at)
	}
}

// Tx returns transaction i of the traffic. Past the pre-signed part it
// signs on the spot, which only works in submission order: a closed-loop
// run on a cluster faster than the plan was sized for keeps going at the
// cost of signing inside the measured window.
func (p *Plan) Tx(i int) (*utxo.Transaction, error) {
	if i < len(p.Txs) {
		return p.Txs[i], nil
	}
	if i > len(p.Txs) {
		return nil, fmt.Errorf("loadgen: transaction %d requested before %d", i, len(p.Txs))
	}
	tx, err := p.payers[i%Wallets].pay(p.recipient)
	if err != nil {
		return nil, fmt.Errorf("signing tx %d: %w", i, err)
	}
	p.Txs = append(p.Txs, tx)
	return tx, nil
}

// Filler signs the spare wallet's next payment. The drain of a sharded
// run broadcasts these so that every replica has something to propose.
func (p *Plan) Filler() (*utxo.Transaction, error) {
	return p.payers[Wallets].pay(p.recipient)
}
