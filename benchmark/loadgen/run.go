package loadgen

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

const (
	// pollEvery is the /status polling period; an observed commit time is
	// late by up to this much.
	pollEvery = 5 * time.Millisecond
	// fillerEvery paces the filler payments of a sharded drain.
	fillerEvery = 100 * time.Millisecond
	// ackGrace is how long Run waits, after the drain, for acks still on
	// the wire.
	ackGrace = 2 * time.Second
)

// Config describes one run of traffic.
type Config struct {
	// Addrs are the replicas' listen addresses in ID order; the generator
	// keeps one connection to each.
	Addrs []string
	// Applied reads the observed replica's txs_applied counter.
	Applied func(context.Context) (uint64, error)
	Plan    *Plan
	// Shard sends transaction i to replica i%n only (wallet w therefore
	// always reaches the same replica); otherwise every transaction is
	// broadcast to all replicas, as cmd/zlb-client does.
	Shard bool
	// InFlight > 0 selects a closed loop that keeps that many transactions
	// submitted but not yet observed committed; 0 selects the open loop
	// that follows Plan.Due.
	InFlight int
	// Base is the observed replica's txs_applied before any traffic.
	Base uint64
	// Start is the instant traffic begins; every time in the Result is an
	// offset from it. SendFor is how long transactions are submitted.
	Start   time.Time
	SendFor time.Duration
	// DrainFor bounds the wait for the submitted transactions to commit.
	DrainFor time.Duration
}

// Poll is one observation of the txs_applied counter.
type Poll struct {
	At      time.Duration
	Applied uint64
}

// Result is what one run observed.
type Result struct {
	// Submitted is the number of plan transactions sent, in plan order.
	Submitted int
	// SentAt is, per submitted transaction, the instant latency is timed
	// from: when the send was due (open loop) or made (closed loop).
	SentAt []time.Duration
	// Lag is, per submitted transaction of an open-loop run, how late the
	// generator made the send.
	Lag []time.Duration
	// Lost marks transactions every target replica refused.
	Lost []bool
	// Refused counts submits answered with a refusal ack.
	Refused int
	// Fillers is the number of filler payments the drain broadcast.
	Fillers int
	// Unapplied is how many submitted transactions (fillers included) the
	// observed replica had not applied when the drain ended.
	Unapplied int
	// Polls are the changes of the observed counter, in time order.
	Polls []Poll
	// SignedLate counts transactions of a closed-loop run signed inside the
	// run because the pre-signed plan ran out.
	SignedLate int
}

// clientEnvelope mirrors the node's wire frame, as cmd/zlb-client does;
// clients send as replica 0.
type clientEnvelope struct {
	From types.ReplicaID
	Msg  any
}

// conn is one client connection. The sender goroutine owns w, enc and
// sent; the connection's ack reader owns dec and refused.
type conn struct {
	c       net.Conn
	w       *bufio.Writer
	enc     *gob.Encoder
	dec     *gob.Decoder
	sent    int
	acked   atomic.Int64
	refused []int // ordinals, on this connection, of refused submits
}

func (c *conn) submit(tx *utxo.Transaction) error {
	c.sent++
	return c.enc.Encode(clientEnvelope{Msg: &transport.SubmitTx{Tx: tx}})
}

// readAcks consumes the node's SubmitAck stream until the connection
// closes. Acks arrive in submit order.
func (c *conn) readAcks() error {
	for {
		var env clientEnvelope
		if err := c.dec.Decode(&env); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("reading acks from %s: %w", c.c.RemoteAddr(), err)
		}
		ack, ok := env.Msg.(*transport.SubmitAck)
		if !ok {
			return fmt.Errorf("reading acks from %s: unexpected %T", c.c.RemoteAddr(), env.Msg)
		}
		if !ack.OK {
			c.refused = append(c.refused, int(c.acked.Load()))
		}
		c.acked.Add(1)
	}
}

// run is the state the sender, the poller and the ack readers share.
type run struct {
	cfg     Config
	conns   []*conn
	applied atomic.Uint64
	// progress wakes the sender when applied has advanced. One slot: a
	// pending wake-up already covers any number of further advances.
	progress chan struct{}
	polls    []Poll // owned by the poller until it has exited
}

// Run submits the plan and observes its commits. It starts one ack
// reader per connection and one poller, and returns after all of them
// have exited.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	transport.RegisterWireTypes()
	r := &run{cfg: cfg, progress: make(chan struct{}, 1)}
	r.applied.Store(cfg.Base)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, len(cfg.Addrs)+1) // one slot per goroutine started below
	closeConns := func() {
		for _, c := range r.conns {
			c.c.Close()
		}
	}
	for _, addr := range cfg.Addrs {
		nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			closeConns()
			return nil, fmt.Errorf("dialing replica: %w", err)
		}
		w := bufio.NewWriterSize(nc, 64<<10)
		r.conns = append(r.conns, &conn{c: nc, w: w, enc: gob.NewEncoder(w), dec: gob.NewDecoder(nc)})
	}
	for _, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.readAcks(); err != nil {
				errc <- err
				cancel()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := r.poll(ctx); err != nil {
			errc <- err
			cancel()
		}
	}()

	res, err := r.send(ctx)
	if err == nil {
		err = r.drain(ctx, res)
	}
	if err == nil {
		err = r.awaitAcks(ctx)
	}
	cancel()
	closeConns()
	wg.Wait()
	select {
	case gerr := <-errc: // a goroutine's failure is the cause; ours is the symptom
		return nil, gerr
	default:
	}
	if err != nil {
		return nil, err
	}
	res.Polls = r.polls
	res.Lost = make([]bool, res.Submitted)
	refused := make([]map[int]bool, len(r.conns))
	for i, c := range r.conns {
		res.Refused += len(c.refused)
		refused[i] = make(map[int]bool, len(c.refused))
		for _, ord := range c.refused {
			refused[i][ord] = true
		}
	}
	if res.Refused > 0 {
		n := len(r.conns)
		for i := range res.Lost {
			if cfg.Shard {
				res.Lost[i] = refused[i%n][i/n]
				continue
			}
			res.Lost[i] = true
			for c := range r.conns {
				res.Lost[i] = res.Lost[i] && refused[c][i]
			}
		}
	}
	return res, nil
}

// poll samples the observed counter until ctx ends.
func (r *run) poll(ctx context.Context) error {
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		n, err := r.cfg.Applied(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("polling txs_applied: %w", err)
		}
		if n != r.applied.Load() {
			r.polls = append(r.polls, Poll{At: time.Since(r.cfg.Start), Applied: n})
			r.applied.Store(n)
			select {
			case r.progress <- struct{}{}:
			default:
			}
		}
	}
}

// wait blocks until progress is signalled, d has passed or ctx ends.
func (r *run) wait(ctx context.Context, t *time.Timer, d time.Duration) error {
	t.Reset(d)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-r.progress:
	case <-t.C:
	}
	return nil
}

func (r *run) flush() error {
	for _, c := range r.conns {
		if c.w.Buffered() > 0 {
			if err := c.w.Flush(); err != nil {
				return fmt.Errorf("submitting to %s: %w", c.c.RemoteAddr(), err)
			}
		}
	}
	return nil
}

// submit sends plan transaction i to its target replicas.
func (r *run) submit(i int, tx *utxo.Transaction) error {
	if r.cfg.Shard {
		return r.conns[i%len(r.conns)].submit(tx)
	}
	return r.broadcast(tx)
}

func (r *run) broadcast(tx *utxo.Transaction) error {
	for _, c := range r.conns {
		if err := c.submit(tx); err != nil {
			return err
		}
	}
	return nil
}

// send is the single sender: it submits plan transactions, on schedule
// or as the in-flight window allows, until SendFor has elapsed.
func (r *run) send(ctx context.Context) (*Result, error) {
	cfg, txs := r.cfg, r.cfg.Plan.Txs
	presigned := len(txs)
	res := &Result{SentAt: make([]time.Duration, 0, presigned)}
	timer := time.NewTimer(time.Hour) // re-armed by every sleep and wait
	defer timer.Stop()
	if d := time.Until(cfg.Start); d > 0 {
		if err := r.sleep(ctx, timer, d); err != nil {
			return nil, err
		}
	}
	next := 0
	if cfg.InFlight == 0 {
		res.Lag = make([]time.Duration, 0, len(txs))
		for ; next < len(txs) && cfg.Plan.Due[next] < cfg.SendFor; next++ {
			due := cfg.Plan.Due[next]
			now := time.Since(cfg.Start)
			if due > now {
				if err := r.flush(); err != nil {
					return nil, err
				}
				if err := r.sleep(ctx, timer, due-now); err != nil {
					return nil, err
				}
				now = time.Since(cfg.Start)
			}
			if err := r.submit(next, txs[next]); err != nil {
				return nil, err
			}
			res.SentAt = append(res.SentAt, due)
			res.Lag = append(res.Lag, now-due)
		}
	} else {
		for {
			now := time.Since(cfg.Start)
			if now >= cfg.SendFor {
				break
			}
			if uint64(next)-(r.applied.Load()-cfg.Base) >= uint64(cfg.InFlight) {
				if err := r.flush(); err != nil {
					return nil, err
				}
				if err := r.wait(ctx, timer, time.Millisecond); err != nil {
					return nil, err
				}
				continue
			}
			tx, err := cfg.Plan.Tx(next)
			if err != nil {
				return nil, err
			}
			if err := r.submit(next, tx); err != nil {
				return nil, err
			}
			res.SentAt = append(res.SentAt, now)
			next++
		}
		res.SignedLate = max(0, next-presigned)
	}
	res.Submitted = next
	return res, r.flush()
}

func (r *run) sleep(ctx context.Context, t *time.Timer, d time.Duration) error {
	t.Reset(d)
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// drain waits until the observed replica has applied everything
// submitted. A sharded run also broadcasts filler payments while it
// waits: a replica with an empty pool does not propose and a superblock
// needs n-t proposals, so the tail of a sharded run never commits on its
// own.
func (r *run) drain(ctx context.Context, res *Result) error {
	timer := time.NewTimer(time.Hour) // re-armed by every sleep and wait
	defer timer.Stop()
	deadline := time.Now().Add(r.cfg.DrainFor)
	lastFiller := time.Now()
	for {
		target := r.cfg.Base + uint64(res.Submitted+res.Fillers)
		applied := r.applied.Load()
		if applied >= target {
			res.Unapplied = 0
			return nil
		}
		res.Unapplied = int(target - applied)
		if time.Now().After(deadline) {
			return nil
		}
		if r.cfg.Shard && time.Since(lastFiller) >= fillerEvery {
			tx, err := r.cfg.Plan.Filler()
			if err != nil {
				return fmt.Errorf("signing filler: %w", err)
			}
			if err := r.broadcast(tx); err != nil {
				return err
			}
			if err := r.flush(); err != nil {
				return err
			}
			res.Fillers++
			lastFiller = time.Now()
		}
		if err := r.wait(ctx, timer, pollEvery); err != nil {
			return err
		}
	}
}

// awaitAcks waits until every submit has been acked.
func (r *run) awaitAcks(ctx context.Context) error {
	deadline := time.Now().Add(ackGrace)
	for _, c := range r.conns {
		for c.acked.Load() < int64(c.sent) {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s acked %d of %d submits", c.c.RemoteAddr(), c.acked.Load(), c.sent)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// Submit broadcasts one transaction to every replica and waits for the
// acks. The benchmark uses it for the set-up transaction.
func Submit(ctx context.Context, addrs []string, tx *utxo.Transaction) error {
	transport.RegisterWireTypes()
	var d net.Dialer
	for _, addr := range addrs {
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return fmt.Errorf("dialing replica: %w", err)
		}
		if dl, ok := ctx.Deadline(); ok {
			_ = nc.SetDeadline(dl) // a TCP conn accepts deadlines
		}
		err = gob.NewEncoder(nc).Encode(clientEnvelope{Msg: &transport.SubmitTx{Tx: tx}})
		var env clientEnvelope
		if err == nil {
			err = gob.NewDecoder(nc).Decode(&env)
		}
		nc.Close()
		if err != nil {
			return fmt.Errorf("submitting to %s: %w", addr, err)
		}
		if ack, ok := env.Msg.(*transport.SubmitAck); !ok || !ack.OK {
			return fmt.Errorf("replica %s refused the transaction: %+v", addr, env.Msg)
		}
	}
	return nil
}
