// Package chaos injects network faults into a live TCP cluster. A Proxy
// interposes on one directed replica link — the transport under test is
// configured with proxy addresses instead of real peer addresses
// (Net.PeersFor), so the exact production code paths are exercised, no
// forked transport — and can refuse connections (partition), reset live
// ones, discard forwarded bytes (one-way blackhole), pace forwarding to
// a byte rate (slow reader/writer), or delay it (latency spike). A Net
// builds the full n×(n−1) proxy mesh and offers group-level faults;
// Campaigns drive a real cluster through fault sequences and assert the
// recovery invariants the transport promises. See README.md.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy relays one directed TCP link (every connection the "from" node's
// writer dials toward the "to" node) and injects faults on it. The
// forward direction (dialer → target) carries the replica's frames and
// is where byte-level faults apply; the reverse direction (acks) is
// relayed untouched — a partition or reset kills both.
type Proxy struct {
	name   string // "3→5", for logs
	target string
	addr   string // fixed proxy address, stable across partition/heal

	mu          sync.Mutex
	ln          net.Listener // nil while partitioned or closed
	conns       map[net.Conn]struct{}
	partitioned bool
	closed      bool

	blackhole   atomic.Bool
	latencyNs   atomic.Int64 // added once per forwarded chunk
	throttleBps atomic.Int64 // forward byte rate cap; 0 = unlimited
}

// NewProxy starts a proxy on a localhost port from Listen relaying to
// target. name labels the link in logs ("1→2").
func NewProxy(name, target string) (*Proxy, error) {
	ln, err := Listen()
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy %s: %w", name, err)
	}
	p := &Proxy{
		name:   name,
		target: target,
		addr:   ln.Addr().String(),
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
	}
	go p.acceptLoop(ln)
	return p, nil
}

// Addr is the address the faulted side should dial instead of the real
// peer address. It stays valid across Partition/Heal cycles.
func (p *Proxy) Addr() string { return p.addr }

// Partition refuses new connections (the dialer sees ECONNREFUSED — a
// dial failure, exactly what a real network split looks like, so the
// sending transport queues rather than burning its write-retry budget)
// and resets live ones, until Heal.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	p.mu.Unlock()
	p.dropConns()
}

// Heal lifts a partition, re-listening on the same address. Existing
// damage stays done; the writer's redial loop re-establishes the link.
func (p *Proxy) Heal() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || !p.partitioned {
		return nil
	}
	// The port was just released; no outbound connection can take it
	// (Listen draws it below the ephemeral range), but retry briefly in
	// case the close is still settling.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("chaos: heal %s: %w", p.name, err)
	}
	p.partitioned = false
	p.ln = ln
	go p.acceptLoop(ln)
	return nil
}

// Reset kills the live connections once but keeps accepting: a
// transient connection reset rather than a standing partition.
func (p *Proxy) Reset() { p.dropConns() }

// SetBlackhole toggles one-way packet loss: the proxy keeps reading
// from the dialer (so its writes appear to succeed) but forwards
// nothing. The cruellest fault for a sender — no error, no delivery.
func (p *Proxy) SetBlackhole(on bool) { p.blackhole.Store(on) }

// SetLatency adds d before each forwarded chunk (0 clears).
func (p *Proxy) SetLatency(d time.Duration) { p.latencyNs.Store(int64(d)) }

// SetThrottle caps the forward direction at bytesPerSec (0 clears): the
// proxy reads from the dialer no faster than the cap, so a sustained
// sender's socket buffer fills and its writes start blocking against
// the write deadline — a slow reader, seen from the wire.
func (p *Proxy) SetThrottle(bytesPerSec int) { p.throttleBps.Store(int64(bytesPerSec)) }

// ClearFaults lifts every standing fault on the link.
func (p *Proxy) ClearFaults() error {
	p.blackhole.Store(false)
	p.latencyNs.Store(0)
	p.throttleBps.Store(0)
	return p.Heal()
}

// Close stops the proxy and kills its connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	if p.ln != nil {
		p.ln.Close()
		p.ln = nil
	}
	p.mu.Unlock()
	p.dropConns()
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go p.relay(conn)
	}
}

// relay dials the real peer and pumps both directions until either side
// dies or a fault kills the pair.
func (p *Proxy) relay(client net.Conn) {
	upstream, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		reset(client)
		return
	}
	if !p.track(client, upstream) {
		reset(client)
		reset(upstream)
		return
	}
	done := func() {
		p.untrack(client, upstream)
		client.Close()
		upstream.Close()
	}
	var once sync.Once
	go func() {
		defer once.Do(done)
		p.pumpForward(client, upstream)
	}()
	go func() {
		defer once.Do(done)
		pumpPlain(upstream, client)
	}()
}

// pumpForward relays dialer → peer, applying the byte-level faults.
// Small chunks keep throttle pacing and latency injection fine-grained.
func (p *Proxy) pumpForward(src, dst net.Conn) {
	buf := make([]byte, 4096)
	for {
		chunk := buf
		if p.throttleBps.Load() > 0 {
			chunk = buf[:512]
		}
		n, err := src.Read(chunk)
		if n > 0 {
			if d := time.Duration(p.latencyNs.Load()); d > 0 {
				time.Sleep(d)
			}
			if bps := p.throttleBps.Load(); bps > 0 {
				time.Sleep(time.Duration(n) * time.Second / time.Duration(bps))
			}
			if !p.blackhole.Load() {
				if _, werr := dst.Write(chunk[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// pumpPlain relays the reverse (ack) direction untouched.
func pumpPlain(src, dst net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.partitioned {
		return false
	}
	for _, c := range conns {
		p.conns[c] = struct{}{}
	}
	return true
}

func (p *Proxy) untrack(conns ...net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range conns {
		delete(p.conns, c)
	}
}

func (p *Proxy) dropConns() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		reset(c)
	}
}

// reset closes a connection with an RST rather than a FIN where the
// platform allows it — faults should look like failures, not goodbyes.
func reset(conn net.Conn) {
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	conn.Close()
}
