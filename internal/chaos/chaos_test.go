package chaos

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/types"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func roundTrip(t *testing.T, addr, payload string) (string, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(payload)); err != nil {
		return "", err
	}
	buf := make([]byte, len(payload))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func TestProxyRelays(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, err := roundTrip(t, p.Addr(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("relayed %q, want %q", got, "hello")
	}
}

// TestProxyPartitionRefusesDials pins the fault semantics partitions
// rely on: while partitioned, dials fail with a connection error (the
// transport treats that as backoff-only, never frame loss), and Heal
// restores the link on the same address.
func TestProxyPartitionRefusesDials(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	proxyAddr := p.Addr()

	p.Partition()
	if _, err := net.DialTimeout("tcp", proxyAddr, time.Second); err == nil {
		t.Fatal("dial through a partitioned proxy succeeded")
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("partitioned dial failed with %v, want connection refused", err)
	}

	if err := p.Heal(); err != nil {
		t.Fatal(err)
	}
	if p.Addr() != proxyAddr {
		t.Fatalf("heal moved the proxy to %s", p.Addr())
	}
	got, err := roundTrip(t, proxyAddr, "back")
	if err != nil {
		t.Fatalf("healed proxy not relaying: %v", err)
	}
	if got != "back" {
		t.Fatalf("relayed %q after heal, want %q", got, "back")
	}
}

func TestProxyPartitionResetsLiveConns(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := roundTrip(t, p.Addr(), "warm"); err != nil {
		t.Fatal(err)
	}

	p.Partition()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("live connection survived a partition")
	}
}

func TestProxyBlackholeDiscards(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetBlackhole(true)

	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The write succeeds (the proxy keeps reading) but nothing is
	// forwarded, so no echo ever comes back.
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatalf("blackholed write failed: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("echo escaped a blackholed link")
	}
}

func TestProxyThrottlePaces(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetThrottle(1024) // 1 KiB/s

	payload := make([]byte, 2048)
	start := time.Now()
	conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	// 2 KiB at 1 KiB/s is ~2 s of pacing; accept anything clearly slower
	// than an unthrottled localhost round trip.
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("2 KiB crossed a 1 KiB/s link in %v", elapsed)
	}
}

func TestProxyLatencyDelays(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	p, err := NewProxy("test", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetLatency(200 * time.Millisecond)

	start := time.Now()
	if _, err := roundTrip(t, p.Addr(), "slow"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("round trip took %v through a 200ms link", elapsed)
	}
}

func TestNetMeshAndGroupFaults(t *testing.T) {
	const n = 3
	addrs := make([]string, n)
	stops := make([]func(), n)
	for i := range addrs {
		addrs[i], stops[i] = echoServer(t)
		defer stops[i]()
	}
	mesh, err := NewNet(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// PeersFor: own entry is the real address, others are proxies.
	for id := types.ReplicaID(1); id <= n; id++ {
		peers := mesh.PeersFor(id)
		if len(peers) != n {
			t.Fatalf("PeersFor(%v) returned %d entries", id, len(peers))
		}
		if peers[id-1] != addrs[id-1] {
			t.Fatalf("PeersFor(%v) self entry %s, want real %s", id, peers[id-1], addrs[id-1])
		}
		for j, a := range peers {
			if types.ReplicaID(j+1) == id {
				continue
			}
			if a == addrs[j] {
				t.Fatalf("PeersFor(%v) entry %d is the real address, want a proxy", id, j)
			}
			if got, err := roundTrip(t, a, "ping"); err != nil || got != "ping" {
				t.Fatalf("link %v→%d not relaying: %v", id, j+1, err)
			}
		}
	}

	// PartitionGroups cuts exactly the crossing links, both directions.
	mesh.PartitionGroups([]types.ReplicaID{1}, []types.ReplicaID{2, 3})
	check := func(from, to types.ReplicaID, wantCut bool) {
		t.Helper()
		_, err := roundTrip(t, mesh.Link(from, to).Addr(), "x")
		if wantCut && err == nil {
			t.Fatalf("link %v→%v alive inside a partition", from, to)
		}
		if !wantCut && err != nil {
			t.Fatalf("intra-group link %v→%v cut: %v", from, to, err)
		}
	}
	check(1, 2, true)
	check(2, 1, true)
	check(1, 3, true)
	check(3, 1, true)
	check(2, 3, false)
	check(3, 2, false)

	if err := mesh.HealAll(); err != nil {
		t.Fatal(err)
	}
	check(1, 2, false)
	check(2, 1, false)
}

func TestCampaignRegistry(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("no campaigns registered")
	}
	for _, name := range names {
		c, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes < 5 {
			t.Fatalf("campaign %s wants n=%d, campaigns require n>=5", name, c.Nodes)
		}
		if c.Run == nil || c.Description == "" {
			t.Fatalf("campaign %s incompletely registered", name)
		}
	}
	if _, err := Find("no-such-campaign"); err == nil {
		t.Fatal("Find accepted an unknown campaign")
	}
}

// TestListenDrawsBelowEphemeralRange checks the listen-port helper from
// several goroutines at once: every port it hands out lies below the
// kernel's ephemeral range, where no outbound connection can take it, no
// port is handed out twice, and a released port binds again.
func TestListenDrawsBelowEphemeralRange(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = make(map[int]bool)
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				ln, err := Listen()
				if err != nil {
					t.Error(err)
					return
				}
				port := ln.Addr().(*net.TCPAddr).Port
				ln.Close()
				mu.Lock()
				dup := seen[port]
				seen[port] = true
				mu.Unlock()
				if dup {
					t.Errorf("port %d handed out twice", port)
				}
				if ports.low > 0 && port >= ports.low {
					t.Errorf("port %d inside the ephemeral range from %d", port, ports.low)
				}
				again, err := net.Listen("tcp", ln.Addr().String())
				if err != nil {
					t.Errorf("released port %d does not bind again: %v", port, err)
					continue
				}
				again.Close()
			}
		}()
	}
	wg.Wait()
	if ports.low == 0 {
		t.Log("ephemeral range unreadable: Listen bound :0")
	}
}
