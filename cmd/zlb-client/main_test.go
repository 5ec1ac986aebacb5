package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/chaos"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
)

// discard is a replica that ignores what it is handed.
type discard struct{}

func (discard) OnMessage(types.ReplicaID, simnet.Message) {}
func (discard) OnTimer(any)                               {}

// listen takes a free localhost address.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := chaos.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestUnackedSubmitFails: a replica that closes the connection without
// an ack — what a node does to a stream it refuses — leaves the submit
// unacked, not sent; the client fails when no replica acked a payment
// and succeeds while one does.
func TestUnackedSubmitFails(t *testing.T) {
	refuser := listen(t)
	go func() {
		for {
			c, err := refuser.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	ln := listen(t)
	addr := ln.Addr().String()
	ln.Close()
	n := transport.NewNode(transport.Config{Self: 1, Listen: addr, Peers: map[types.ReplicaID]string{}})
	n.SetHandler(discard{})
	go func() { _ = n.Serve() }()
	t.Cleanup(n.Close)
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	err := run([]string{refuser.Addr().String()}, 1, "ed25519", "", 10, 1)
	if err == nil || !strings.Contains(err.Error(), "no replica acked") {
		t.Fatalf("no replica acked, run returned %v", err)
	}
	if err := run([]string{refuser.Addr().String(), addr}, 1, "ed25519", "", 10, 2); err != nil {
		t.Fatalf("one replica of two acked, run returned %v", err)
	}
}
