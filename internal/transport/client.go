package transport

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"time"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// The client socket. A connection that does not open with the peer
// preamble is a client speaking gob envelopes: zlb-client and the
// benchmark's load generator submit transactions this way and read one
// SubmitAck per submit. It carries SubmitTx and nothing else; any other
// type is refused as a decode error, so no protocol message enters a node
// in a second format. This is the package's only use of encoding/gob.

// RegisterWireTypes registers every protocol message with gob. Call once
// per process before serving or dialing. Peer links do not use gob; the
// client socket needs SubmitTx and SubmitAck, and the rest stays
// registered for the programs that still gob-encode protocol messages
// outside a node.
func RegisterWireTypes() {
	gob.Register(&rbc.Init{})
	gob.Register(&rbc.Echo{})
	gob.Register(&rbc.Ready{})
	gob.Register(&rbc.PayloadReq{})
	gob.Register(&rbc.PayloadResp{})
	gob.Register(&bincon.Est{})
	gob.Register(&bincon.Coord{})
	gob.Register(&bincon.Aux{})
	gob.Register(&bincon.Decide{})
	gob.Register(&bincon.DecideReq{})
	gob.Register(&sbc.ProposalReq{})
	gob.Register(&sbc.ProposalResp{})
	gob.Register(&asmr.Confirm{})
	gob.Register(&asmr.JoinNotice{})
	gob.Register(&asmr.CatchupReq{})
	gob.Register(&asmr.CatchupResp{})
	gob.Register(&membership.PoFBroadcast{})
	gob.Register(&accountability.Certificate{})
	gob.Register(&utxo.Transaction{})
	gob.Register(&SubmitTx{})
	gob.Register(&SubmitAck{})
	gob.Register(&SyncFrame{})
}

// envelope is the client socket's gob frame. Clients send as replica 0.
type envelope struct {
	From types.ReplicaID
	Msg  any
}

// SubmitTx is the client-facing request carrying a transaction to a
// replica's mempool.
type SubmitTx struct {
	Tx *utxo.Transaction
}

// SubmitAck is the node's reply to a SubmitTx on the same connection:
// OK means the submit was handed to the replica's event loop (admission
// may still reject it later), !OK with Err set means it was refused at
// the transport edge — today always backpressure on an overloaded event
// queue. Wallets that care read the ack; fire-and-forget clients may
// ignore it.
type SubmitAck struct {
	OK  bool
	Err string
}

// socket is an inbound connection as its bufio.Reader reads it. On a
// client connection it also carries the acks: serveClient buffers them,
// and Read flushes them before it reads the socket again, which is
// exactly when the decoder has used up every byte it holds. The submits
// that arrived in one read are acked in one write, and an ack never waits
// behind a partial message or for the client to send more.
type socket struct {
	conn    net.Conn
	acks    *bufio.Writer // over Write; nil on a peer link
	timeout time.Duration
}

// Read flushes the buffered acks, then reads the connection.
func (s *socket) Read(p []byte) (int, error) {
	if s.acks != nil {
		if err := s.acks.Flush(); err != nil {
			return 0, err
		}
	}
	return s.conn.Read(p)
}

// Write writes acks to the connection under one write deadline.
func (s *socket) Write(p []byte) (int, error) {
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	return s.conn.Write(p)
}

// serveClient decodes submits from one client connection, reading it
// through br over sock, and acks each: accepted ones with an OK ack, ones
// that hit a full event queue with a backpressure ack — the typed
// overload signal wallets see instead of silent loss. Acks leave in
// submit order, once per read of the socket. It returns the error that
// ended the connection.
func (n *Node) serveClient(sock *socket, br *bufio.Reader) error {
	// An ack is tens of bytes and a submit hundreds, so the acks of one
	// read fit in one write.
	sock.acks = bufio.NewWriterSize(sock, maxBatch)
	sock.timeout = n.cfg.WriteTimeout
	// The submits decoded before a refused message reached the event
	// loop: their acks leave before the connection closes.
	defer sock.acks.Flush()
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(sock.acks)
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			return err
		}
		submit, ok := env.Msg.(*SubmitTx)
		if !ok {
			return fmt.Errorf("transport: %T refused on the client socket", env.Msg)
		}
		ack := SubmitAck{OK: true}
		select {
		case n.events <- event{kind: 1, from: env.From, msg: submit}:
		default:
			n.submitBackoff.Add(1)
			ack = SubmitAck{OK: false, Err: ErrBackpressure.Error()}
		}
		if err := enc.Encode(envelope{From: n.cfg.Self, Msg: &ack}); err != nil {
			return err
		}
	}
}
