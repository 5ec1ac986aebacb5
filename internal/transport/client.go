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
	gob.Register(&asmr.BlockReq{})
	gob.Register(&asmr.BlockResp{})
	gob.Register(&asmr.PoFGossip{})
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

// serveClient decodes submits from one client connection and acks each
// on it: accepted ones with an OK ack, ones that hit a full event queue
// with a backpressure ack — the typed overload signal wallets see instead
// of silent loss. It returns the error that ended the connection.
func (n *Node) serveClient(conn net.Conn, br *bufio.Reader) error {
	dec := gob.NewDecoder(br)
	var enc *gob.Encoder // created with the first ack
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
		if enc == nil {
			enc = gob.NewEncoder(conn)
		}
		conn.SetWriteDeadline(time.Now().Add(n.cfg.WriteTimeout))
		if err := enc.Encode(envelope{From: n.cfg.Self, Msg: &ack}); err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Time{})
	}
}
