// Command zlb-client submits signed transactions to a running zlb-node
// cluster. It owns the demo faucet account (derived from the shared seed)
// and pays any recipient from it.
//
//	zlb-client -peers 127.0.0.1:7001,127.0.0.1:7002,... -to cafe01 -amount 500
//
// The client broadcasts the transaction to every replica, as the paper's
// open permissioned model prescribes (§4.2): permissionless clients,
// permissioned replicas. It prints how many replicas acked each
// transaction and exits non-zero when none did.
package main

import (
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/node"
	"github.com/zeroloss/zlb/internal/transport"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

func main() {
	peersFlag := flag.String("peers", "", "comma-separated replica addresses")
	seed := flag.Int64("seed", 1, "shared PKI seed (must match the nodes)")
	to := flag.String("to", "", "recipient address prefix (hex) or empty for a demo recipient")
	amount := flag.Uint64("amount", 1000, "coins to transfer")
	count := flag.Int("count", 1, "number of transactions to submit")
	schemeName := flag.String("scheme", "ed25519", "transaction signature scheme: ed25519 or ecdsa (must match the nodes' -scheme)")
	flag.Parse()

	if *peersFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(strings.Split(*peersFlag, ","), *seed, *schemeName, *to, types.Amount(*amount), *count); err != nil {
		log.Fatal(err)
	}
}

func run(addrs []string, seed int64, schemeName, toHex string, amount types.Amount, count int) error {
	transport.RegisterWireTypes()

	kind, err := node.SchemeKind(schemeName)
	if err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}
	reg := crypto.NewRegistry(kind)
	scheme, err := crypto.NewScheme(kind, reg)
	if err != nil {
		return err
	}
	faucetKP, err := scheme.GenerateKey(crypto.NewDeterministicRand(seed ^ 0xFA0CE7))
	if err != nil {
		return err
	}
	faucet := utxo.NewWallet(faucetKP, scheme)

	recipient := demoRecipient(scheme)
	if toHex != "" {
		b, err := hex.DecodeString(toHex)
		if err != nil || len(b) == 0 || len(b) > 32 {
			return fmt.Errorf("bad -to address %q", toHex)
		}
		var addr utxo.Address
		copy(addr[:], b)
		recipient = addr
	}

	// The client tracks the faucet's genesis output locally: the demo
	// genesis gives the faucet a single 1e9 UTXO; sequential spends chain
	// through the change outputs.
	genesisOut := utxo.Outpoint{TxID: types.Hash([]byte("genesis")), Index: 0}
	prev := utxo.Input{Prev: genesisOut, Value: 1_000_000_000}

	conns, err := dialAll(addrs)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.conn.Close()
		}
	}()

	for i := 0; i < count; i++ {
		tx, err := faucet.Pay([]utxo.Input{prev}, []utxo.Output{{Account: recipient, Value: amount}})
		if err != nil {
			return fmt.Errorf("building tx %d: %w", i, err)
		}
		// Chain through the change output (always the last output).
		changeIdx := uint32(len(tx.Outputs) - 1)
		prev = utxo.Input{
			Prev:  utxo.Outpoint{TxID: tx.ID(), Index: changeIdx},
			Value: tx.Outputs[changeIdx].Value,
		}
		msg := &transport.SubmitTx{Tx: tx}
		acked, refused, unacked := 0, 0, 0
		for _, c := range conns {
			// The node acks every submit on the same connection: OK when
			// it reached the replica's event loop, a typed refusal when
			// the node is overloaded (backpressure) — the wallet-visible
			// alternative to silent loss. A submit with no ack reached no
			// replica as far as the client knows.
			ack, err := c.submit(msg)
			switch {
			case err != nil:
				unacked++
				log.Printf("replica %s did not ack tx %v: %v", c.conn.RemoteAddr(), tx.ID(), err)
			case ack.OK:
				acked++
			default:
				refused++
				log.Printf("replica %s refused tx %v: %s", c.conn.RemoteAddr(), tx.ID(), ack.Err)
			}
		}
		fmt.Printf("tx %v (%d coins → %v) acked by %d/%d replicas (%d refused, %d unacked)\n",
			tx.ID(), amount, recipient, acked, len(conns), refused, unacked)
		if acked == 0 {
			// Every later payment spends this one's change.
			return fmt.Errorf("tx %v: no replica acked it", tx.ID())
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// clientEnvelope mirrors the node's wire frame; clients send as replica 0
// (an unprivileged identity — transactions authenticate themselves).
type clientEnvelope struct {
	From types.ReplicaID
	Msg  any
}

func envelopeFor(msg any) clientEnvelope { return clientEnvelope{From: 0, Msg: msg} }

type clientConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// submit sends one submit and reads the node's ack for it. A node that
// refuses the stream closes the connection, so the read fails instead.
func (c clientConn) submit(msg *transport.SubmitTx) (*transport.SubmitAck, error) {
	if err := c.enc.Encode(envelopeFor(msg)); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	var env clientEnvelope
	if err := c.dec.Decode(&env); err != nil {
		return nil, err
	}
	ack, ok := env.Msg.(*transport.SubmitAck)
	if !ok {
		return nil, fmt.Errorf("answered with %T", env.Msg)
	}
	return ack, nil
}

func dialAll(addrs []string) ([]clientConn, error) {
	var out []clientConn
	for _, a := range addrs {
		conn, err := net.DialTimeout("tcp", a, 2*time.Second)
		if err != nil {
			log.Printf("dial %s: %v (skipping)", a, err)
			continue
		}
		out = append(out, clientConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replica reachable")
	}
	return out, nil
}

func demoRecipient(scheme crypto.Scheme) utxo.Address {
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(0xbeef))
	if err != nil {
		return utxo.Address{}
	}
	return utxo.AddressOf(kp.Public())
}
