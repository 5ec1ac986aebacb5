package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/utxo"
)

// scriptConn is a client connection that delivers a scripted stream, one
// chunk per Read (a chunk longer than the reader's buffer takes several),
// then io.EOF. It records the acks written to it, how many Reads had
// been made when each write happened, and the write deadlines set.
type scriptConn struct {
	chunks    [][]byte
	reads     int
	written   bytes.Buffer
	writeAt   []int // reads made before each write
	deadlines int
	closed    bool
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.reads++
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writeAt = append(c.writeAt, c.reads)
	return c.written.Write(p)
}

func (c *scriptConn) Close() error                     { c.closed = true; return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { c.deadlines++; return nil }

// acks decodes every ack the node wrote.
func (c *scriptConn) acks(t *testing.T) []SubmitAck {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(c.written.Bytes()))
	var out []SubmitAck
	for {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			if err != io.EOF {
				t.Fatalf("ack %d: %v", len(out), err)
			}
			return out
		}
		out = append(out, *env.Msg.(*SubmitAck))
	}
}

// countingScheme counts the signature checks it makes.
type countingScheme struct {
	crypto.Scheme
	checks atomic.Int64
}

func (s *countingScheme) Verify(pub crypto.PublicKey, digest types.Digest, sig crypto.Signature) bool {
	s.checks.Add(1)
	return s.Scheme.Verify(pub, digest, sig)
}

// payments signs n one-input, two-output ed25519 payments: 240 canonical
// bytes each, the benchmark's transaction shape.
func payments(t testing.TB, n int) ([]*utxo.Transaction, crypto.Scheme) {
	t.Helper()
	scheme, err := crypto.NewScheme(crypto.SchemeEd25519, crypto.NewRegistry(crypto.SchemeEd25519))
	if err != nil {
		t.Fatal(err)
	}
	kp, err := scheme.GenerateKey(crypto.NewDeterministicRand(31))
	if err != nil {
		t.Fatal(err)
	}
	w := utxo.NewWallet(kp, scheme)
	to := utxo.Address(types.Hash([]byte("recipient")))
	txs := make([]*utxo.Transaction, n)
	for i := range txs {
		prev := utxo.Input{Prev: utxo.Outpoint{TxID: types.Hash([]byte{byte(i), byte(i >> 8)}), Index: 1}, Value: 1000}
		if txs[i], err = w.Pay([]utxo.Input{prev}, []utxo.Output{{Account: to, Value: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	return txs, scheme
}

// submitStream gob-encodes one client connection's submits, as zlb-client
// and the benchmark's load generator send them.
func submitStream(t testing.TB, txs []*utxo.Transaction) []byte {
	t.Helper()
	RegisterWireTypes()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, tx := range txs {
		if err := enc.Encode(envelope{Msg: &SubmitTx{Tx: tx}}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// queued drains the transactions the client socket handed to the event
// loop.
func queued(n *Node) []*utxo.Transaction {
	var out []*utxo.Transaction
	for {
		select {
		case ev := <-n.events:
			out = append(out, ev.msg.(*SubmitTx).Tx)
		default:
			return out
		}
	}
}

// TestSubmitCarriesCanonicalBytes: a transaction crosses the client
// socket as its canonical encoding, verbatim, and arrives with its ID and
// no signature verdict; a later submit through the same decoder leaves
// it intact; a body DecodeTransaction refuses ends the connection as one
// decode error, after the acks of the submits before it.
func TestSubmitCarriesCanonicalBytes(t *testing.T) {
	txs, scheme := payments(t, 2)
	if err := txs[0].VerifySig(scheme); err != nil {
		t.Fatal(err)
	}
	stream := submitStream(t, txs)
	for i, tx := range txs {
		if size := len(tx.Canonical()); size != 240 {
			t.Fatalf("payment %d is %d bytes, want 240", i, size)
		}
		if !bytes.Contains(stream, tx.Canonical()) {
			t.Fatalf("the stream does not carry payment %d's canonical bytes", i)
		}
	}

	dec := gob.NewDecoder(bytes.NewReader(stream))
	var got []*utxo.Transaction
	for range txs {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			t.Fatal(err)
		}
		got = append(got, env.Msg.(*SubmitTx).Tx)
	}
	for i, tx := range got {
		if !bytes.Equal(tx.Canonical(), txs[i].Canonical()) || tx.ID() != txs[i].ID() {
			t.Fatalf("payment %d arrived as other bytes or another ID", i)
		}
	}
	counting := &countingScheme{Scheme: scheme}
	if err := got[0].VerifySig(counting); err != nil || counting.checks.Load() != 1 {
		t.Fatalf("the received payment verified with %d checks (%v), want one: its verdict must not travel",
			counting.checks.Load(), err)
	}

	// Declare over 2^24 inputs in the second payment's body: gob delivers
	// it whole, DecodeTransaction refuses it, and the first payment's ack
	// still leaves.
	at := bytes.Index(stream, txs[1].Canonical())
	bad := bytes.Clone(stream)
	bad[at+8] = 1
	n := NewNode(Config{Self: 1, QueueSize: 4})
	conn := &scriptConn{chunks: [][]byte{bad}}
	n.readLoop(conn)
	if errs := n.Stats().DecodeErrors; errs != 1 || !conn.closed {
		t.Fatalf("a refused body: %d decode errors, closed %v; want 1, true", errs, conn.closed)
	}
	if q, acks := queued(n), conn.acks(t); len(q) != 1 || q[0].ID() != txs[0].ID() || len(acks) != 1 || !acks[0].OK {
		t.Fatalf("%d submits queued and acks %+v; want the first payment, acked", len(q), acks)
	}
}

// TestAcksLeaveOncePerRead drives the client socket over a scripted
// connection: the acks of a burst leave in submit order, in no more
// writes than the socket reads that brought the submits, each write under
// its own deadline; a lone submit is acked before the next read, and a
// submit split across two reads is acked once it is whole.
func TestAcksLeaveOncePerRead(t *testing.T) {
	const burst, queue = 256, 200
	txs, _ := payments(t, burst)
	stream := submitStream(t, txs)

	t.Run("burst", func(t *testing.T) {
		n := NewNode(Config{Self: 1, QueueSize: queue})
		conn := &scriptConn{chunks: [][]byte{bytes.Clone(stream)}}
		n.readLoop(conn)
		acks := conn.acks(t)
		if len(acks) != burst {
			t.Fatalf("%d acks for %d submits", len(acks), burst)
		}
		for i, ack := range acks {
			if ack.OK != (i < queue) {
				t.Fatalf("ack %d is %+v: the refusal must start at ordinal %d, where the queue filled", i, ack, queue)
			}
			if !ack.OK && ack.Err != ErrBackpressure.Error() {
				t.Fatalf("ack %d refuses with %q", i, ack.Err)
			}
		}
		if got := n.Stats().SubmitBackpressure; got != burst-queue {
			t.Fatalf("%d submits counted as backpressure, want %d", got, burst-queue)
		}
		for i, tx := range queued(n) {
			if !bytes.Equal(tx.Canonical(), txs[i].Canonical()) {
				t.Fatalf("queued submit %d is not payment %d", i, i)
			}
		}
		writes := len(conn.writeAt)
		t.Logf("%d acks in %d writes over %d reads", burst, writes, conn.reads)
		if writes == 0 || writes > conn.reads {
			t.Fatalf("%d acks took %d writes over %d reads", burst, writes, conn.reads)
		}
		if conn.deadlines != writes {
			t.Fatalf("%d write deadlines for %d writes, want one each", conn.deadlines, writes)
		}
		if errs := n.Stats().DecodeErrors; errs != 0 {
			t.Fatalf("%d decode errors on a clean stream", errs)
		}
	})

	t.Run("lone submit", func(t *testing.T) {
		one := submitStream(t, txs[:1])
		two := submitStream(t, txs[:2])
		n := NewNode(Config{Self: 1, QueueSize: queue})
		conn := &scriptConn{chunks: [][]byte{one, bytes.Clone(two[len(one):])}}
		n.readLoop(conn)
		if acks := conn.acks(t); len(acks) != 2 || !acks[0].OK || !acks[1].OK {
			t.Fatalf("acks %+v, want two OK", acks)
		}
		if len(conn.writeAt) != 2 || conn.writeAt[0] != 1 {
			t.Fatalf("writes after reads %v: the first ack must leave before the second read", conn.writeAt)
		}
	})

	t.Run("split submit", func(t *testing.T) {
		one := submitStream(t, txs[:1])
		half := len(one) / 2
		n := NewNode(Config{Self: 1, QueueSize: queue})
		conn := &scriptConn{chunks: [][]byte{bytes.Clone(one[:half]), bytes.Clone(one[half:])}}
		n.readLoop(conn)
		if acks := conn.acks(t); len(acks) != 1 || !acks[0].OK {
			t.Fatalf("acks %+v, want one OK", acks)
		}
		if len(conn.writeAt) != 1 || conn.writeAt[0] != 2 {
			t.Fatalf("writes after reads %v, want one after the second", conn.writeAt)
		}
		if q := queued(n); len(q) != 1 || q[0].ID() != txs[0].ID() {
			t.Fatal("the split submit did not reach the event loop whole")
		}
	})
}

// FuzzClientSocket: any bytes a gob-speaking client sends end in acks or
// in one decode error, never a panic. A stream is refused exactly when a
// plain gob decoder stops on it with something other than the stream's
// end, and then counts one decode error. Every transaction handed to the
// event loop is bytes the client sent, held as its canonical encoding.
// The committed corpus holds the first three submits of a load
// generator's stream.
func FuzzClientSocket(f *testing.F) {
	RegisterWireTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0] == preambleByte {
			return // a peer link: FuzzDecodeFrame's ground
		}
		n := NewNode(Config{Self: 1, QueueSize: 8})
		conn := &scriptConn{chunks: [][]byte{bytes.Clone(data)}}
		n.readLoop(conn)

		submits, err := 0, error(nil)
		dec := gob.NewDecoder(bytes.NewReader(data))
		for {
			var env envelope
			if err = dec.Decode(&env); err != nil {
				break
			}
			if _, ok := env.Msg.(*SubmitTx); !ok {
				err = errors.New("not a submit")
				break
			}
			submits++
		}
		refused := uint64(0)
		if !isConnClosed(err) {
			refused = 1
		}
		if got := n.Stats().DecodeErrors; got != refused || !conn.closed {
			t.Fatalf("%d decode errors, closed %v; a plain decoder stopped after %d submits on %v",
				got, conn.closed, submits, err)
		}
		txs := queued(n)
		if acks := conn.acks(t); len(acks) != submits || len(txs)+int(n.Stats().SubmitBackpressure) != submits {
			t.Fatalf("%d submits decoded, %d acked, %d queued", submits, len(acks), len(txs))
		}
		for _, tx := range txs {
			if tx == nil {
				continue
			}
			canon := tx.Canonical()
			again := (&utxo.Transaction{Inputs: tx.Inputs, Outputs: tx.Outputs, Nonce: tx.Nonce,
				Sender: tx.Sender, Sig: tx.Sig}).Canonical()
			if !bytes.Contains(data, canon) || !bytes.Equal(again, canon) {
				t.Fatalf("a queued transaction's canonical bytes are not the bytes it arrived as")
			}
		}
	})
}

// BenchmarkClientSocket times a submit's passage through the client
// socket's codec, per side, over a 256-submit burst: "node" decodes the
// submits and encodes their acks (readLoop over a scripted connection,
// so no system call is timed), "client" encodes the submits and decodes
// the acks, as the load generator does.
func BenchmarkClientSocket(b *testing.B) {
	const burst = 256
	txs, _ := payments(b, burst)
	stream := submitStream(b, txs)
	var acks []byte
	perSubmit := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst)/1e3, "us/submit")
	}
	b.Run("node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := NewNode(Config{Self: 1, QueueSize: burst})
			conn := &scriptConn{chunks: [][]byte{stream}}
			n.readLoop(conn)
			acks = conn.written.Bytes()
		}
		perSubmit(b)
	})
	b.Run("client", func(b *testing.B) {
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			enc := gob.NewEncoder(&out)
			for _, tx := range txs {
				if err := enc.Encode(envelope{Msg: &SubmitTx{Tx: tx}}); err != nil {
					b.Fatal(err)
				}
			}
			dec := gob.NewDecoder(bytes.NewReader(acks))
			for range txs {
				var env envelope
				if err := dec.Decode(&env); err != nil {
					b.Fatal(err)
				}
			}
		}
		perSubmit(b)
	})
}
