package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/membership"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
	"github.com/zeroloss/zlb/internal/wire"
)

// sample is one message of the codec tests, named by its type ("*rbc.Init")
// and, for a second sample of a type, a variant ("*rbc.Init/nil-payload").
type sample struct {
	name string
	msg  simnet.Message
}

// typeName is the sample's type, its name without the variant.
func (s sample) typeName() string { name, _, _ := strings.Cut(s.name, "/"); return name }

const sampleInstance = types.Instance(7 << 10)

// reservedKinds carried the version 1 block pull and PoF gossip; no type
// encodes to them and every decoder refuses them.
var reservedKinds = map[frameKind]bool{14: true, 15: true, 16: true}

// frameSamples holds a message of every peer type, and variants for nil
// against empty payloads, absent certificates and statements, and maps of
// several keys.
func frameSamples() []sample {
	sig := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	stmt := accountability.Statement{Context: accountability.CtxMain, Kind: accountability.KindAux,
		Instance: sampleInstance, Slot: 2, Round: 1, Value: types.Hash([]byte("v"))}
	signed := accountability.Signed{Stmt: stmt, Signer: 3, Sig: sig(3)}
	other := accountability.Signed{Stmt: stmt, Signer: 1, Sig: sig(1)}
	cert := &accountability.Certificate{Stmt: stmt, Sigs: []accountability.Signed{signed, other}}
	forked := signed
	forked.Stmt.Value = types.Hash([]byte("w"))
	forked.Sig = sig(4)
	pofs := []accountability.PoF{{Culprit: 3, A: signed, B: forked}, {Culprit: 3, A: forked, B: signed}}
	decision := &sbc.Decision{
		Instance: sampleInstance,
		Bits:     map[types.ReplicaID]bool{1: true, 2: false, 4: true},
		Proposals: map[types.ReplicaID]sbc.ProposalInfo{
			1: {Broadcaster: 1, Payload: []byte("p1"), Digest: types.Hash([]byte("p1")), ClaimedSigs: 2},
			4: {Broadcaster: 4, Payload: []byte{}, Digest: types.Hash(nil), ClaimedBytes: 1 << 20},
		},
		BinCerts:   map[types.ReplicaID]*accountability.Certificate{1: cert, 2: cert, 4: cert},
		ReadyCerts: map[types.ReplicaID]*accountability.Certificate{1: cert, 4: cert},
		InitStmts:  map[types.ReplicaID]*accountability.Signed{1: &signed, 4: &other},
	}
	blocks := []asmr.BlockRecord{{K: 7, Attempt: 1, Decision: decision}, {K: 8}}
	const ctx = accountability.CtxMain
	return []sample{
		{"*rbc.Init", &rbc.Init{Stmt: signed, Payload: []byte("p"), ClaimedSigs: 1}},
		{"*rbc.Init/nil-payload", &rbc.Init{Stmt: signed}},
		{"*rbc.Init/empty-payload", &rbc.Init{Stmt: signed, Payload: []byte{}, ClaimedBytes: 10000, ClaimedSigs: -1}},
		{"*rbc.Echo", &rbc.Echo{Stmt: signed}},
		{"*rbc.Ready", &rbc.Ready{Stmt: signed}},
		{"*rbc.PayloadReq", &rbc.PayloadReq{Context: ctx, Instance: sampleInstance, Broadcaster: 2, Digest: types.Hash([]byte("p"))}},
		{"*rbc.PayloadResp", &rbc.PayloadResp{Context: ctx, Instance: sampleInstance, Broadcaster: 2, Payload: []byte("p"), InitStmt: &signed}},
		{"*rbc.PayloadResp/no-init", &rbc.PayloadResp{Context: ctx, Instance: sampleInstance, Broadcaster: 2, ClaimedBytes: 300}},
		{"*bincon.Est", &bincon.Est{Context: ctx, Instance: sampleInstance, Slot: 2, Round: 1, Value: true}},
		{"*bincon.Est/zero", &bincon.Est{Context: ctx, Instance: sampleInstance, Slot: 2}},
		{"*bincon.Coord", &bincon.Coord{Stmt: signed}},
		{"*bincon.Aux", &bincon.Aux{Stmt: signed}},
		{"*bincon.Decide", &bincon.Decide{Context: ctx, Instance: sampleInstance, Slot: 2, Value: true, Cert: cert}},
		{"*bincon.Decide/announcement", &bincon.Decide{Context: ctx, Instance: sampleInstance, Slot: 2}},
		{"*bincon.DecideReq", &bincon.DecideReq{Context: ctx, Instance: sampleInstance, Slot: 2}},
		{"*sbc.ProposalReq", &sbc.ProposalReq{Context: ctx, Instance: sampleInstance, Slot: 2}},
		{"*sbc.ProposalResp", &sbc.ProposalResp{Context: ctx, Instance: sampleInstance, Slot: 2, Payload: []byte("p"), Cert: cert, InitStmt: &signed}},
		{"*sbc.ProposalResp/bare", &sbc.ProposalResp{Context: ctx, Instance: sampleInstance, Slot: 2, Payload: []byte{}}},
		{"*asmr.Confirm", &asmr.Confirm{K: 7, Attempt: 1, Digest: types.Hash([]byte("d")), Stmt: signed}},
		{"*asmr.JoinNotice", &asmr.JoinNotice{Epoch: 2, Committee: []types.ReplicaID{1, 2, 5}, NextK: 9,
			Blocks: blocks, PendingAttempts: map[uint64]uint32{9: 2, 10: 0, 12: 1}}},
		{"*asmr.CatchupReq", &asmr.CatchupReq{FromK: 7, ToK: math.MaxUint64}},
		{"*asmr.CatchupReq/pull", &asmr.CatchupReq{FromK: 7, ToK: 7}},
		{"*asmr.CatchupResp", &asmr.CatchupResp{FromK: 7, ToK: 7, Blocks: blocks[:1]}},
		{"*asmr.CatchupResp/catch-up", &asmr.CatchupResp{FromK: 7, ToK: math.MaxUint64, Blocks: blocks}},
		{"*asmr.CatchupResp/empty", &asmr.CatchupResp{FromK: 7, ToK: 7}},
		{"*membership.PoFBroadcast", &membership.PoFBroadcast{Epoch: 2, PoFs: pofs}},
		{"*membership.PoFBroadcast/gossip", &membership.PoFBroadcast{PoFs: pofs}},
		{"*transport.SyncFrame", &SyncFrame{Req: true, Payload: []byte("req")}},
		{"*transport.SyncFrame/nil-payload", &SyncFrame{}},
	}
}

// sampleNamed returns the sample of that name.
func sampleNamed(t *testing.T, name string) sample {
	t.Helper()
	for _, s := range frameSamples() {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no sample %s", name)
	return sample{}
}

// encodeSample frames one sample, failing the test if it has no frame.
func encodeSample(t *testing.T, s sample) []byte {
	t.Helper()
	frame, err := appendFrame(nil, s.msg)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return frame
}

// TestConsensusMessagesSurviveEnvelope frames every peer message type
// and decodes it back. A type that reaches a peer without a frame kind
// does not fail to compile: Send refuses it at run time. So the type set
// is read from source — the cases of sbc.ContextInstanceOf and the
// types RegisterWireTypes lists — and each needs a sample here, whose
// round trip then demands a kind. Every kind is covered.
func TestConsensusMessagesSurviveEnvelope(t *testing.T) {
	samples := frameSamples()
	byType := make(map[string]sample)
	for _, s := range samples {
		if _, ok := byType[s.typeName()]; !ok {
			byType[s.typeName()] = s
		}
	}
	for _, name := range contextInstanceOfCases(t) {
		// Package sbc writes its own types unqualified.
		key := name
		if _, ok := byType[key]; !ok {
			key = "*sbc." + name[1:]
		}
		s, ok := byType[key]
		if !ok {
			t.Errorf("sbc.ContextInstanceOf routes %s: add a sample of it to this test", name)
			continue
		}
		if _, wi, ok := sbc.ContextInstanceOf(s.msg); !ok || wi != sampleInstance {
			t.Errorf("%s: ContextInstanceOf = (%v, %v), want instance %v", key, wi, ok, sampleInstance)
		}
	}
	// What the client socket carries, and what only travels inside
	// another message, needs no kind.
	notPeer := map[string]bool{
		"*transport.SubmitTx": true, "*transport.SubmitAck": true,
		"*accountability.Certificate": true, "*utxo.Transaction": true,
	}
	for _, name := range registeredWireTypes(t) {
		if _, ok := byType[name]; !ok && !notPeer[name] {
			t.Errorf("RegisterWireTypes lists %s: add a sample of it to this test", name)
		}
	}

	kinds := make(map[frameKind]string)
	for _, s := range samples {
		frame := encodeSample(t, s)
		kinds[frameKind(frame[4])] = s.typeName()
		got, err := decodeFrame(frame)
		if err != nil {
			t.Errorf("%s does not decode: %v", s.name, err)
			continue
		}
		if !reflect.DeepEqual(got, s.msg) {
			t.Errorf("%s changed in the frame:\nsent %+v\ngot  %+v", s.name, s.msg, got)
		}
		if again := encodeSample(t, sample{s.name, got}); !bytes.Equal(again, frame) {
			t.Errorf("%s re-encodes to other bytes:\n  %x\n  %x", s.name, frame, again)
		}
	}
	for k := frameKind(1); k <= numKinds; k++ {
		if name := kinds[k]; name == "" && !reservedKinds[k] {
			t.Errorf("frame kind %d has no sample", k)
		} else if name != "" && reservedKinds[k] {
			t.Errorf("%s encodes to reserved kind %d", name, k)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFramesGolden pins the bytes of every sample's frame, variants
// included: a round trip alone would pass a change made to encoder and
// decoder alike. Rewrite with -update only for a deliberate format change,
// which also bumps the preamble version.
func TestFramesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, s := range frameSamples() {
		fmt.Fprintf(&got, "%s %s\n", s.name, hex.EncodeToString(encodeSample(t, s)))
	}
	const path = "testdata/frames.golden"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d frames, golden holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestDecodedFrameHoldsNoFrameBytes: signatures are copied out of the
// frame, so a statement kept in the log does not pin it.
func TestDecodedFrameHoldsNoFrameBytes(t *testing.T) {
	frame := encodeSample(t, sampleNamed(t, "*rbc.Init"))
	msg, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	init := msg.(*rbc.Init)
	for i := range frame {
		frame[i] ^= 0xff
	}
	if !bytes.Equal(init.Stmt.Sig, bytes.Repeat([]byte{3}, 64)) {
		t.Fatal("the decoded signature aliases the frame")
	}
}

// TestFrameRefusals: every strict prefix of every frame (its length
// prefix rewritten to match), a trailing byte, unknown and reserved kinds,
// map keys out of order or repeated, a bad flag byte, an over-cap length
// and a version 1 preamble are refused.
func TestFrameRefusals(t *testing.T) {
	withBody := func(frame []byte, n int) []byte {
		out := append([]byte(nil), frame[:n]...)
		binary.BigEndian.PutUint32(out, uint32(n-4))
		return out
	}
	for _, s := range frameSamples() {
		frame := encodeSample(t, s)
		for n := 0; n < len(frame); n++ {
			cut := frame[:n]
			if n >= 4 {
				cut = withBody(frame, n)
			}
			if _, err := decodeFrame(cut); err == nil {
				t.Fatalf("%s cut to %d of %d bytes decodes", s.name, n, len(frame))
			}
		}
		long := withBody(append(append([]byte(nil), frame...), 0), len(frame)+1)
		if _, err := decodeFrame(long); err == nil {
			t.Errorf("%s with a trailing byte decodes", s.name)
		}
	}

	frame := encodeSample(t, sampleNamed(t, "*rbc.Echo"))
	for _, k := range []byte{0, 14, 15, 16, numKinds + 1, 0xff} {
		bad := append([]byte(nil), frame...)
		bad[4] = k
		if _, err := decodeFrame(bad); !errors.Is(err, errFrameKind) {
			t.Errorf("kind %d: %v, want errFrameKind", k, err)
		}
	}

	// The decision of a CatchupResp's one block opens with its bit map:
	// len 4, kind 1, FromK 8, ToK 8, count 4, K 8, attempt 4, decision flag
	// 1, instance 8, count 4, then entries of a slot u32 and a bit.
	frame = encodeSample(t, sampleNamed(t, "*asmr.CatchupResp"))
	const bits = 4 + 1 + 8 + 8 + 4 + 8 + 4 + 1 + 8 + 4
	swapped := append([]byte(nil), frame...)
	copy(swapped[bits:bits+5], frame[bits+5:bits+10])
	copy(swapped[bits+5:bits+10], frame[bits:bits+5])
	repeated := append([]byte(nil), frame...)
	copy(repeated[bits+5:bits+9], frame[bits:bits+4])
	flag := append([]byte(nil), frame...)
	flag[bits+4] = 2
	for name, bad := range map[string][]byte{"unsorted keys": swapped, "repeated key": repeated} {
		if _, err := decodeFrame(bad); !errors.Is(err, wire.ErrMapOrder) {
			t.Errorf("%s: %v, want wire.ErrMapOrder", name, err)
		}
	}
	if _, err := decodeFrame(flag); !errors.Is(err, wire.ErrNonCanonical) {
		t.Errorf("flag byte 2: %v, want wire.ErrNonCanonical", err)
	}

	huge := binary.BigEndian.AppendUint32(nil, maxFrameLen+1)
	if _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, errFrameSize) {
		t.Errorf("over-cap length: %v, want errFrameSize", err)
	}

	// A version 1 peer would send frames of kinds 14–16 and the old block
	// request layouts: it is refused at the preamble, not mid-stream.
	preamble := appendPreamble(nil, 3)
	if id, err := readPreamble(bytes.NewReader(preamble)); err != nil || id != 3 {
		t.Fatalf("own preamble: replica %v, %v", id, err)
	}
	preamble[5] = 1
	if _, err := readPreamble(bytes.NewReader(preamble)); !errors.Is(err, errPreamble) {
		t.Errorf("version 1 preamble: %v, want errPreamble", err)
	}
}

// FuzzDecodeFrame: any bytes decode to a message or an error, never a
// panic, and a decoded frame re-encodes to the bytes it came from. The
// committed corpus holds one valid frame per kind.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeFrame(data)
		if err != nil {
			return
		}
		again, err := appendFrame(nil, msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%T re-encodes to other bytes:\n  in  %x\n  out %x", msg, data, again)
		}
	})
}

// TestFuzzCorpusCoversEveryKind: the committed seed corpus of
// FuzzDecodeFrame decodes, and holds a frame of every kind.
func TestFuzzCorpusCoversEveryKind(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeFrame/*")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[frameKind]bool)
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s is not one []byte literal: %v", file, err)
		}
		if _, err := decodeFrame([]byte(seed)); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		seen[frameKind(seed[4])] = true
	}
	for k := frameKind(1); k <= numKinds; k++ {
		if !seen[k] && !reservedKinds[k] {
			t.Errorf("no corpus frame of kind %d", k)
		}
	}
}

// registeredWireTypes returns the types RegisterWireTypes registers, as
// written in its source, qualified ("*rbc.Init", "*transport.SubmitTx").
func registeredWireTypes(t *testing.T) []string {
	t.Helper()
	return funcTypeNames(t, "client.go", "RegisterWireTypes", func(n ast.Node) []ast.Expr {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if lit, ok := u.X.(*ast.CompositeLit); ok {
				return []ast.Expr{&ast.StarExpr{X: qualify(lit.Type, "transport")}}
			}
		}
		return nil
	})
}

// contextInstanceOfCases returns the case types of the type switch in
// sbc.ContextInstanceOf, as written in its source ("*rbc.Init").
func contextInstanceOfCases(t *testing.T) []string {
	t.Helper()
	return funcTypeNames(t, "../sbc/routing.go", "ContextInstanceOf", func(n ast.Node) []ast.Expr {
		if cc, ok := n.(*ast.CaseClause); ok {
			return cc.List
		}
		return nil
	})
}

// funcTypeNames renders the type expressions pick finds in one function
// of one source file.
func funcTypeNames(t *testing.T, path, fn string, pick func(ast.Node) []ast.Expr) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		if f, ok := decl.(*ast.FuncDecl); ok && f.Name.Name == fn {
			ast.Inspect(f, func(n ast.Node) bool {
				for _, e := range pick(n) {
					names = append(names, exprString(e))
				}
				return true
			})
		}
	}
	if len(names) == 0 {
		t.Fatalf("no type found in %s of %s: did it move?", fn, path)
	}
	return names
}

// qualify adds a package to an unqualified type name.
func qualify(e ast.Expr, pkg string) ast.Expr {
	if id, ok := e.(*ast.Ident); ok {
		return &ast.SelectorExpr{X: ast.NewIdent(pkg), Sel: id}
	}
	return e
}

// exprString renders a type: *pkg.Name or *Name.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// TestFrameAllocations pins what the busiest frames cost the heap. Decoding
// a vote allocates the message and the copy of its signature and nothing
// else (the reader stays on the stack), encoding a vote into a buffer
// with room for it allocates nothing, and the buffer a peer sizes for it
// (sizeHint) is that room: it is the one allocation.
func TestFrameAllocations(t *testing.T) {
	for _, name := range []string{"*rbc.Echo", "*bincon.Aux", "*asmr.Confirm"} {
		frame := encodeSample(t, sampleNamed(t, name))
		if n := testing.AllocsPerRun(100, func() { decodeFrame(frame) }); n != 2 {
			t.Errorf("decoding %s allocates %v times, want 2", name, n)
		}
	}
	votes := []string{"*rbc.Echo", "*rbc.Ready", "*rbc.PayloadReq", "*bincon.Est", "*bincon.Coord",
		"*bincon.Aux", "*bincon.Decide", "*bincon.Decide/announcement", "*bincon.DecideReq", "*sbc.ProposalReq",
		"*asmr.Confirm", "*asmr.CatchupReq"}
	for _, name := range votes {
		msg := sampleNamed(t, name).msg
		buf := make([]byte, 0, 512)
		if n := testing.AllocsPerRun(100, func() { appendFrame(buf[:0], msg) }); n != 0 {
			t.Errorf("encoding %s allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { appendFrame(make([]byte, 0, sizeHint(msg)), msg) }); n != 1 {
			t.Errorf("encoding %s into a buffer of sizeHint's %d bytes allocates %v times, want 1", name, sizeHint(msg), n)
		}
	}
}
