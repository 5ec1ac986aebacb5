package transport

import (
	"bytes"
	"encoding/gob"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/bincon"
	"github.com/zeroloss/zlb/internal/rbc"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// TestConsensusMessagesSurviveEnvelope sends one message of every type
// sbc.ContextInstanceOf knows through the gob envelope peers exchange. A
// type missing from RegisterWireTypes does not fail to compile or to send:
// the receiver counts a decode error and drops the connection. The set of
// types is read from the source of ContextInstanceOf, so a type added
// there must be added here, and the round trip then demands its
// registration.
func TestConsensusMessagesSurviveEnvelope(t *testing.T) {
	RegisterWireTypes()
	signed := accountability.Signed{
		Stmt:   accountability.Statement{Context: accountability.CtxMain, Kind: accountability.KindAux, Instance: 7 << 10, Slot: 2, Round: 1},
		Signer: 3,
		Sig:    []byte{1, 2, 3},
	}
	cert := &accountability.Certificate{Stmt: signed.Stmt, Sigs: []accountability.Signed{signed}}
	const ctx, inst = accountability.CtxMain, types.Instance(7 << 10)
	samples := map[string]simnet.Message{
		"*rbc.Init":         &rbc.Init{Stmt: signed, Payload: []byte("p"), ClaimedSigs: 1},
		"*rbc.Echo":         &rbc.Echo{Stmt: signed},
		"*rbc.Ready":        &rbc.Ready{Stmt: signed},
		"*rbc.PayloadReq":   &rbc.PayloadReq{Context: ctx, Instance: inst, Broadcaster: 2, Digest: types.Hash([]byte("p"))},
		"*rbc.PayloadResp":  &rbc.PayloadResp{Context: ctx, Instance: inst, Broadcaster: 2, Payload: []byte("p"), InitStmt: &signed},
		"*bincon.Est":       &bincon.Est{Context: ctx, Instance: inst, Slot: 2, Round: 1, Value: true},
		"*bincon.Coord":     &bincon.Coord{Stmt: signed},
		"*bincon.Aux":       &bincon.Aux{Stmt: signed},
		"*bincon.Decide":    &bincon.Decide{Context: ctx, Instance: inst, Slot: 2, Value: true, Cert: cert},
		"*bincon.DecideReq": &bincon.DecideReq{Context: ctx, Instance: inst, Slot: 2},
		"*sbc.ProposalReq":  &sbc.ProposalReq{Context: ctx, Instance: inst, Slot: 2},
		"*sbc.ProposalResp": &sbc.ProposalResp{Context: ctx, Instance: inst, Slot: 2, Payload: []byte("p"), Cert: cert, InitStmt: &signed},
	}

	for _, name := range contextInstanceOfCases(t) {
		// Package sbc writes its own types unqualified.
		key := name
		if _, ok := samples[key]; !ok {
			key = "*sbc." + name[1:]
		}
		msg, ok := samples[key]
		if !ok {
			t.Errorf("sbc.ContextInstanceOf routes %s: add a sample of it to this test", name)
			continue
		}
		delete(samples, key)
		if _, wi, ok := sbc.ContextInstanceOf(msg); !ok || wi != inst {
			t.Errorf("%s: ContextInstanceOf = (%v, %v), want instance %v", key, wi, ok, inst)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(envelope{From: 3, Msg: msg}); err != nil {
			t.Errorf("%s does not encode: %v (missing from RegisterWireTypes?)", key, err)
			continue
		}
		var got envelope
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Errorf("%s does not decode: %v", key, err)
			continue
		}
		if got.From != 3 || !reflect.DeepEqual(got.Msg, msg) {
			t.Errorf("%s changed in the envelope:\nsent %+v\ngot  %+v", key, msg, got.Msg)
		}
	}
	for key := range samples {
		t.Errorf("sample %s is no case of sbc.ContextInstanceOf", key)
	}
}

// contextInstanceOfCases returns the case types of the type switch in
// sbc.ContextInstanceOf, as written in its source ("*rbc.Init").
func contextInstanceOfCases(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "../sbc/routing.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if fn.Name.Name != "ContextInstanceOf" {
			return false
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					names = append(names, exprString(e))
				}
			}
			return true
		})
		return false
	})
	if len(names) == 0 {
		t.Fatal("no case found in sbc.ContextInstanceOf: did it move out of routing.go?")
	}
	return names
}

// exprString renders a case type: *pkg.Name or *Name.
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
