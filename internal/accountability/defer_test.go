package accountability

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// logCall is one call into the log, as a replica makes it.
type logCall struct {
	op   string // "defer", "verify", "cert", "sign" or "drop"
	s    Signed
	cert *Certificate
	inst InstanceKey
}

func (c logCall) String() string {
	switch c.op {
	case "cert":
		return fmt.Sprintf("cert %v ×%d", c.cert.Stmt, len(c.cert.Sigs))
	case "drop":
		return fmt.Sprintf("drop %v", c.inst)
	}
	return fmt.Sprintf("%s %v by %v", c.op, c.s.Stmt, c.s.Signer)
}

// apply makes the call. With deferring false a "defer" is a RecordVerify:
// the reference log, which checks every vote on arrival.
func (c logCall) apply(log *Log, deferring bool) {
	switch c.op {
	case "defer":
		if deferring {
			log.Defer(c.s)
		} else {
			log.RecordVerify(c.s)
		}
	case "verify":
		log.RecordVerify(c.s)
	case "cert":
		_ = log.RecordVerifyCertificate(c.cert, 1) // a refused one records nothing, on both logs
	case "sign":
		if _, err := log.Sign(c.s.Stmt); err != nil {
			panic(err)
		}
	case "drop":
		log.DropInstance(c.inst)
	}
}

// fired is a proof of fraud as the tests compare it: on which call, against
// whom, from which two statements in which order.
type fired struct {
	call    int
	culprit types.ReplicaID
	a, b    Statement
}

// lockstep makes every call on a log that defers and on the reference log,
// and fails at the first call after which their culprits or the proofs
// they fired differ. It returns the deferring log.
func lockstep(t *testing.T, self *crypto.Signer, calls []logCall) *Log {
	t.Helper()
	call := 0
	var byDefer, byRef []fired
	observe := func(into *[]fired) func(PoF) {
		return func(p PoF) {
			if !p.Verify(self) {
				t.Errorf("call %d: the proof against %v does not verify", call, p.Culprit)
			}
			*into = append(*into, fired{call, p.Culprit, p.A.Stmt, p.B.Stmt})
		}
	}
	def, ref := NewLog(self, observe(&byDefer)), NewLog(self, observe(&byRef))
	for ; call < len(calls); call++ {
		calls[call].apply(def, true)
		calls[call].apply(ref, false)
		if !reflect.DeepEqual(byDefer, byRef) || !reflect.DeepEqual(def.Culprits(), ref.Culprits()) {
			t.Fatalf("after call %d (%v): proofs %v, culprits %v; checking every vote: %v, %v",
				call, calls[call], byDefer, def.Culprits(), byRef, ref.Culprits())
		}
	}
	return def
}

// TestDeferMatchesCheckingEverything walks the orderings in which a held
// vote meets the statements that settle it. In each, the log that holds
// proves the same culprits on the same calls, with the same statement as
// the first half of the proof, as a log that checks every vote on arrival;
// and it checks only what became evidence or what a certificate carried.
func TestDeferMatchesCheckingEverything(t *testing.T) {
	signers := testSigners(t, 4)
	self := signers[3]
	yes, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	no, _ := SignStatement(signers[0], auxStmt(1, 1, 0, false))
	cert := quorumCert(t, yes.Stmt, signers[:3])
	call := func(op string, s Signed) logCall { return logCall{op: op, s: s} }
	for _, tc := range []struct {
		name    string
		calls   []logCall
		culprit bool
		checks  uint64
		held    int
	}{
		{"held then conflicting recorded", []logCall{call("defer", yes), call("verify", no)}, true, 2, 0},
		{"recorded then conflicting held", []logCall{call("verify", yes), call("defer", no)}, true, 2, 0},
		{"both held", []logCall{call("defer", yes), call("defer", no)}, true, 2, 0},
		{"held with a bad signature then a valid conflict", []logCall{call("defer", alteredSig(yes)), call("verify", no)}, false, 2, 0},
		{"held under a bad signature, then held genuine, then a valid conflict", []logCall{call("defer", alteredSig(yes)), call("defer", yes), call("verify", no)}, true, 2, 0},
		{"held then the instance dropped", []logCall{call("defer", yes), {op: "drop", inst: yes.Stmt.InstanceKey()}, call("verify", no)}, false, 1, 0},
		{"held then the same vote inside a certificate", []logCall{call("defer", yes), {op: "cert", cert: cert}, call("verify", yes)}, false, 3, 0},
		{"held, and again", []logCall{call("defer", yes), call("defer", yes)}, false, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := lockstep(t, self, tc.calls)
			if got := log.ProvenCount() == 1; got != tc.culprit {
				t.Errorf("signer proven: %v, want %v", got, tc.culprit)
			}
			if log.SigChecks != tc.checks || log.Held() != tc.held {
				t.Errorf("%d checks, %d held; want %d, %d", log.SigChecks, log.Held(), tc.checks, tc.held)
			}
		})
	}
}

// FuzzDeferMatchesCheckingEverything feeds call sequences — the votes of
// three peers and of the log's own replica, two instances, two rounds,
// both values, genuine or forged signatures — through Defer, RecordVerify,
// a certificate's Record, Sign and DropInstance, and holds the log after
// every call against one that checks every vote on arrival (lockstep).
// Each call is three bytes: the call, the statement and its signer, and
// which signatures are forged (for a certificate, also who signs it).
func FuzzDeferMatchesCheckingEverything(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		seq := make([]byte, 3*48)
		rng.Read(seq)
		f.Add(seq)
	}
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	self := signers[3]
	// Every vote the sequences use, signed once: [signer][instance][round][value].
	var votes [4][2][2][2]Signed
	for i, s := range signers {
		for inst := 0; inst < 2; inst++ {
			for round := 0; round < 2; round++ {
				for v := 0; v < 2; v++ {
					if votes[i][inst][round][v], err = SignStatement(s, auxStmt(types.Instance(inst+1), 1, types.Round(round), v == 1)); err != nil {
						f.Fatal(err)
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seq []byte) {
		var calls []logCall
		for ; len(seq) >= 3; seq = seq[3:] {
			what, forge := seq[1], seq[2]
			inst, round, v, signer := what&1, what>>1&1, what>>2&1, what>>3%4
			vote := func(i byte, forged bool) Signed {
				s := votes[i][inst][round][v]
				if forged {
					s = alteredSig(s)
				}
				return s
			}
			switch seq[0] % 5 {
			case 0:
				calls = append(calls, logCall{op: "defer", s: vote(signer, forge&1 == 1)})
			case 1:
				calls = append(calls, logCall{op: "verify", s: vote(signer, forge&1 == 1)})
			case 2:
				var sigs []Signed
				for i := byte(0); i < 4; i++ {
					if forge>>i&1 == 1 {
						sigs = append(sigs, vote(i, forge>>(i+4)&1 == 1))
					}
				}
				if len(sigs) > 0 {
					calls = append(calls, logCall{op: "cert", cert: &Certificate{Stmt: sigs[0].Stmt, Sigs: sigs}})
				}
			case 3:
				calls = append(calls, logCall{op: "sign", s: votes[3][inst][round][v]})
			case 4:
				calls = append(calls, logCall{op: "drop", inst: InstanceKey{Context: CtxMain, Instance: types.Instance(inst + 1)}})
			}
		}
		lockstep(t, self, calls)
	})
}
