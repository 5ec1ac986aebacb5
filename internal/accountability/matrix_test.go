package accountability

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// matrixSchemes is the conformance matrix's one axis: every scheme builds
// and checks the same quorum of signed statements. ECDSA lacks
// crypto.BatchVerifier, so it also covers verifyVotes' per-signature path.
var matrixSchemes = []crypto.SchemeKind{crypto.SchemeECDSA, crypto.SchemeEd25519, crypto.SchemeSim}

func matrixName(kind crypto.SchemeKind) string { return fmt.Sprintf("%v/signed", kind) }

func quorumSigs(t *testing.T, signers []*crypto.Signer, ids []types.ReplicaID, stmt Statement) []Signed {
	t.Helper()
	var sigs []Signed
	for _, id := range ids {
		s, err := SignStatement(signers[id-1], stmt)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, s)
	}
	return sigs
}

// TestCertificateMatrixVerify drives Certificate.Verify across every
// scheme: valid quorums accept, sub-quorum and tampered certificates
// reject, membership filtering applies.
func TestCertificateMatrixVerify(t *testing.T) {
	const n = 7
	for _, kind := range matrixSchemes {
		t.Run(matrixName(kind), func(t *testing.T) {
			signers, _, err := crypto.GenerateCluster(kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			stmt := auxStmt(3, 1, 0, true)
			quorum := []types.ReplicaID{1, 2, 3, 5, 7}[:types.Quorum(n)]
			sigs := quorumSigs(t, signers, quorum, stmt)
			cert, err := NewCertificate(stmt, sigs)
			if err != nil {
				t.Fatal(err)
			}
			if err := cert.Verify(signers[6], n, nil); err != nil {
				t.Fatalf("valid certificate rejected: %v", err)
			}
			if got, want := cert.SignerCount(nil), len(quorum); got != want {
				t.Fatalf("SignerCount = %d, want %d", got, want)
			}
			// Membership filtering: exclude one quorum signer → below quorum.
			excluded := quorum[0]
			err = cert.Verify(signers[6], n, func(id types.ReplicaID) bool { return id != excluded })
			if err == nil {
				t.Fatal("quorum reached without an excluded signer's vote")
			}
			// Sub-quorum certificate rejects.
			small, err := NewCertificate(stmt, sigs[:types.Quorum(n)-1])
			if err != nil {
				t.Fatal(err)
			}
			if small.Verify(signers[6], n, nil) == nil {
				t.Fatal("sub-quorum certificate accepted")
			}
			// Tampering rejects: flip a byte of the signature material.
			bad := *cert
			bad.Sigs = append([]Signed(nil), cert.Sigs...)
			tampered := append(crypto.Signature(nil), bad.Sigs[0].Sig...)
			tampered[0] ^= 1
			bad.Sigs[0].Sig = tampered
			if bad.Verify(signers[6], n, nil) == nil {
				t.Fatal("tampered certificate accepted")
			}
		})
	}
}

// TestCertificateMatrixCrossCheck drives PoF extraction across the
// matrix: conflicting certificates yield PoFs against exactly the
// intersection signers.
func TestCertificateMatrixCrossCheck(t *testing.T) {
	const n = 7
	for _, kind := range matrixSchemes {
		t.Run(matrixName(kind), func(t *testing.T) {
			signers, _, err := crypto.GenerateCluster(kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			sTrue := auxStmt(3, 1, 0, true)
			sFalse := auxStmt(3, 1, 0, false)
			// Quorums overlap in replicas 3, 4, 5: the provable equivocators.
			qa := []types.ReplicaID{1, 2, 3, 4, 5}
			qb := []types.ReplicaID{3, 4, 5, 6, 7}
			ca, err := NewCertificate(sTrue, quorumSigs(t, signers, qa, sTrue))
			if err != nil {
				t.Fatal(err)
			}
			cb, err := NewCertificate(sFalse, quorumSigs(t, signers, qb, sFalse))
			if err != nil {
				t.Fatal(err)
			}
			pofs := CrossCheck(ca, cb)
			want := []types.ReplicaID{3, 4, 5}
			var got []types.ReplicaID
			for _, p := range pofs {
				if !p.Verify(signers[6]) {
					t.Fatalf("extracted PoF fails verification: %v", p)
				}
				got = append(got, p.Culprit)
			}
			types.SortReplicas(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("culprits = %v, want %v", got, want)
			}
		})
	}
}

// TestLogRecordCertificateEquivalence: the log, fed two conflicting
// certificates, proves exactly the culprits CrossCheck — the paper's
// step, kept as the reference — extracts from the same pair.
func TestLogRecordCertificateEquivalence(t *testing.T) {
	const n = 7
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sTrue := auxStmt(9, 2, 1, true)
	sFalse := auxStmt(9, 2, 1, false)
	ca, err := NewCertificate(sTrue, quorumSigs(t, signers, []types.ReplicaID{1, 2, 3, 4, 5}, sTrue))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCertificate(sFalse, quorumSigs(t, signers, []types.ReplicaID{3, 4, 5, 6, 7}, sFalse))
	if err != nil {
		t.Fatal(err)
	}
	log := NewLog(signers[6], nil)
	for _, c := range []*Certificate{ca, cb} {
		if err := log.RecordVerifyCertificate(c, types.Quorum(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := log.Culprits()
	types.SortReplicas(got)
	var want []types.ReplicaID
	for _, p := range CrossCheck(ca, cb) {
		want = append(want, p.Culprit)
	}
	types.SortReplicas(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log culprits %v, CrossCheck culprits %v", got, want)
	}
	if want := []types.ReplicaID{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("culprits = %v, want %v", got, want)
	}
}

// BenchmarkCertVerify measures certificate verification per scheme at the
// quorum sizes of n = 9, 18 and 90 committees.
func BenchmarkCertVerify(b *testing.B) {
	for _, quorum := range []int{6, 12, 60} {
		n := quorum // quorum signers suffice; Verify needs ≥ Quorum(n) of n
		for _, kind := range matrixSchemes {
			name := fmt.Sprintf("q%d/%s", quorum, matrixName(kind))
			b.Run(name, func(b *testing.B) {
				signers, _, err := crypto.GenerateCluster(kind, n, 1)
				if err != nil {
					b.Fatal(err)
				}
				stmt := auxStmt(1, 0, 0, true)
				var sigs []Signed
				for _, s := range signers {
					sg, err := SignStatement(s, stmt)
					if err != nil {
						b.Fatal(err)
					}
					sigs = append(sigs, sg)
				}
				cert, err := NewCertificate(stmt, sigs)
				if err != nil {
					b.Fatal(err)
				}
				v := signers[len(signers)-1]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cert.Verify(v, n, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
