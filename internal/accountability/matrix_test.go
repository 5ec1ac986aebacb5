package accountability

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// schemeForms enumerates the conformance matrix: every scheme in
// signed-statement form, plus the aggregate form where the scheme
// implements crypto.Aggregator. Schemes without the capability are
// expected to fall back — that expectation is part of the matrix.
var schemeForms = []struct {
	kind      crypto.SchemeKind
	aggregate bool // request aggregate assembly
	expectAgg bool // the form NewCertificateFor must actually produce
}{
	{crypto.SchemeECDSA, false, false},
	{crypto.SchemeECDSA, true, false}, // no Aggregator: falls back
	{crypto.SchemeEd25519, false, false},
	{crypto.SchemeEd25519, true, false}, // no Aggregator: falls back
	{crypto.SchemeSim, false, false},
	{crypto.SchemeSim, true, true},
}

func matrixName(kind crypto.SchemeKind, aggregate bool) string {
	form := "signed"
	if aggregate {
		form = "aggregate"
	}
	return fmt.Sprintf("%v/%s", kind, form)
}

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
// scheme × form: valid quorums accept, sub-quorum and tampered
// certificates reject, membership filtering applies.
func TestCertificateMatrixVerify(t *testing.T) {
	const n = 7
	for _, tc := range schemeForms {
		t.Run(matrixName(tc.kind, tc.aggregate), func(t *testing.T) {
			signers, _, err := crypto.GenerateCluster(tc.kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			stmt := auxStmt(3, 1, 0, true)
			quorum := []types.ReplicaID{1, 2, 3, 5, 7}[:types.Quorum(n)]
			sigs := quorumSigs(t, signers, quorum, stmt)
			cert, err := NewCertificateFor(signers[0], stmt, sigs, tc.aggregate)
			if err != nil {
				t.Fatal(err)
			}
			if cert.IsAggregate() != tc.expectAgg {
				t.Fatalf("IsAggregate = %v, want %v", cert.IsAggregate(), tc.expectAgg)
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
			small, err := NewCertificateFor(signers[0], stmt, sigs[:types.Quorum(n)-1], tc.aggregate)
			if err != nil {
				t.Fatal(err)
			}
			if small.Verify(signers[6], n, nil) == nil {
				t.Fatal("sub-quorum certificate accepted")
			}
			// Tampering rejects: flip a byte of the signature material.
			bad := *cert
			if bad.Agg != nil {
				sig := append(crypto.Signature(nil), bad.Agg.Sig...)
				sig[0] ^= 1
				bad.Agg = &AggregateProof{Signers: bad.Agg.Signers, Sig: sig}
			} else {
				sigs := append([]Signed(nil), bad.Sigs...)
				tampered := append(crypto.Signature(nil), sigs[0].Sig...)
				tampered[0] ^= 1
				sigs[0].Sig = tampered
				bad.Sigs = sigs
			}
			if bad.Verify(signers[6], n, nil) == nil {
				t.Fatal("tampered certificate accepted")
			}
		})
	}
}

// TestCertificateMatrixCrossCheck drives PoF extraction across the
// matrix: conflicting certificates yield PoFs against exactly the
// intersection signers, in every form combination the scheme supports.
func TestCertificateMatrixCrossCheck(t *testing.T) {
	const n = 7
	for _, tc := range schemeForms {
		t.Run(matrixName(tc.kind, tc.aggregate), func(t *testing.T) {
			signers, _, err := crypto.GenerateCluster(tc.kind, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			sTrue := auxStmt(3, 1, 0, true)
			sFalse := auxStmt(3, 1, 0, false)
			// Quorums overlap in replicas 3, 4, 5: the provable equivocators.
			qa := []types.ReplicaID{1, 2, 3, 4, 5}
			qb := []types.ReplicaID{3, 4, 5, 6, 7}
			ca, err := NewCertificateFor(signers[0], sTrue, quorumSigs(t, signers, qa, sTrue), tc.aggregate)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := NewCertificateFor(signers[0], sFalse, quorumSigs(t, signers, qb, sFalse), tc.aggregate)
			if err != nil {
				t.Fatal(err)
			}
			pofs := CrossCheckWith(signers[6], ca, cb)
			want := []types.ReplicaID{3, 4, 5}
			if tc.expectAgg {
				if _, ok := signers[0].Scheme().(crypto.SignatureExtractor); !ok {
					// Aggregate form without extraction: no PoFs derivable.
					want = nil
				}
			}
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

// TestLogRecordCertificateEquivalence: feeding the log aggregate
// certificates surfaces the identical culprit set the signed-statement
// form does — the accountability-preservation core of the redesign.
func TestLogRecordCertificateEquivalence(t *testing.T) {
	const n = 7
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sTrue := auxStmt(9, 2, 1, true)
	sFalse := auxStmt(9, 2, 1, false)
	qa := []types.ReplicaID{1, 2, 3, 4, 5}
	qb := []types.ReplicaID{3, 4, 5, 6, 7}

	culprits := func(aggregate bool) []types.ReplicaID {
		ca, err := NewCertificateFor(signers[0], sTrue, quorumSigs(t, signers, qa, sTrue), aggregate)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := NewCertificateFor(signers[0], sFalse, quorumSigs(t, signers, qb, sFalse), aggregate)
		if err != nil {
			t.Fatal(err)
		}
		log := NewLog(signers[6], nil)
		for _, c := range []*Certificate{ca, cb} {
			if err := log.RecordVerifyCertificate(c, types.Quorum(n)); err != nil {
				t.Fatal(err)
			}
		}
		out := log.Culprits()
		types.SortReplicas(out)
		return out
	}

	signed := culprits(false)
	agg := culprits(true)
	if !reflect.DeepEqual(signed, agg) {
		t.Fatalf("culprit sets diverge: signed %v, aggregate %v", signed, agg)
	}
	if want := []types.ReplicaID{3, 4, 5}; !reflect.DeepEqual(signed, want) {
		t.Fatalf("culprits = %v, want %v", signed, want)
	}
}

// TestExtractSignedBitIdentical: expanding an aggregate certificate
// reproduces the exact Signed values that went in — same statements,
// same signers, byte-identical signatures.
func TestExtractSignedBitIdentical(t *testing.T) {
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	stmt := auxStmt(4, 0, 2, false)
	ids := []types.ReplicaID{1, 2, 4, 5}
	sigs := quorumSigs(t, signers, ids, stmt)
	cert, err := NewAggregateCertificate(signers[0], stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := cert.ExtractSigned(signers[2])
	if !ok {
		t.Fatal("extraction failed")
	}
	if !reflect.DeepEqual(back, sigs) {
		t.Fatalf("extracted statements differ:\n got %+v\nwant %+v", back, sigs)
	}
}

// BenchmarkCertVerify measures certificate verification per scheme ×
// form at the quorum sizes of n = 9, 18 and 90 committees. The sim
// aggregate rows verify by recomputing each constituent MAC, so their
// CPU cost stays linear — the constant-factor win is wire size (see
// the certs bench experiment), which is what the simulator's cost
// model charges.
func BenchmarkCertVerify(b *testing.B) {
	for _, quorum := range []int{6, 12, 60} {
		n := quorum // quorum signers suffice; Verify needs ≥ Quorum(n) of n
		for _, tc := range schemeForms {
			if tc.aggregate && !tc.expectAgg {
				continue // fallback duplicates the signed row
			}
			name := fmt.Sprintf("q%d/%s", quorum, matrixName(tc.kind, tc.aggregate))
			b.Run(name, func(b *testing.B) {
				signers, _, err := crypto.GenerateCluster(tc.kind, n, 1)
				if err != nil {
					b.Fatal(err)
				}
				stmt := auxStmt(1, 0, 0, true)
				ids := make([]types.ReplicaID, quorum)
				for i := range ids {
					ids[i] = types.ReplicaID(i + 1)
				}
				var sigs []Signed
				for _, id := range ids {
					s, err := SignStatement(signers[id-1], stmt)
					if err != nil {
						b.Fatal(err)
					}
					sigs = append(sigs, s)
				}
				cert, err := NewCertificateFor(signers[0], stmt, sigs, tc.aggregate)
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
