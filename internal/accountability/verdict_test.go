package accountability

import (
	"errors"
	"testing"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

// alteredSig returns s under signature bytes that differ in one bit.
func alteredSig(s Signed) Signed {
	s.Sig = append(crypto.Signature(nil), s.Sig...)
	s.Sig[0] ^= 0x01
	return s
}

// TestLogIsTheVerdictSet walks one statement through the log: checked
// once, then known; refused under other signature bytes, which neither
// replace nor unseat the record; checked again once its instance is
// dropped.
func TestLogIsTheVerdictSet(t *testing.T) {
	signers := testSigners(t, 4)
	log := NewLog(signers[1], nil)
	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))

	for i := 0; i < 3; i++ {
		if !log.RecordVerify(a) {
			t.Fatal("valid statement refused")
		}
	}
	if log.SigChecks != 1 || log.SigKnown != 2 {
		t.Fatalf("%d checks and %d known after one statement three times, want 1 and 2", log.SigChecks, log.SigKnown)
	}
	if log.RecordVerify(alteredSig(a)) {
		t.Fatal("a statement the log holds was accepted under altered signature bytes")
	}
	if log.SigChecks != 2 || log.SigKnown != 2 {
		t.Fatalf("%d checks and %d known: the altered copy must go to the scheme", log.SigChecks, log.SigKnown)
	}
	if !log.RecordVerify(a) || log.SigChecks != 2 || log.Statements() != 1 {
		t.Fatal("the refused copy disturbed the record of the genuine one")
	}

	// The replica's own statement is in the log when it comes back.
	own, err := log.Sign(auxStmt(1, 1, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if own.Signer != signers[1].ID() || !own.Verify(signers[0]) {
		t.Fatal("Sign did not sign as the log's replica")
	}
	if !log.RecordVerify(own) || log.SigChecks != 2 {
		t.Fatalf("the replica's own statement went to the scheme (%d checks)", log.SigChecks)
	}

	log.DropInstance(a.Stmt.InstanceKey())
	if !log.RecordVerify(a) || log.SigChecks != 3 {
		t.Fatalf("%d checks: a statement of a dropped instance is new again", log.SigChecks)
	}
}

// quorumCert signs stmt as each signer and assembles the certificate.
func quorumCert(t *testing.T, stmt Statement, signers []*crypto.Signer) *Certificate {
	t.Helper()
	sigs := make([]Signed, len(signers))
	for i, s := range signers {
		var err error
		if sigs[i], err = SignStatement(s, stmt); err != nil {
			t.Fatal(err)
		}
	}
	cert, err := NewCertificate(stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// TestRecordVerifyCertificate: the certificate form asks the scheme only
// for signatures the log does not hold, keeps Certificate.Verify's rules,
// and records all of a certificate or none of it.
func TestRecordVerifyCertificate(t *testing.T) {
	signers := testSigners(t, 4)
	stmt := auxStmt(1, 1, 0, true)
	cert := quorumCert(t, stmt, signers[:3])

	log := NewLog(signers[3], nil)
	if !log.RecordVerify(cert.Sigs[0]) { // arrived as an AUX message before
		t.Fatal("valid vote refused")
	}
	if err := log.RecordVerifyCertificate(cert, types.Quorum(4)); err != nil {
		t.Fatalf("valid certificate refused: %v", err)
	}
	if log.SigChecks != 3 || log.SigKnown != 1 || log.Statements() != 3 {
		t.Fatalf("%d checks, %d known, %d statements; want 3, 1, 3", log.SigChecks, log.SigKnown, log.Statements())
	}
	if err := log.RecordVerifyCertificate(cert, types.Quorum(4)); err != nil || log.SigChecks != 3 {
		t.Fatalf("a certificate seen before cost %d checks (err %v)", log.SigChecks-3, err)
	}

	// One forged signature after two genuine ones.
	forged := &Certificate{Stmt: stmt, Sigs: append([]Signed(nil), cert.Sigs...)}
	forged.Sigs[2] = alteredSig(forged.Sigs[2])
	fresh := NewLog(signers[3], nil)
	if err := fresh.RecordVerifyCertificate(forged, types.Quorum(4)); !errors.Is(err, ErrCertSignature) {
		t.Fatalf("forged signature: err = %v, want ErrCertSignature", err)
	}
	if fresh.Statements() != 0 {
		t.Fatalf("%d statements of a rejected certificate recorded", fresh.Statements())
	}
	// In the log that holds the genuine vote too: the forged copy is not
	// known by its (signer, statement) alone.
	if err := log.RecordVerifyCertificate(forged, types.Quorum(4)); !errors.Is(err, ErrCertSignature) {
		t.Fatalf("forged copy of a held vote: err = %v, want ErrCertSignature", err)
	}

	// Structure and quorum rules are Certificate.Verify's, known or not.
	below := &Certificate{Stmt: stmt, Sigs: cert.Sigs[:2]}
	dup := &Certificate{Stmt: stmt, Sigs: []Signed{cert.Sigs[0], cert.Sigs[1], cert.Sigs[0]}}
	other, _ := SignStatement(signers[2], auxStmt(1, 1, 0, false))
	mismatch := &Certificate{Stmt: stmt, Sigs: []Signed{cert.Sigs[0], cert.Sigs[1], other}}
	for name, tc := range map[string]struct {
		cert *Certificate
		want error
	}{
		"below quorum":     {below, ErrCertQuorum},
		"duplicate signer": {dup, ErrCertDuplicate},
		"other statement":  {mismatch, ErrCertMismatch},
	} {
		if err := log.RecordVerifyCertificate(tc.cert, types.Quorum(4)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if err := tc.cert.Verify(signers[3], 4, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: Certificate.Verify err = %v, want %v", name, err, tc.want)
		}
	}
	member := func(id types.ReplicaID) bool { return id != signers[0].ID() }
	if err := cert.Verify(signers[3], 4, member); !errors.Is(err, ErrCertQuorum) {
		t.Errorf("membership filter: err = %v, want ErrCertQuorum", err)
	}
	// The caller names the count: the three votes are a ready certificate
	// at n=4 (2t+1 = 3) and at n=5 (3), not a decision certificate at n=5
	// (⌈2n/3⌉ = 4).
	if err := log.RecordVerifyCertificate(cert, 2*types.MaxClassicFaults(5)+1); err != nil {
		t.Errorf("2t+1 votes refused as a ready certificate: %v", err)
	}
	if err := log.RecordVerifyCertificate(cert, types.Quorum(5)); !errors.Is(err, ErrCertQuorum) {
		t.Errorf("2t+1 votes as a decision certificate: err = %v, want ErrCertQuorum", err)
	}
}

// TestVerifyCertificateRecordsNothingUntilRecord: a block is adopted whole
// or not at all, so what VerifyCertificate and Verify checked stays out of
// the log — not held, accusing nobody — until Record is handed it; a
// refused certificate adds nothing to what is collected.
func TestVerifyCertificateRecordsNothingUntilRecord(t *testing.T) {
	signers := testSigners(t, 4)
	var culprits int
	log := NewLog(signers[3], func(PoF) { culprits++ })
	first, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	if !log.RecordVerify(first) {
		t.Fatal("valid vote refused")
	}
	remote := quorumCert(t, auxStmt(1, 1, 0, false), signers[:3])
	forged := &Certificate{Stmt: remote.Stmt, Sigs: append([]Signed(nil), remote.Sigs...)}
	forged.Sigs[1] = alteredSig(forged.Sigs[1])
	single, _ := SignStatement(signers[1], auxStmt(1, 2, 0, true))

	var v Verified
	if err := log.VerifyCertificate(remote, types.Quorum(4), &v); err != nil {
		t.Fatal(err)
	}
	if err := log.VerifyCertificate(forged, types.Quorum(4), &v); !errors.Is(err, ErrCertSignature) {
		t.Fatalf("forged certificate: err = %v, want ErrCertSignature", err)
	}
	if !log.Verify(single, &v) || log.Verify(alteredSig(single), &v) {
		t.Fatal("single statement: the genuine one refused or the altered one accepted")
	}
	if log.Statements() != 1 || culprits != 0 {
		t.Fatalf("%d statements, %d culprits before Record; want 1, 0", log.Statements(), culprits)
	}
	log.Record(v)
	// signers[0]'s second vote completes a proof and is not stored beside
	// the first; the other two votes and the single statement are new.
	if log.Statements() != 4 || culprits != 1 {
		t.Fatalf("%d statements, %d culprits after Record; want 4, 1", log.Statements(), culprits)
	}
}

// TestEquivocationInsideCertificateOnly: the log holds a replica's vote;
// its second, conflicting vote never arrives as a message, only inside the
// other partition's certificate. The certificate is checked, the vote is
// new to the log, and the two make the PoF.
func TestEquivocationInsideCertificateOnly(t *testing.T) {
	signers := testSigners(t, 4)
	var culprits []types.ReplicaID
	log := NewLog(signers[3], func(p PoF) {
		if !p.Verify(signers[3]) {
			t.Errorf("PoF against %v does not verify", p.Culprit)
		}
		culprits = append(culprits, p.Culprit)
	})
	first, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	if !log.RecordVerify(first) {
		t.Fatal("valid vote refused")
	}
	remote := quorumCert(t, auxStmt(1, 1, 0, false), signers[:3])
	if err := log.RecordVerifyCertificate(remote, types.Quorum(4)); err != nil {
		t.Fatalf("the other partition's certificate refused: %v", err)
	}
	if len(culprits) != 1 || culprits[0] != signers[0].ID() {
		t.Fatalf("culprits = %v, want the replica that voted both ways", culprits)
	}
	if log.SigKnown != 0 {
		t.Fatalf("%d signatures taken as known: the conflicting vote shares only signer and slot with the held one", log.SigKnown)
	}
}

// TestRecordCertificateRefusesOtherStatements: signatures are checked over
// the certificate's statement, so a certificate that files a signature
// under any other statement — here two values "signed" by one honest
// replica, which recorded as they are would prove it deceitful — is refused
// whole and recorded not at all.
func TestRecordCertificateRefusesOtherStatements(t *testing.T) {
	signers := testSigners(t, 4)
	log := NewLog(signers[3], func(p PoF) { t.Errorf("replica %v accused", p.Culprit) })
	stmt := auxStmt(1, 1, 0, true)
	genuine, _ := SignStatement(signers[0], stmt)
	planted := Signed{Stmt: auxStmt(1, 1, 0, false), Signer: signers[1].ID(), Sig: crypto.Signature("unsigned")}
	err := log.RecordVerifyCertificate(&Certificate{Stmt: stmt, Sigs: []Signed{genuine, planted}}, 1)
	if !errors.Is(err, ErrCertMismatch) || log.Statements() != 0 {
		t.Fatalf("err = %v with %d statements recorded, want ErrCertMismatch and none", err, log.Statements())
	}
	own, _ := SignStatement(signers[1], stmt)
	if !log.RecordVerify(own) || log.ProvenCount() != 0 {
		t.Fatal("the named signer's real vote was refused or convicted it")
	}
}
