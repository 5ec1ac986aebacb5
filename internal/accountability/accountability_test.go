package accountability

import (
	"testing"
	"testing/quick"

	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

func testSigners(t *testing.T, n int) []*crypto.Signer {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(crypto.SchemeEd25519, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return signers
}

func auxStmt(inst types.Instance, slot uint32, round types.Round, v bool) Statement {
	return Statement{
		Context:  CtxMain,
		Kind:     KindAux,
		Instance: inst,
		Slot:     slot,
		Round:    round,
		Value:    BoolDigest(v),
	}
}

func TestStatementEncodeRoundTrip(t *testing.T) {
	s := Statement{
		Context:  CtxExclusion,
		Kind:     KindReady,
		Instance: 77,
		Slot:     12,
		Round:    3,
		Value:    types.Hash([]byte("payload")),
	}
	back, err := DecodeStatement(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, s)
	}
	if _, err := DecodeStatement([]byte("short")); err == nil {
		t.Fatal("short encoding accepted")
	}
}

// Property: distinct statements have distinct digests (encode injective
// over the fixed-width fields).
func TestStatementDigestInjective(t *testing.T) {
	f := func(i1, i2 uint16, s1, s2 uint8, r1, r2 uint8, v1, v2 bool) bool {
		a := auxStmt(types.Instance(i1), uint32(s1), types.Round(r1), v1)
		b := auxStmt(types.Instance(i2), uint32(s2), types.Round(r2), v2)
		if a == b {
			return a.Digest() == b.Digest()
		}
		return a.Digest() != b.Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPoFConstruction(t *testing.T) {
	signers := testSigners(t, 4)
	culprit := signers[0]
	a, err := SignStatement(culprit, auxStmt(1, 2, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SignStatement(culprit, auxStmt(1, 2, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	pof, err := NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pof.Culprit != culprit.ID() {
		t.Fatalf("culprit %v, want %v", pof.Culprit, culprit.ID())
	}
	if !pof.Verify(signers[1]) {
		t.Fatal("valid PoF rejected")
	}
}

func TestPoFRejectsNonEquivocation(t *testing.T) {
	signers := testSigners(t, 4)
	s0 := signers[0]
	s1 := signers[1]
	a, _ := SignStatement(s0, auxStmt(1, 2, 0, true))
	sameValue, _ := SignStatement(s0, auxStmt(1, 2, 0, true))
	if _, err := NewPoF(a, sameValue); err == nil {
		t.Fatal("same-value PoF accepted")
	}
	otherRound, _ := SignStatement(s0, auxStmt(1, 2, 1, false))
	if _, err := NewPoF(a, otherRound); err == nil {
		t.Fatal("cross-round PoF accepted (different slot)")
	}
	otherSigner, _ := SignStatement(s1, auxStmt(1, 2, 0, false))
	if _, err := NewPoF(a, otherSigner); err == nil {
		t.Fatal("cross-signer PoF accepted")
	}
}

// TestPoFUnforgeable: a PoF against an honest replica cannot be built
// from forged signatures.
func TestPoFUnforgeable(t *testing.T) {
	signers := testSigners(t, 4)
	honest := signers[0]
	real, _ := SignStatement(honest, auxStmt(1, 2, 0, true))
	forged := Signed{
		Stmt:   auxStmt(1, 2, 0, false),
		Signer: honest.ID(),
		Sig:    append(crypto.Signature(nil), real.Sig...), // wrong stmt
	}
	pof := PoF{Culprit: honest.ID(), A: real, B: forged}
	if pof.Verify(signers[1]) {
		t.Fatal("forged PoF verified against an honest replica")
	}
}

func TestCertificateVerify(t *testing.T) {
	signers := testSigners(t, 7)
	stmt := auxStmt(3, 1, 0, true)
	var sigs []Signed
	for _, s := range signers[:5] { // quorum(7)=5
		signed, err := SignStatement(s, stmt)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, signed)
	}
	cert, err := NewCertificate(stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(signers[6], 7, nil); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	// Below quorum.
	small, _ := NewCertificate(stmt, sigs[:4])
	if err := small.Verify(signers[6], 7, nil); err == nil {
		t.Fatal("sub-quorum certificate accepted")
	}
	// Duplicate signer.
	if _, err := NewCertificate(stmt, append(sigs, sigs[0])); err == nil {
		t.Fatal("duplicate-signer certificate accepted")
	}
	// Membership filter: discarding two signers drops below ⌈2·7/3⌉.
	member := func(id types.ReplicaID) bool { return id != 1 && id != 2 }
	if err := cert.Verify(signers[6], 7, member); err == nil {
		t.Fatal("certificate passed with filtered signers below quorum")
	}
}

func TestCrossCheckExposesIntersection(t *testing.T) {
	signers := testSigners(t, 9)
	stmtTrue := auxStmt(5, 4, 0, true)
	stmtFalse := auxStmt(5, 4, 0, false)

	// Partition A's cert: replicas 1-6 vote true; partition B's: 4-9 vote
	// false. The overlap 4,5,6 are equivocators.
	var sigsA, sigsB []Signed
	for _, s := range signers[0:6] {
		signed, _ := SignStatement(s, stmtTrue)
		sigsA = append(sigsA, signed)
	}
	for _, s := range signers[3:9] {
		signed, _ := SignStatement(s, stmtFalse)
		sigsB = append(sigsB, signed)
	}
	certA, _ := NewCertificate(stmtTrue, sigsA)
	certB, _ := NewCertificate(stmtFalse, sigsB)

	pofs := CrossCheck(certA, certB)
	if len(pofs) != 3 {
		t.Fatalf("cross-check found %d equivocators, want 3", len(pofs))
	}
	want := map[types.ReplicaID]bool{4: true, 5: true, 6: true}
	for _, p := range pofs {
		if !want[p.Culprit] {
			t.Fatalf("unexpected culprit %v", p.Culprit)
		}
		if !p.Verify(signers[0]) {
			t.Fatalf("cross-check PoF does not verify")
		}
	}
	// Same-value certs expose nothing.
	if got := CrossCheck(certA, certA); got != nil {
		t.Fatalf("self cross-check produced %d PoFs", len(got))
	}
}

func TestLogDetectsEquivocation(t *testing.T) {
	signers := testSigners(t, 4)
	var fired []types.ReplicaID
	log := NewLog(signers[1], func(p PoF) { fired = append(fired, p.Culprit) })

	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	b, _ := SignStatement(signers[0], auxStmt(1, 1, 0, false))
	if pof := log.record(a); pof != nil {
		t.Fatal("single statement produced a PoF")
	}
	if pof := log.record(a); pof != nil {
		t.Fatal("duplicate statement produced a PoF")
	}
	pof := log.record(b)
	if pof == nil || pof.Culprit != signers[0].ID() {
		t.Fatal("equivocation not detected")
	}
	if len(fired) != 1 {
		t.Fatalf("callback fired %d times, want 1", len(fired))
	}
	// Culprit reported once even with further evidence.
	c, _ := SignStatement(signers[0], auxStmt(1, 1, 1, true))
	d, _ := SignStatement(signers[0], auxStmt(1, 1, 1, false))
	log.record(c)
	log.record(d)
	if len(fired) != 1 {
		t.Fatalf("callback fired %d times after more evidence, want 1", len(fired))
	}
	if log.CulpritCount() != 1 {
		t.Fatalf("culprits %d, want 1", log.CulpritCount())
	}
}

func TestLogForgetAndAddPoF(t *testing.T) {
	signers := testSigners(t, 4)
	log := NewLog(signers[1], nil)
	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	b, _ := SignStatement(signers[0], auxStmt(1, 1, 0, false))
	pof, _ := NewPoF(a, b)
	if !log.AddPoF(pof) {
		t.Fatal("fresh PoF not added")
	}
	if log.AddPoF(pof) {
		t.Fatal("duplicate PoF added")
	}
	if _, ok := log.PoFFor(signers[0].ID()); !ok {
		t.Fatal("PoF not retrievable")
	}
	log.Forget([]types.ReplicaID{signers[0].ID()})
	if log.CulpritCount() != 0 {
		t.Fatal("forget did not clear the culprit")
	}
}

// TestLogExactFaultThresholdCulprits drives the boundary the exclusion
// logic keys on: two forked quorum certificates over n=9 whose signer
// sets overlap in exactly n/3 replicas. Cross-checking must surface
// exactly FaultThreshold(9)=3 culprits, and feeding the log the same
// proofs repeatedly — as duplicates or as raw certificate statements —
// must not inflate the count.
func TestLogExactFaultThresholdCulprits(t *testing.T) {
	const n = 9
	signers := testSigners(t, n)
	stmtTrue := auxStmt(5, 4, 0, true)
	stmtFalse := auxStmt(5, 4, 0, false)
	var sigsA, sigsB []Signed
	for _, s := range signers[0:6] { // quorum(9)=6
		signed, _ := SignStatement(s, stmtTrue)
		sigsA = append(sigsA, signed)
	}
	for _, s := range signers[3:9] {
		signed, _ := SignStatement(s, stmtFalse)
		sigsB = append(sigsB, signed)
	}
	certA, _ := NewCertificate(stmtTrue, sigsA)
	certB, _ := NewCertificate(stmtFalse, sigsB)

	pofs := CrossCheck(certA, certB)
	if want := types.FaultThreshold(n); len(pofs) != want {
		t.Fatalf("cross-check found %d culprits, want exactly n/3 = %d", len(pofs), want)
	}

	var fired int
	log := NewLog(signers[0], func(PoF) { fired++ })
	for _, p := range pofs {
		if !log.AddPoF(p) {
			t.Fatalf("fresh PoF for %v rejected", p.Culprit)
		}
	}
	// The same proofs again, and the same equivocations rediscovered from
	// the certificates themselves, are all duplicates.
	for _, p := range pofs {
		if log.AddPoF(p) {
			t.Fatalf("duplicate PoF for %v re-added", p.Culprit)
		}
	}
	for _, c := range []*Certificate{certA, certB} {
		if err := log.RecordVerifyCertificate(c, types.Quorum(n)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.CulpritCount(), types.FaultThreshold(n); got != want {
		t.Fatalf("culprit count %d, want exactly %d", got, want)
	}
	if fired != types.FaultThreshold(n) {
		t.Fatalf("onPoF fired %d times, want %d", fired, types.FaultThreshold(n))
	}
}

// TestLogDuplicatePoFsSamePair pins that two proofs built from the same
// statement pair — including the arguments swapped — count as one culprit.
func TestLogDuplicatePoFsSamePair(t *testing.T) {
	signers := testSigners(t, 4)
	var fired int
	log := NewLog(signers[1], func(PoF) { fired++ })
	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	b, _ := SignStatement(signers[0], auxStmt(1, 1, 0, false))
	p1, err := NewPoF(a, b)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPoF(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !log.AddPoF(p1) {
		t.Fatal("fresh PoF rejected")
	}
	if log.AddPoF(p2) {
		t.Fatal("swapped-pair PoF for the same culprit re-added")
	}
	if fired != 1 || log.CulpritCount() != 1 {
		t.Fatalf("fired=%d culprits=%d, want 1/1", fired, log.CulpritCount())
	}
}

// TestLogPostExclusionIdempotence pins the edge the conformance checker
// leans on: once a culprit's proofs are handled by a completed membership
// change (Forget), late-arriving evidence — gossiped PoFs still in
// flight, equivocations rediscovered while replaying certificates during
// catch-up — must neither resurrect the culprit nor re-fire onPoF, which
// would spuriously restart an exclusion that already happened.
func TestLogPostExclusionIdempotence(t *testing.T) {
	signers := testSigners(t, 4)
	culprit := signers[0].ID()
	var fired int
	log := NewLog(signers[1], func(PoF) { fired++ })

	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	b, _ := SignStatement(signers[0], auxStmt(1, 1, 0, false))
	log.record(a)
	if pof := log.record(b); pof == nil {
		t.Fatal("equivocation not detected")
	}
	pof, _ := log.PoFFor(culprit)
	log.Forget([]types.ReplicaID{culprit})
	if !log.Treated(culprit) {
		t.Fatal("forgotten culprit not marked treated")
	}
	if log.CulpritCount() != 0 {
		t.Fatal("forget did not clear the culprit")
	}

	// Late gossip of the proof that triggered the exclusion.
	if log.AddPoF(pof) {
		t.Fatal("post-exclusion PoF re-added")
	}
	// Fresh equivocation evidence from a different round, e.g. inside a
	// certificate replayed during catch-up.
	c, _ := SignStatement(signers[0], auxStmt(1, 1, 1, true))
	d, _ := SignStatement(signers[0], auxStmt(1, 1, 1, false))
	log.record(c)
	if got := log.record(d); got != nil {
		t.Fatal("post-exclusion equivocation produced a PoF")
	}
	if fired != 1 {
		t.Fatalf("onPoF fired %d times, want 1 (exclusion is idempotent)", fired)
	}
	if log.CulpritCount() != 0 {
		t.Fatalf("culprit resurrected after exclusion: %v", log.Culprits())
	}

	// An unrelated culprit is still detected normally.
	e, _ := SignStatement(signers[2], auxStmt(1, 1, 0, true))
	f, _ := SignStatement(signers[2], auxStmt(1, 1, 0, false))
	log.record(e)
	if got := log.record(f); got == nil || got.Culprit != signers[2].ID() {
		t.Fatal("new culprit not detected after an exclusion")
	}
	if fired != 2 || log.CulpritCount() != 1 {
		t.Fatalf("fired=%d culprits=%d, want 2/1", fired, log.CulpritCount())
	}
}

func TestRecordVerifyRejectsBadSignatures(t *testing.T) {
	signers := testSigners(t, 4)
	log := NewLog(signers[1], nil)
	a, _ := SignStatement(signers[0], auxStmt(1, 1, 0, true))
	a.Sig = append(crypto.Signature(nil), a.Sig...)
	a.Sig[0] ^= 0xff
	if log.RecordVerify(a) {
		t.Fatal("invalid signature recorded")
	}
}

func TestBoolDigest(t *testing.T) {
	if DigestBool(BoolDigest(true)) != true || DigestBool(BoolDigest(false)) != false {
		t.Fatal("bool digest round trip")
	}
	if BoolDigest(true) == BoolDigest(false) {
		t.Fatal("bool digests collide")
	}
}

func TestKindAndStatementStrings(t *testing.T) {
	for _, k := range []Kind{KindInit, KindEcho, KindReady, KindCoord, KindAux, KindConfirm} {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("kind %d has no name", k)
		}
	}
	s := auxStmt(1, 2, 3, true)
	if s.String() == "" {
		t.Fatal("empty statement string")
	}
}
