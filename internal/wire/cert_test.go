package wire

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/zeroloss/zlb/internal/accountability"
	"github.com/zeroloss/zlb/internal/crypto"
	"github.com/zeroloss/zlb/internal/types"
)

var certSchemes = []crypto.SchemeKind{crypto.SchemeECDSA, crypto.SchemeEd25519, crypto.SchemeSim}

// certFixture builds a quorum certificate over a fresh n-replica cluster
// of the given scheme.
func certFixture(t testing.TB, kind crypto.SchemeKind, n int) *accountability.Certificate {
	t.Helper()
	signers, _, err := crypto.GenerateCluster(kind, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindAux,
		Instance: 7,
		Slot:     2,
		Round:    1,
		Value:    accountability.BoolDigest(true),
	}
	var sigs []accountability.Signed
	for _, s := range signers[:types.Quorum(n)] {
		sg, err := accountability.SignStatement(s, stmt)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sg)
	}
	cert, err := accountability.NewCertificate(stmt, sigs)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestCertificateRoundTripSigned(t *testing.T) {
	for _, kind := range certSchemes {
		cert := certFixture(t, kind, 4)
		data := EncodeCertificate(kind, cert)
		back, err := DecodeCertificate(kind, data)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !reflect.DeepEqual(back, cert) {
			t.Fatalf("%v: round trip mismatch", kind)
		}
		// Decode → re-encode is byte-identical: the codec is canonical.
		if again := EncodeCertificate(kind, back); !bytes.Equal(again, data) {
			t.Fatalf("%v: re-encode differs", kind)
		}
	}
}

// corpusSeed reads the one []byte argument of a committed fuzz corpus file.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeCertificate/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, arg, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	arg = strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")")
	seed, err := strconv.Unquote(arg)
	if !ok || err != nil {
		t.Fatalf("corpus file %s is not one []byte literal: %v", name, err)
	}
	return []byte(seed)
}

func TestCertificateDecodeRejections(t *testing.T) {
	for _, kind := range certSchemes {
		other := certSchemes[0]
		if kind == other {
			other = certSchemes[1]
		}
		data := EncodeCertificate(kind, certFixture(t, kind, 4))

		bad := append([]byte(nil), data...)
		bad[0] = 2 // future format version
		if _, err := DecodeCertificate(kind, bad); !errors.Is(err, ErrCertVersion) {
			t.Fatalf("%v: future version accepted: %v", kind, err)
		}

		bad = append([]byte(nil), data...)
		bad[1] = 99 // unknown scheme kind
		if _, err := DecodeCertificate(kind, bad); !errors.Is(err, ErrCertScheme) {
			t.Fatalf("%v: unknown kind accepted: %v", kind, err)
		}

		// Valid kind byte, but not the kind this deployment runs.
		if _, err := DecodeCertificate(other, data); !errors.Is(err, ErrCertScheme) {
			t.Fatalf("%v: cross-scheme certificate accepted: %v", kind, err)
		}

		if _, err := DecodeCertificate(kind, data[:len(data)-1]); err == nil {
			t.Fatalf("%v: truncated certificate accepted", kind)
		}
		if _, err := DecodeCertificate(kind, data[:2]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%v: truncated header accepted", kind)
		}

		// Unknown form byte.
		bad = append([]byte(nil), data...)
		bad[2] = 7
		if _, err := DecodeCertificate(kind, bad); err == nil {
			t.Fatalf("%v: unknown form accepted", kind)
		}

		if _, err := DecodeCertificate(kind, append(data, 0)); err == nil {
			t.Fatalf("%v: trailing bytes accepted", kind)
		}
	}

	// Form byte 1, the retired aggregate form: the committed seed decoded
	// before the form was removed, and is refused by name since.
	retired := corpusSeed(t, "aggregate-small")
	if _, err := DecodeCertificate(crypto.SchemeSim, retired); err == nil || !strings.Contains(err.Error(), "form 1") {
		t.Fatalf("retired aggregate form not refused by name: %v", err)
	}
}

func FuzzDecodeCertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{certFormatV1, byte(crypto.SchemeSim), 1}) // the retired form byte
	signers, _, err := crypto.GenerateCluster(crypto.SchemeSim, 4, 1)
	if err != nil {
		f.Fatal(err)
	}
	stmt := accountability.Statement{
		Context:  accountability.CtxMain,
		Kind:     accountability.KindReady,
		Instance: 3,
		Slot:     1,
		Value:    types.Hash([]byte("block")),
	}
	var sigs []accountability.Signed
	for _, s := range signers[:3] {
		sg, err := accountability.SignStatement(s, stmt)
		if err != nil {
			f.Fatal(err)
		}
		sigs = append(sigs, sg)
	}
	cert, err := accountability.NewCertificate(stmt, sigs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeCertificate(crypto.SchemeSim, cert))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCertificate(crypto.SchemeSim, data)
		if err != nil {
			return
		}
		// A decoded certificate re-encodes byte-identically: the format
		// admits exactly one encoding per certificate.
		if again := EncodeCertificate(crypto.SchemeSim, c); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from input:\n  in  %x\n  out %x", data, again)
		}
	})
}
