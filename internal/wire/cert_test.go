package wire_test

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
	"github.com/zeroloss/zlb/internal/wire"
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

// The certificate codec lives beside its type, in internal/accountability
// (which imports this package); its tests stay with the other layouts.

func encodeCertificate(c *accountability.Certificate) []byte {
	b, _ := c.AppendBinary(nil)
	return b
}

func decodeCertificate(data []byte) (*accountability.Certificate, error) {
	return wire.Decode(data, accountability.ReadCertificate)
}

func TestCertificateRoundTripSigned(t *testing.T) {
	for _, kind := range certSchemes {
		cert := certFixture(t, kind, 4)
		data := encodeCertificate(cert)
		back, err := decodeCertificate(data)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !reflect.DeepEqual(back, cert) {
			t.Fatalf("%v: round trip mismatch", kind)
		}
		// Decode → re-encode is byte-identical: the codec is canonical.
		if again := encodeCertificate(back); !bytes.Equal(again, data) {
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
		data := encodeCertificate(certFixture(t, kind, 4))

		bad := append([]byte(nil), data...)
		bad[0] = 2 // future format version
		if _, err := decodeCertificate(bad); !errors.Is(err, accountability.ErrCertVersion) {
			t.Fatalf("%v: future version accepted: %v", kind, err)
		}

		// Unknown form byte.
		bad = append([]byte(nil), data...)
		bad[1] = 7
		if _, err := decodeCertificate(bad); err == nil || !strings.Contains(err.Error(), "form 7") {
			t.Fatalf("%v: unknown form accepted: %v", kind, err)
		}

		for cut := 0; cut < len(data); cut++ {
			if _, err := decodeCertificate(data[:cut]); !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("%v: certificate cut to %d of %d bytes: %v, want ErrTruncated", kind, cut, len(data), err)
			}
		}
		if _, err := decodeCertificate(append(data, 0)); !errors.Is(err, wire.ErrTrailing) {
			t.Fatalf("%v: trailing bytes accepted: %v", kind, err)
		}
	}

	// Form byte 1, the retired aggregate form: the committed seed decoded
	// before the form was removed, and is refused by name since.
	retired := corpusSeed(t, "aggregate-small")
	if _, err := decodeCertificate(retired); err == nil || !strings.Contains(err.Error(), "form 1") {
		t.Fatalf("retired aggregate form not refused by name: %v", err)
	}
}

func FuzzDecodeCertificate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1}) // version 1, the retired form byte
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
	f.Add(encodeCertificate(cert))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCertificate(data)
		if err != nil {
			return
		}
		// A decoded certificate re-encodes byte-identically: the format
		// admits exactly one encoding per certificate.
		if again := encodeCertificate(c); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from input:\n  in  %x\n  out %x", data, again)
		}
	})
}
