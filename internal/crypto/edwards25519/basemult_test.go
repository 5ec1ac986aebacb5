// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"encoding/hex"
	mathrand "math/rand"
	"testing"
	"testing/quick"
)

// TestScalarBaseMult holds the constant-time [x]B to the variable-time
// double-scalar multiplication [0]A + [x]B, on the edge scalars and on
// random ones.
func TestScalarBaseMult(t *testing.T) {
	rand := mathrand.New(mathrand.NewSource(36))
	zero := new(Scalar)
	// Encodings, not Equal: a degenerate result with Z = 0 would be Equal
	// to every point.
	matches := func(x Scalar) bool {
		got := new(Point).ScalarBaseMult(&x)
		want := new(Point).VarTimeDoubleScalarBaseMult(zero, randomPoint(rand), &x)
		return string(got.Bytes()) == string(want.Bytes())
	}

	var two252 [32]byte
	two252[31] = 0x10
	edges := map[string][]byte{
		"0":     make([]byte, 32),
		"1":     scOneBytes[:],
		"l-1":   scalarMinusOneBytes[:],
		"2^252": two252[:],
	}
	for name, b := range edges {
		x, err := new(Scalar).SetCanonicalBytes(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matches(*x) {
			t.Errorf("[%s]B does not match the variable-time multiplication", name)
		}
	}
	if got := new(Point).ScalarBaseMult(zero); string(got.Bytes()) != string(I.Bytes()) {
		t.Error("[0]B is not the identity")
	}
	if got := new(Point).ScalarBaseMult(dalekScalar); string(got.Bytes()) != string(dalekScalarBasepoint.Bytes()) {
		t.Error("the dalek scalar times B does not match dalek's")
	}
	if err := quick.Check(matches, quickCheckConfig(32)); err != nil {
		t.Error(err)
	}
}

// TestSelectInto holds the masked-OR SelectInto to upstream's Select
// form, for every x in [-8, 8] and every table of B, and for a random
// point's table. SelectInto writes all of dest, whatever it held.
func TestSelectInto(t *testing.T) {
	tables := append([]affineLookupTable(nil), basepointTable()[:]...)
	var random affineLookupTable
	random.FromP3(randomPoint(mathrand.New(mathrand.NewSource(8))))
	tables = append(tables, random)
	for i := range tables {
		for x := int8(-8); x <= 8; x++ {
			var got, want affineCached
			got = tables[(i+1)%len(tables)].points[7] // stale contents
			tables[i].SelectInto(&got, x)
			tables[i].selectIntoBySelect(&want, x)
			if got != want {
				t.Fatalf("table %d, x = %d: SelectInto disagrees with the Select form", i, x)
			}
		}
	}

	// The selected entry is x·Q.
	var q affineCached
	var sum projP1xP1
	for x := int8(-8); x <= 8; x++ {
		basepointTable()[0].SelectInto(&q, x)
		got := new(Point).fromP1xP1(sum.AddAffine(I, &q))
		want := new(Point).scalarMultSlow(new(Scalar).setShortBytes([]byte{byte(abs8(x))}), B)
		if x < 0 {
			want.Negate(want)
		}
		if got.Equal(want) != 1 {
			t.Errorf("x = %d: the entry is not x·B", x)
		}
	}
}

// TestVarTimeBytes checks that the two encodings agree on points in
// projective form, Z ≠ 1.
func TestVarTimeBytes(t *testing.T) {
	rand := mathrand.New(mathrand.NewSource(12))
	f := func(x, y Scalar) bool {
		p := new(Point).VarTimeDoubleScalarBaseMult(&x, randomPoint(rand), &y)
		return string(p.Bytes()) == string(p.VarTimeBytes())
	}
	if err := quick.Check(f, quickCheckConfig(32)); err != nil {
		t.Error(err)
	}
	if string(I.Bytes()) != string(I.VarTimeBytes()) {
		t.Error("the encodings of the identity differ")
	}
}

func TestScalarSetBytesWithClamping(t *testing.T) {
	// Generated with libsodium.js 1.0.18 crypto_scalarmult_ed25519_base.

	random := "633d368491364dc9cd4c1bf891b1d59460face1644813240a313e61f2c88216e"
	s, _ := new(Scalar).SetBytesWithClamping(decodeHex(random))
	p := new(Point).ScalarBaseMult(s)
	want := "1d87a9026fd0126a5736fe1628c95dd419172b5b618457e041c9c861b2494a94"
	if got := hex.EncodeToString(p.Bytes()); got != want {
		t.Errorf("random: got %q, want %q", got, want)
	}

	zero := "0000000000000000000000000000000000000000000000000000000000000000"
	s, _ = new(Scalar).SetBytesWithClamping(decodeHex(zero))
	p = new(Point).ScalarBaseMult(s)
	want = "693e47972caf527c7883ad1b39822f026f47db2ab0e1919955b8993aa04411d1"
	if got := hex.EncodeToString(p.Bytes()); got != want {
		t.Errorf("zero: got %q, want %q", got, want)
	}

	one := "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
	s, _ = new(Scalar).SetBytesWithClamping(decodeHex(one))
	p = new(Point).ScalarBaseMult(s)
	want = "12e9a68b73fd5aacdbcaf3e88c46fea6ebedb1aa84eed1842f07f8edab65e3a7"
	if got := hex.EncodeToString(p.Bytes()); got != want {
		t.Errorf("one: got %q, want %q", got, want)
	}
}

func BenchmarkScalarBaseMult(b *testing.B) {
	basepointTable()
	var p Point
	for i := 0; i < b.N; i++ {
		p.ScalarBaseMult(dalekScalar)
	}
}
