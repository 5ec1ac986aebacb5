// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

// invertFermat sets v = 1/z mod p as z^(p−2), in constant time, and
// returns v: upstream's Invert, the reference the variable-time one is
// held against. It uses the same sequence of 255 squarings and 11
// multiplications as Curve25519.
func (v *Element) invertFermat(z *Element) *Element {
	var z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t Element

	z2.Square(z)             // 2
	t.Square(&z2)            // 4
	t.Square(&t)             // 8
	z9.Multiply(&t, z)       // 9
	z11.Multiply(&z9, &z2)   // 11
	t.Square(&z11)           // 22
	z2_5_0.Multiply(&t, &z9) // 31 = 2^5 - 2^0

	t.Square(&z2_5_0) // 2^6 - 2^1
	for i := 0; i < 4; i++ {
		t.Square(&t) // 2^10 - 2^5
	}
	z2_10_0.Multiply(&t, &z2_5_0) // 2^10 - 2^0

	t.Square(&z2_10_0) // 2^11 - 2^1
	for i := 0; i < 9; i++ {
		t.Square(&t) // 2^20 - 2^10
	}
	z2_20_0.Multiply(&t, &z2_10_0) // 2^20 - 2^0

	t.Square(&z2_20_0) // 2^21 - 2^1
	for i := 0; i < 19; i++ {
		t.Square(&t) // 2^40 - 2^20
	}
	t.Multiply(&t, &z2_20_0) // 2^40 - 2^0

	t.Square(&t) // 2^41 - 2^1
	for i := 0; i < 9; i++ {
		t.Square(&t) // 2^50 - 2^10
	}
	z2_50_0.Multiply(&t, &z2_10_0) // 2^50 - 2^0

	t.Square(&z2_50_0) // 2^51 - 2^1
	for i := 0; i < 49; i++ {
		t.Square(&t) // 2^100 - 2^50
	}
	z2_100_0.Multiply(&t, &z2_50_0) // 2^100 - 2^0

	t.Square(&z2_100_0) // 2^101 - 2^1
	for i := 0; i < 99; i++ {
		t.Square(&t) // 2^200 - 2^100
	}
	t.Multiply(&t, &z2_100_0) // 2^200 - 2^0

	t.Square(&t) // 2^201 - 2^1
	for i := 0; i < 49; i++ {
		t.Square(&t) // 2^250 - 2^50
	}
	t.Multiply(&t, &z2_50_0) // 2^250 - 2^0

	t.Square(&t) // 2^251 - 2^1
	t.Square(&t) // 2^252 - 2^2
	t.Square(&t) // 2^253 - 2^3
	t.Square(&t) // 2^254 - 2^4
	t.Square(&t) // 2^255 - 2^5

	return v.Multiply(&t, &z11) // 2^255 - 21
}

// invertsLikeFermat reports whether Invert agrees with the Fermat chain
// on x, returns its receiver, leaves x alone, and gives x·x⁻¹ = 1 for
// x ≠ 0, with the result's limbs reduced.
func invertsLikeFermat(x Element) bool {
	x0 := x
	var got, want, prod Element
	if got.Invert(&x) != &got || x != x0 {
		return false
	}
	want.invertFermat(&x)
	if got.Equal(&want) != 1 || !isInBounds(&got) {
		return false
	}
	prod.Multiply(&x, &got)
	if x.Equal(feZero) == 1 {
		return got.Equal(feZero) == 1
	}
	return prod.Equal(feOne) == 1
}

func TestInvert(t *testing.T) {
	if minus19 := ^uint64(18); minus19*pInv62&mask62 != 1 { // p ≡ −19 mod 2^64
		t.Fatal("pInv62 is not 1/p mod 2^62")
	}

	add := func(a *big.Int, b int64) *big.Int { return new(big.Int).Add(a, big.NewInt(b)) }
	p := add(pow2(255), -19)
	edges := map[string]*big.Int{
		"0":       big.NewInt(0),
		"1":       big.NewInt(1),
		"2":       big.NewInt(2),
		"19":      big.NewInt(19),
		"2^62":    pow2(62),
		"2^248":   pow2(248),
		"2^254":   pow2(254),
		"(p-1)/2": new(big.Int).Rsh(p, 1),
		"p-2":     add(p, -2),
		"p-1":     add(p, -1),
		// The encodings SetBytes accepts beyond p: p → 0, p+1 → 1, up to
		// 2^255 − 1 → 18.
		"p":       p,
		"p+1":     add(p, 1),
		"p+2":     add(p, 2),
		"2^255-1": add(pow2(255), -1),
	}
	for name, n := range edges {
		var x Element
		if _, err := x.SetBytes(littleEndian32(n)); err != nil {
			t.Fatal(err)
		}
		if !invertsLikeFermat(x) {
			t.Errorf("%s: the inversion disagrees with the Fermat chain", name)
			continue
		}
		var got Element
		got.Invert(&x)
		want := new(big.Int).Mod(n, p)
		if want.Sign() != 0 {
			want.ModInverse(want, p)
		}
		if got.toBig().Cmp(want) != 0 {
			t.Errorf("%s: got %v, want %v", name, got.toBig(), want)
		}
	}

	// Limbs above 2^51, as lightly reduced elements carry them.
	for _, x := range []Element{
		{1, 1, 1, 1, 1},
		{1 << 52, 1 << 52, 1 << 52, 1 << 52, 1 << 52},
		{(1 << 52) - 1, (1 << 52) - 1, (1 << 52) - 1, (1 << 52) - 1, (1 << 52) - 1},
		{(1 << 51) - 19, (1 << 51) - 1, (1 << 51) - 1, (1 << 51) - 1, (1 << 51) - 1},
	} {
		if !invertsLikeFermat(x) {
			t.Errorf("%v: the inversion disagrees with the Fermat chain", x)
		}
	}

	if err := quick.Check(invertsLikeFermat, quickCheckConfig(64)); err != nil {
		t.Error(err)
	}
}

func FuzzInvertVarTime(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(append([]byte{1}, make([]byte, 31)...))
	f.Add(littleEndian32(new(big.Int).Sub(pow2(255), big.NewInt(20)))) // p − 1
	f.Add(littleEndian32(new(big.Int).Sub(pow2(256), big.NewInt(1))))  // 2^255 − 1 and the ignored top bit
	f.Fuzz(func(t *testing.T, b []byte) {
		var x Element
		if _, err := x.SetBytes(b); err != nil {
			return
		}
		if !invertsLikeFermat(x) {
			t.Fatalf("%x: the inversion disagrees with the Fermat chain", b)
		}
	})
}

func pow2(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }

// littleEndian32 returns n < 2^256 as 32 little-endian bytes.
func littleEndian32(n *big.Int) []byte { return swapEndianness(n.FillBytes(make([]byte, 32))) }

func BenchmarkInvertFermat(b *testing.B) {
	x := new(Element).Add(feOne, feOne)
	for i := 0; i < b.N; i++ {
		x.invertFermat(x)
	}
}
