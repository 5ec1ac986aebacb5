// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

// invertsLikeFermat reports whether InvertVarTime agrees with Invert,
// the Fermat chain, on x, returns its receiver, leaves x alone, and gives
// x·x⁻¹ = 1 for x ≠ 0, with the result's limbs reduced.
func invertsLikeFermat(x Element) bool {
	x0 := x
	var got, want, prod Element
	if got.InvertVarTime(&x) != &got || x != x0 {
		return false
	}
	want.Invert(&x)
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
		got.InvertVarTime(&x)
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

func BenchmarkInvertVarTime(b *testing.B) {
	x := new(Element).Add(feOne, feOne)
	for i := 0; i < b.N; i++ {
		x.InvertVarTime(x)
	}
}
