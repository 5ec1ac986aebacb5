// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"fmt"
	"math/big"
	"math/bits"
	mathrand "math/rand"
	"testing"
	"testing/quick"
)

var (
	// a random scalar generated using dalek.
	dalekScalar, _ = (&Scalar{}).SetCanonicalBytes([]byte{219, 106, 114, 9, 174, 249, 155, 89, 69, 203, 201, 93, 92, 116, 234, 187, 78, 115, 103, 172, 182, 98, 62, 103, 187, 136, 13, 100, 248, 110, 12, 4})
	// the above, times the edwards25519 basepoint.
	dalekScalarBasepoint, _ = new(Point).SetBytes([]byte{0xf4, 0xef, 0x7c, 0xa, 0x34, 0x55, 0x7b, 0x9f, 0x72, 0x3b, 0xb6, 0x1e, 0xf9, 0x46, 0x9, 0x91, 0x1c, 0xb9, 0xc0, 0x6c, 0x17, 0x28, 0x2d, 0x8b, 0x43, 0x2b, 0x5, 0x18, 0x6a, 0x54, 0x3e, 0x48})
)

// doubleScalarMults are the two forms of A's table a double-scalar
// multiplication runs with: built for the one call, and a FixedTable.
var doubleScalarMults = []struct {
	name string
	mult func(v *Point, a *Scalar, A *Point, b *Scalar) *Point
}{
	{"one chunk", func(v *Point, a *Scalar, A *Point, b *Scalar) *Point {
		return v.VarTimeDoubleScalarBaseMult(a, A, b)
	}},
	{"fixed table", func(v *Point, a *Scalar, A *Point, b *Scalar) *Point {
		return v.VarTimeDoubleScalarFixedMult(a, NewFixedTable(A), b)
	}},
}

// denseScalar returns the scalar with the width-w NAF digit d at every
// w-th place whose weight keeps it below 2^252 < ℓ, and how many there
// are: with d = 1, as many nonzero digits as a scalar can have at that
// width.
func denseScalar(t testing.TB, w uint, d int64) (*Scalar, int) {
	t.Helper()
	n, digits := new(big.Int), 0
	for place := uint(0); int(place)+bits.Len64(uint64(d)) <= 252; place += w {
		n.Add(n, new(big.Int).Lsh(big.NewInt(d), place))
		digits++
	}
	var b [32]byte
	n.FillBytes(b[:])
	s, err := new(Scalar).SetCanonicalBytes(reverse(b[:]))
	if err != nil {
		t.Fatal(err)
	}
	return s, digits
}

func reverse(b []byte) []byte {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// denseScalars are the scalars whose NAF digits fill the list of
// additions the most: ℓ−1, and a digit at every place width 5 or
// width 8 allows, the smallest and the largest digit.
func denseScalars(t testing.TB) map[string]*Scalar {
	dense := map[string]*Scalar{"l-1": scMinusOne}
	for _, w := range []uint{5, 8} {
		for _, d := range []int64{1, 1<<(w-1) - 1} {
			dense[fmt.Sprintf("width %d, digits %d", w, d)], _ = denseScalar(t, w, d)
		}
	}
	return dense
}

func nonzeroDigits(naf [256]int8) int {
	n := 0
	for _, d := range naf {
		if d != 0 {
			n++
		}
	}
	return n
}

// TestNonAdjacentFormDensity holds the bound the loop's list of
// additions is sized by: at most ⌈257/w⌉ nonzero width-w digits, which
// the dense scalars come within two of.
func TestNonAdjacentFormDensity(t *testing.T) {
	for _, w := range []uint{5, 8} {
		limit := (257 + int(w) - 1) / int(w)
		for _, d := range []int64{1, 1<<(w-1) - 1} {
			s, digits := denseScalar(t, w, d)
			if got := nonzeroDigits(s.nonAdjacentForm(w)); got != digits || got < limit-2 {
				t.Errorf("width %d, digits %d: %d nonzero digits, want %d", w, d, got, digits)
			}
		}
		withinBound := func(x Scalar) bool {
			return nonzeroDigits(x.nonAdjacentForm(w)) <= limit
		}
		if err := quick.Check(withinBound, quickCheckConfig(32)); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestVarTimeDoubleBaseMultVsDalek(t *testing.T) {
	for _, m := range doubleScalarMults {
		var p Point
		var z Scalar
		m.mult(&p, dalekScalar, B, &z)
		if dalekScalarBasepoint.Equal(&p) != 1 {
			t.Errorf("%s: VarTimeDoubleScalarBaseMult fails with b=0", m.name)
		}
		checkOnCurve(t, &p)
		m.mult(&p, &z, B, dalekScalar)
		if dalekScalarBasepoint.Equal(&p) != 1 {
			t.Errorf("%s: VarTimeDoubleScalarBaseMult fails with a=0", m.name)
		}
		checkOnCurve(t, &p)
	}
}

func TestSlowReferenceVsDalek(t *testing.T) {
	var p Point
	p.scalarMultSlow(dalekScalar, B)
	if dalekScalarBasepoint.Equal(&p) != 1 {
		t.Error("the reference multiplication disagrees with dalek")
	}
}

// TestBasepointNafTableGeneration holds the batch-inverted tables against
// upstream's construction of 2^(16j)·B, one inversion per point.
func TestBasepointNafTableGeneration(t *testing.T) {
	tables := basepointNafTable()
	p := NewGeneratorPoint()
	for j := range tables {
		if j > 0 {
			p.doubleN(p, chunkPlaces)
		}
		var want nafLookupTable8
		want.FromP3(p)
		for i := range want.points {
			got, w := &tables[j].points[i], &want.points[i]
			if got.YplusX.Equal(&w.YplusX) != 1 || got.YminusX.Equal(&w.YminusX) != 1 || got.T2d.Equal(&w.T2d) != 1 {
				t.Fatalf("basepoint table %d, point %d does not match", j, i)
			}
		}
	}
}

// randomPoint returns a point decoded from random bytes: any point of the
// curve, torsion components included.
func randomPoint(rand *mathrand.Rand) *Point {
	var b [32]byte
	for {
		rand.Read(b[:])
		if p, err := new(Point).SetBytes(b[:]); err == nil {
			return p
		}
	}
}

// TestMultTableChunks checks the shape of a FixedTable, for B and for a
// random point P: entry i of chunk j is (2i+1)·2^(16j)·P, by the
// reference multiplication.
func TestMultTableChunks(t *testing.T) {
	for name, p := range map[string]*Point{"B": B, "random": randomPoint(mathrand.New(mathrand.NewSource(33)))} {
		table := NewFixedTable(p)
		for j := range table {
			for i := range table[j].points {
				var k [32]byte // (2i+1)·2^(16j), little-endian
				k[chunkPlaces*j/8] = byte(2*i + 1)
				s, err := new(Scalar).SetCanonicalBytes(k[:])
				if err != nil {
					t.Fatal(err)
				}
				var want, got Point
				var sum projP1xP1
				want.scalarMultSlow(s, p)
				got.fromP1xP1(sum.AddAffine(I, &table[j].points[i]))
				if got.Equal(&want) != 1 {
					t.Fatalf("%s: chunk %d, entry %d is not %d·2^%d·P", name, j, i, 2*i+1, chunkPlaces*j)
				}
			}
		}
	}
}

// TestFixedMultMatchesOneChunk holds the sixteen-chunk loop against the
// one-chunk loop: on the scalars 0, 1, dalek's and the dense ones, each
// against each, under B, a small-order, a mixed-order and a random
// point, and on random points and scalars.
func TestFixedMultMatchesOneChunk(t *testing.T) {
	agree := func(A *Point, table *FixedTable, x, y *Scalar) bool {
		var p, q Point
		p.VarTimeDoubleScalarFixedMult(x, table, y)
		q.VarTimeDoubleScalarBaseMult(x, A, y)
		checkOnCurve(t, &p)
		return p.Equal(&q) == 1
	}

	order8, err := new(Point).SetBytes(decodeHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"))
	if err != nil {
		t.Fatal(err)
	}
	mixed := new(Point).Add(dalekScalarBasepoint, order8)
	edges := []*Scalar{new(Scalar), scOne, dalekScalar}
	for _, s := range denseScalars(t) {
		edges = append(edges, s)
	}
	for name, A := range map[string]*Point{"B": B, "order 8": order8, "mixed order": mixed, "random": randomPoint(mathrand.New(mathrand.NewSource(34)))} {
		table := NewFixedTable(A)
		for i, x := range edges {
			for j, y := range edges {
				if !agree(A, table, x, y) {
					t.Errorf("%s: the loops disagree on edge scalars %d and %d", name, i, j)
				}
			}
		}
	}

	fixedMatchesOneChunk := func(pointSeed int64, x, y Scalar) bool {
		A := randomPoint(mathrand.New(mathrand.NewSource(pointSeed)))
		return agree(A, NewFixedTable(A), &x, &y)
	}
	if err := quick.Check(fixedMatchesOneChunk, quickCheckConfig(4)); err != nil {
		t.Error(err)
	}
}

func TestVarTimeDoubleBaseMultMatchesReference(t *testing.T) {
	A := dalekScalarBasepoint
	table := NewFixedTable(A)
	varTimeDoubleBaseMultMatchesReference := func(x, y Scalar) bool {
		var q1, q2, check, p1, p2 Point
		q1.scalarMultSlow(&x, A)
		q2.scalarMultSlow(&y, B)
		check.Add(&q1, &q2)
		p1.VarTimeDoubleScalarBaseMult(&x, A, &y)
		p2.VarTimeDoubleScalarFixedMult(&x, table, &y)
		checkOnCurve(t, &p1, &p2, &check)
		return p1.Equal(&check) == 1 && p2.Equal(&check) == 1
	}

	dense := denseScalars(t)
	for xName, x := range dense {
		for yName, y := range dense {
			if !varTimeDoubleBaseMultMatchesReference(*x, *y) {
				t.Errorf("a = %s, b = %s: a loop disagrees with the reference", xName, yName)
			}
		}
	}
	if err := quick.Check(varTimeDoubleBaseMultMatchesReference, quickCheckConfig(32)); err != nil {
		t.Error(err)
	}
}

// Benchmarks.

func BenchmarkVarTimeDoubleScalarBaseMult(b *testing.B) {
	basepointNafTable()
	b.Run("table=fixed", func(b *testing.B) {
		var p Point
		table := NewFixedTable(B)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.VarTimeDoubleScalarFixedMult(dalekScalar, table, dalekScalar)
		}
	})
	b.Run("table=per-call", func(b *testing.B) {
		var p Point
		for i := 0; i < b.N; i++ {
			p.VarTimeDoubleScalarBaseMult(dalekScalar, B, dalekScalar)
		}
	})
}

func BenchmarkNewFixedTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewFixedTable(B)
	}
}
