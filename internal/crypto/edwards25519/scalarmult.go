// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519/field"
)

// chunkBits is the span of scalar bits one chunk of a four-chunk table
// covers: chunk j holds multiples of 2^(64j)·P.
const chunkBits = 64

// A MultTable holds the odd multiples P, 3P, …, 15P of a point P for
// VarTimeDoubleScalarBaseMult, in one chunk or in four. A four-chunk
// table (about 5 KB) also holds those multiples of 2^64·P, 2^128·P and
// 2^192·P, so the four quarters of a scalar share one pass of 64
// doublings; it pays when P is used for many multiplications. A
// one-chunk table is what a single multiplication builds anyway.
type MultTable struct {
	chunks int
	t      [4]nafLookupTable5
}

// Init sets v to the table of p in the given number of chunks, 1 or 4,
// and returns v.
func (v *MultTable) Init(p *Point, chunks int) *MultTable {
	checkInitialized(p)
	if chunks != 1 && chunks != 4 {
		panic("edwards25519: a MultTable has 1 or 4 chunks")
	}
	v.chunks = chunks
	q := *p
	for j := 0; j < chunks; j++ {
		if j > 0 {
			q.doubleN(&q, chunkBits)
		}
		v.t[j].FromP3(&q)
	}
	return v
}

// doubleN sets v = 2^n·p for n ≥ 1, and returns v.
func (v *Point) doubleN(p *Point, n int) *Point {
	var t1 projP1xP1
	var t2 projP2
	t2.FromP3(p)
	for i := 0; i < n; i++ {
		t1.Double(&t2)
		t2.FromP1xP1(&t1)
	}
	return v.fromP1xP1(&t1)
}

// basepointNafTables returns the nafLookupTable8s of B, 2^64·B, 2^128·B
// and 2^192·B, built the first time it is called.
var basepointNafTables = sync.OnceValue(buildBasepointNafTables)

// buildBasepointNafTables makes the 256 points of the basepoint tables
// affine with one field inversion (Montgomery's trick) instead of one
// each.
func buildBasepointNafTables() *[4]nafLookupTable8 {
	var pts [4 * 64]Point // (2i+1)·2^(64j)·B at 64j+i
	b := NewGeneratorPoint()
	var b2 Point
	var cached projCached
	var tmp projP1xP1
	for j := 0; j < 4; j++ {
		if j > 0 {
			b.doubleN(b, chunkBits)
		}
		cached.FromP3(b2.Add(b, b))
		row := pts[64*j : 64*j+64]
		row[0].Set(b)
		for i := 1; i < 64; i++ {
			row[i].fromP1xP1(tmp.Add(&row[i-1], &cached))
		}
	}

	var prefix [4 * 64]field.Element // prefix[n] = Z_0···Z_(n-1)
	var acc, invZ field.Element
	acc.One()
	for n := range pts {
		prefix[n].Set(&acc)
		acc.Multiply(&acc, &pts[n].z)
	}
	acc.Invert(&acc)
	tables := new([4]nafLookupTable8)
	for n := len(pts) - 1; n >= 0; n-- {
		invZ.Multiply(&acc, &prefix[n]) // 1/Z_n
		acc.Multiply(&acc, &pts[n].z)   // 1/(Z_0···Z_(n-1))
		tables[n/64].points[n%64].fromP3(&pts[n], &invZ)
	}
	return tables
}

// VarTimeDoubleScalarBaseMult sets v = a * A + b * B, where A is the point
// aTable was built from and B is the canonical generator, and returns v.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleScalarBaseMult(a *Scalar, aTable *MultTable, b *Scalar) *Point {
	// Similarly to the single variable-base approach, we compute
	// digits and use them with a lookup table.  However, because
	// we are allowed to do variable-time operations, we don't
	// need constant-time lookups or constant-time digit
	// computations.
	//
	// So we use a non-adjacent form of some width w instead of
	// radix 16.  This is like a binary representation (one digit
	// for each binary place) but we allow the digits to grow in
	// magnitude up to 2^{w-1} so that the nonzero digits are as
	// sparse as possible.  Intuitively, this "condenses" the
	// "mass" of the scalar onto sparse coefficients (meaning
	// fewer additions).
	//
	// The digits are read in c chunks of 256/c places. Digit i of
	// chunk j weighs 2^(i + 256j/c), so it is looked up in the tables of
	// 2^(256j/c)·A and 2^(256j/c)·B, and one doubling of the accumulator
	// moves every chunk on by one place.

	baseTables := basepointNafTables()
	// Because the basepoint is fixed, we can use a wider NAF
	// corresponding to a bigger table.
	aNaf := a.nonAdjacentForm(5)
	bNaf := b.nonAdjacentForm(8)
	c := aTable.chunks
	span := 256 / c

	multA := &projCached{}
	multB := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()

	// Move from high to low bits, doubling the accumulator
	// at each iteration and checking whether there is a nonzero
	// coefficient to look up a multiple of.
	for i := span - 1; i >= 0; i-- {
		tmp1.Double(tmp2)

		for j := 0; j < c; j++ {
			// Only update v if we have a nonzero coeff to add in.
			if d := aNaf[span*j+i]; d > 0 {
				v.fromP1xP1(tmp1)
				aTable.t[j].SelectInto(multA, d)
				tmp1.Add(v, multA)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				aTable.t[j].SelectInto(multA, -d)
				tmp1.Sub(v, multA)
			}

			bTable := &baseTables[span*j/chunkBits]
			if d := bNaf[span*j+i]; d > 0 {
				v.fromP1xP1(tmp1)
				bTable.SelectInto(multB, d)
				tmp1.AddAffine(v, multB)
			} else if d < 0 {
				v.fromP1xP1(tmp1)
				bTable.SelectInto(multB, -d)
				tmp1.SubAffine(v, multB)
			}
		}

		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}
