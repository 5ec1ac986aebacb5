// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519/field"
)

// A TableShape is one of the two forms a FixedTable comes in.
type TableShape uint8

const (
	// KeyShape is for the base point and a registered key, checked many
	// times: 16 chunks of 64 odd multiples (about 120 KiB).
	KeyShape TableShape = iota
	// WalletShape is for a key checked a few times, a wallet's: 4 chunks
	// of 8 (about 3.75 KiB).
	WalletShape
)

// A tableShape is a chunk count, the entries per chunk, and the NAF width
// whose digits those entries cover (entries = 2^(width−2)).
type tableShape struct {
	chunks, entries int
	width           uint
}

var shapes = [...]tableShape{
	KeyShape:    {16, 64, 8},
	WalletShape: {4, 8, 5},
}

// A FixedTable holds, for a point P, the odd multiples P, 3P, …,
// (2m−1)·P of each of P, 2^(256/c)·P, …, 2^(256(c−1)/c)·P in affine form,
// for the c chunks of m entries of its shape. A multiplication by P then
// reads the scalar's NAF digits of the shape's width in c chunks that
// share one pass of 256/c doublings. It pays for a point used in many
// multiplications: the base point, and a key that is checked more than
// once.
type FixedTable struct {
	tableShape
	points []affineCached // (2i+1)·2^(256j/c)·P at entries·j+i
}

// NewFixedTable returns the table of p in the given shape. Its points
// are made affine with one field inversion (Montgomery's trick) instead
// of one each.
func NewFixedTable(p *Point, shape TableShape) *FixedTable {
	checkInitialized(p)
	chunks, entries := shapes[shape].chunks, shapes[shape].entries
	pts := make([]Point, chunks*entries)
	var q, q2 Point
	var cached projCached
	var tmp projP1xP1
	q.Set(p)
	for j := 0; j < chunks; j++ {
		if j > 0 {
			q.doubleN(&q, 256/chunks)
		}
		cached.FromP3(q2.Add(&q, &q))
		row := pts[entries*j : entries*(j+1)]
		row[0].Set(&q)
		for i := 1; i < entries; i++ {
			row[i].fromP1xP1(tmp.Add(&row[i-1], &cached))
		}
	}

	prefix := make([]field.Element, len(pts)) // prefix[n] = Z_0···Z_(n-1)
	var acc, invZ field.Element
	acc.One()
	for n := range pts {
		prefix[n].Set(&acc)
		acc.Multiply(&acc, &pts[n].z)
	}
	acc.InvertVarTime(&acc)
	t := &FixedTable{tableShape: shapes[shape], points: make([]affineCached, len(pts))}
	for n := len(pts) - 1; n >= 0; n-- {
		invZ.Multiply(&acc, &prefix[n]) // 1/Z_n
		acc.Multiply(&acc, &pts[n].z)   // 1/(Z_0···Z_(n-1))
		t.points[n].fromP3(&pts[n], &invZ)
	}
	return t
}

// entry returns the table's entry for NAF digit d of chunk j.
func (t *FixedTable) entry(j int, d int8) *affineCached {
	return &t.points[t.entries*j+int(abs8(d)/2)]
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

// basepointNafTable returns the FixedTable of B, built the first time it is
// called.
var basepointNafTable = sync.OnceValue(func() *FixedTable {
	return NewFixedTable(NewGeneratorPoint(), KeyShape)
})

// VarTimeDoubleScalarBaseMult sets v = a * A + b * B, where B is the
// canonical generator, and returns v. A's table, its odd multiples up to
// 15, is built for this one multiplication.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleScalarBaseMult(a *Scalar, A *Point, b *Scalar) *Point {
	checkInitialized(A)
	var aTable nafLookupTable5
	aTable.FromP3(A)
	return v.varTimeDoubleScalarMult(a, nil, &aTable, b)
}

// VarTimeDoubleScalarFixedMult sets v = a * A + b * B, where A is the
// point aTable was built from and B is the canonical generator, and
// returns v.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleScalarFixedMult(a *Scalar, aTable *FixedTable, b *Scalar) *Point {
	return v.varTimeDoubleScalarMult(a, aTable, nil, b)
}

// maxAdditions bounds the additions of one double-scalar multiplication.
// A width-w NAF has at most one nonzero digit in any w consecutive
// places (nonAdjacentForm moves on w places after each), so a scalar has
// at most ⌈257/w⌉ of them: 52 at width 5 and 33 at width 8. The most a
// multiplication adds is A's width-5 digits beside B's width-8 ones.
const maxAdditions = (257+4)/5 + (257+7)/8

// prefetchAhead is how many additions before its turn a table entry is
// prefetched.
const prefetchAhead = 4

// An addition is one step of the double-scalar loop: after the doubling
// of place, add or subtract a table entry, affine if it is read from a
// FixedTable and projective if from a one-chunk table.
type addition struct {
	affine *affineCached
	cached *projCached
	place  uint8
	neg    bool
}

// varTimeDoubleScalarMult sets v = a * A + b * B, with A's multiples
// from aFixed if it is not nil, and from aOnce if it is.
func (v *Point) varTimeDoubleScalarMult(a *Scalar, aFixed *FixedTable, aOnce *nafLookupTable5, b *Scalar) *Point {
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
	// The digits are read in c chunks of 256/c places: as many as A's
	// FixedTable has, else one. Digit i of chunk j weighs 2^(i + 256j/c),
	// so it is looked up in the tables of 2^(256j/c)·A and 2^(256j/c)·B
	// (chunk 16j/c of B's sixteen), and one doubling of the accumulator
	// moves every chunk on by one place.
	//
	// A first pass lists the additions in loop order, so that the loop
	// can prefetch each table entry a few additions before it reads it
	// in place: a FixedTable is too large to stay in cache between
	// checks.

	bTable := basepointNafTable()
	c, aWidth := 1, uint(5)
	if aFixed != nil {
		c, aWidth = aFixed.chunks, aFixed.width
	}
	span, bStep := 256/c, shapes[KeyShape].chunks/c
	aNaf := a.nonAdjacentForm(aWidth)
	bNaf := b.nonAdjacentForm(8)

	// Zero past count, where the loop looks prefetchAhead entries on.
	var adds [maxAdditions + prefetchAhead]addition
	count := 0
	for i := span - 1; i >= 0; i-- {
		for j := 0; j < c; j++ {
			if d := aNaf[span*j+i]; d != 0 {
				add := addition{place: uint8(i), neg: d < 0}
				if aFixed != nil {
					add.affine = aFixed.entry(j, d)
				} else {
					add.cached = &aOnce.points[abs8(d)/2]
				}
				adds[count] = add
				count++
			}
			if d := bNaf[span*j+i]; d != 0 {
				adds[count] = addition{affine: bTable.entry(bStep*j, d), place: uint8(i), neg: d < 0}
				count++
			}
		}
	}

	for _, add := range adds[:prefetchAhead] {
		if add.affine != nil {
			prefetch(add.affine)
		}
	}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	n := 0
	for i := span - 1; i >= 0; i-- {
		tmp1.Double(tmp2)
		for ; n < count && int(adds[n].place) == i; n++ {
			if next := adds[n+prefetchAhead].affine; next != nil {
				prefetch(next)
			}
			v.fromP1xP1(tmp1)
			switch add := &adds[n]; {
			case add.affine == nil && add.neg:
				tmp1.Sub(v, add.cached)
			case add.affine == nil:
				tmp1.Add(v, add.cached)
			case add.neg:
				tmp1.SubAffine(v, add.affine)
			default:
				tmp1.AddAffine(v, add.affine)
			}
		}
		tmp2.FromP1xP1(tmp1)
	}

	v.fromP2(tmp2)
	return v
}

// abs8 returns |d| for a NAF digit d.
func abs8(d int8) int8 {
	if d < 0 {
		return -d
	}
	return d
}
