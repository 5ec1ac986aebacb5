// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"
	"unsafe"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519/field"
)

// A TableShape is one of the two forms a FixedTable comes in. Both have
// tableChunks chunks; they differ in the odd multiples a chunk holds.
type TableShape uint8

const (
	// KeyShape is for the base point and a registered key, checked many
	// times: 16 chunks of 64 odd multiples (120 KiB).
	KeyShape TableShape = iota
	// WalletShape is for a key checked a few times, a wallet's: 16 chunks
	// of 4 (7.5 KiB).
	WalletShape
)

// tableChunks is the chunk count of every FixedTable: a multiplication
// reads its scalars in 16 chunks of 16 places that share 16 doublings.
const tableChunks = 16

// The NAF widths the double-scalar loop reads A's digits at: under a
// KeyShape table, under a WalletShape table, and under the one-chunk
// table built for one call. B's digits are always keyWidth.
const (
	keyWidth    = 8
	walletWidth = 4
	onceWidth   = 5
)

// A tableShape is the entries per chunk, and the NAF width whose digits
// those entries cover (entries = 2^(width−2)).
type tableShape struct {
	entries int
	width   uint
}

var shapes = [...]tableShape{
	KeyShape:    {1 << (keyWidth - 2), keyWidth},
	WalletShape: {1 << (walletWidth - 2), walletWidth},
}

// Bytes returns how many bytes the points of a table of shape s take.
func (s TableShape) Bytes() int {
	return tableChunks * shapes[s].entries * int(unsafe.Sizeof(affineCached{}))
}

// A FixedTable holds, for a point P, the odd multiples P, 3P, …,
// (2m−1)·P of each of P, 2^16·P, …, 2^240·P in affine form, for the
// tableChunks chunks of m entries of its shape. A multiplication by P
// then reads the scalar's NAF digits of the shape's width in 16 chunks
// that share one pass of 16 doublings. It pays for a point used in many
// multiplications: the base point, and a key that is checked more than
// once.
type FixedTable struct {
	tableShape
	points []affineCached // (2i+1)·2^(16j)·P at entries·j+i
}

// NewFixedTable returns the table of p in the given shape. Its points
// are made affine with one field inversion (Montgomery's trick) instead
// of one each.
func NewFixedTable(p *Point, shape TableShape) *FixedTable {
	checkInitialized(p)
	entries := shapes[shape].entries
	pts := make([]Point, tableChunks*entries)
	var q, q2 Point
	var cached projCached
	var tmp projP1xP1
	q.Set(p)
	for j := 0; j < tableChunks; j++ {
		if j > 0 {
			q.doubleN(&q, 256/tableChunks)
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
// at most ⌈257/w⌉ of them: 65 at width 4, 52 at width 5 and 33 at
// width 8. The most a multiplication adds is A's digits at the narrowest
// width it reads them at, beside B's width-8 ones.
const (
	narrowest    = min(keyWidth, walletWidth, onceWidth)
	maxAdditions = (257+narrowest-1)/narrowest + (257+keyWidth-1)/keyWidth
)

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
	// The digits are read in c chunks of 256/c places: sixteen under a
	// FixedTable of A, else one. Digit i of chunk j weighs 2^(i + 256j/c),
	// so it is looked up in the tables of 2^(256j/c)·A and 2^(256j/c)·B
	// (chunk j of B's sixteen; a one-chunk loop reads only chunk 0), and
	// one doubling of the accumulator moves every chunk on by one place.
	//
	// A first pass lists the additions in loop order, so that the loop
	// can prefetch each table entry a few additions before it reads it
	// in place: a FixedTable is too large to stay in cache between
	// checks.

	bTable := basepointNafTable()
	c, aWidth := 1, uint(onceWidth)
	if aFixed != nil {
		c, aWidth = tableChunks, aFixed.width
	}
	span := 256 / c
	aNaf := a.nonAdjacentForm(aWidth)
	bNaf := b.nonAdjacentForm(keyWidth)

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
				adds[count] = addition{affine: bTable.entry(j, d), place: uint8(i), neg: d < 0}
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
