// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"crypto/subtle"

	"github.com/zeroloss/zlb/internal/crypto/edwards25519/field"
)

// The upstream code the tests lean on that signing and checking do not
// need, and a reference scalar multiplication to hold the tables against.

// Subtract sets v = p - q, and returns v.
func (v *Point) Subtract(p, q *Point) *Point {
	checkInitialized(p, q)
	qCached := new(projCached).FromP3(q)
	result := new(projP1xP1).Sub(p, qCached)
	return v.fromP1xP1(result)
}

// Equal returns 1 if v is equivalent to u, and 0 otherwise.
func (v *Point) Equal(u *Point) int {
	checkInitialized(v, u)

	var t1, t2, t3, t4 field.Element
	t1.Multiply(&v.x, &u.z)
	t2.Multiply(&u.x, &v.z)
	t3.Multiply(&v.y, &u.z)
	t4.Multiply(&u.y, &v.z)

	return t1.Equal(&t2) & t3.Equal(&t4)
}

// nafLookupTable8 is upstream's table of B: entry i is (2i+1)·Q in affine
// form. A FixedTable chunk of 64 entries is held against it.
type nafLookupTable8 struct {
	points [64]affineCached
}

// FromP3 is upstream's table construction, one inversion per point.
func (v *nafLookupTable8) FromP3(q *Point) {
	v.points[0].FromP3(q)
	q2 := Point{}
	q2.Add(q, q)
	tmpP3 := Point{}
	tmpP1xP1 := projP1xP1{}
	for i := 0; i < 63; i++ {
		v.points[i+1].FromP3(tmpP3.fromP1xP1(tmpP1xP1.AddAffine(&q2, &v.points[i])))
	}
}

func (v *affineCached) Zero() *affineCached {
	v.YplusX.One()
	v.YminusX.One()
	v.T2d.Zero()
	return v
}

// Select sets v to a if cond == 1 and to b if cond == 0.
func (v *affineCached) Select(a, b *affineCached, cond int) *affineCached {
	v.YplusX.Select(&a.YplusX, &b.YplusX, cond)
	v.YminusX.Select(&a.YminusX, &b.YminusX, cond)
	v.T2d.Select(&a.T2d, &b.T2d, cond)
	return v
}

// selectIntoBySelect is upstream's affineLookupTable.SelectInto, which
// the masked-OR form is held against: dest starts as the identity, and
// each entry is selected over it when its index is |x|.
func (v *affineLookupTable) selectIntoBySelect(dest *affineCached, x int8) {
	// Compute xabs = |x|
	xmask := x >> 7
	xabs := uint8((x + xmask) ^ xmask)

	dest.Zero()
	for j := 1; j <= 8; j++ {
		// Set dest = j*Q if |x| = j
		cond := subtle.ConstantTimeByteEq(xabs, uint8(j))
		dest.Select(&v.points[j-1], dest, cond)
	}
	// Now dest = |x|*Q, conditionally negate to get x*Q
	dest.CondNeg(int(xmask & 1))
}

// scalarMultSlow sets v = x * q by double-and-add over the bits of x.
func (v *Point) scalarMultSlow(x *Scalar, q *Point) *Point {
	b := x.Bytes()
	acc := NewIdentityPoint()
	for i := 255; i >= 0; i-- {
		acc.Add(acc, acc)
		if b[i/8]>>(i%8)&1 == 1 {
			acc.Add(acc, q)
		}
	}
	return v.Set(acc)
}
