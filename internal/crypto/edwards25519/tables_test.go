// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"testing"
)

// oddMultiple returns (2i+1)·q by the reference multiplication.
func oddMultiple(t *testing.T, i int, q *Point) *Point {
	t.Helper()
	var k [32]byte
	k[0] = byte(2*i + 1)
	s, err := new(Scalar).SetCanonicalBytes(k[:])
	if err != nil {
		t.Fatal(err)
	}
	return new(Point).scalarMultSlow(s, q)
}

// TestNafLookupTable5 reads every entry of a one-chunk table in place,
// as the double-scalar loop does: entry i is (2i+1)·B, and the entries
// for 9 and 11 sum to those for 7 and 13.
func TestNafLookupTable5(t *testing.T) {
	var table nafLookupTable5
	table.FromP3(B)

	var sum projP1xP1
	for i := range table.points {
		got := new(Point).fromP1xP1(sum.Add(I, &table.points[i]))
		if got.Equal(oddMultiple(t, i, B)) != 1 {
			t.Errorf("entry %d of nafLookupTable5 is not %d·B", i, 2*i+1)
		}
	}

	lhs := NewIdentityPoint()
	rhs := NewIdentityPoint()
	lhs.fromP1xP1(sum.Add(lhs, &table.points[9/2]))
	lhs.fromP1xP1(sum.Add(lhs, &table.points[11/2]))
	rhs.fromP1xP1(sum.Add(rhs, &table.points[7/2]))
	rhs.fromP1xP1(sum.Add(rhs, &table.points[13/2]))
	if lhs.Equal(rhs) != 1 {
		t.Errorf("Consistency check on nafLookupTable5 failed")
	}
}

// TestNafLookupTable8 does the same for an affine table: entry i is
// (2i+1)·B, and the entries for 49 and 11 sum to those for 35 and 25.
func TestNafLookupTable8(t *testing.T) {
	var table nafLookupTable8
	table.FromP3(B)

	var sum projP1xP1
	for i := range table.points {
		got := new(Point).fromP1xP1(sum.AddAffine(I, &table.points[i]))
		if got.Equal(oddMultiple(t, i, B)) != 1 {
			t.Errorf("entry %d of nafLookupTable8 is not %d·B", i, 2*i+1)
		}
	}

	lhs := NewIdentityPoint()
	rhs := NewIdentityPoint()
	lhs.fromP1xP1(sum.AddAffine(lhs, &table.points[49/2]))
	lhs.fromP1xP1(sum.AddAffine(lhs, &table.points[11/2]))
	rhs.fromP1xP1(sum.AddAffine(rhs, &table.points[35/2]))
	rhs.fromP1xP1(sum.AddAffine(rhs, &table.points[25/2]))
	if lhs.Equal(rhs) != 1 {
		t.Errorf("Consistency check on nafLookupTable8 failed")
	}
}
