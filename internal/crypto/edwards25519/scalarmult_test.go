// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"testing"
	"testing/quick"
)

var (
	// a random scalar generated using dalek.
	dalekScalar, _ = (&Scalar{}).SetCanonicalBytes([]byte{219, 106, 114, 9, 174, 249, 155, 89, 69, 203, 201, 93, 92, 116, 234, 187, 78, 115, 103, 172, 182, 98, 62, 103, 187, 136, 13, 100, 248, 110, 12, 4})
	// the above, times the edwards25519 basepoint.
	dalekScalarBasepoint, _ = new(Point).SetBytes([]byte{0xf4, 0xef, 0x7c, 0xa, 0x34, 0x55, 0x7b, 0x9f, 0x72, 0x3b, 0xb6, 0x1e, 0xf9, 0x46, 0x9, 0x91, 0x1c, 0xb9, 0xc0, 0x6c, 0x17, 0x28, 0x2d, 0x8b, 0x43, 0x2b, 0x5, 0x18, 0x6a, 0x54, 0x3e, 0x48})
)

// chunkCounts are the table shapes VarTimeDoubleScalarBaseMult runs with.
var chunkCounts = []int{1, 4}

func TestVarTimeDoubleBaseMultVsDalek(t *testing.T) {
	for _, c := range chunkCounts {
		var p Point
		var z Scalar
		table := new(MultTable).Init(B, c)
		p.VarTimeDoubleScalarBaseMult(dalekScalar, table, &z)
		if dalekScalarBasepoint.Equal(&p) != 1 {
			t.Errorf("%d chunks: VarTimeDoubleScalarBaseMult fails with b=0", c)
		}
		checkOnCurve(t, &p)
		p.VarTimeDoubleScalarBaseMult(&z, table, dalekScalar)
		if dalekScalarBasepoint.Equal(&p) != 1 {
			t.Errorf("%d chunks: VarTimeDoubleScalarBaseMult fails with a=0", c)
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
// upstream's construction of 2^(64j)·B, one inversion per point.
func TestBasepointNafTableGeneration(t *testing.T) {
	tables := basepointNafTables()
	p := NewGeneratorPoint()
	for j := range tables {
		if j > 0 {
			p.doubleN(p, chunkBits)
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

func TestMultTableChunks(t *testing.T) {
	table := new(MultTable).Init(dalekScalarBasepoint, 4)
	p := new(Point).Set(dalekScalarBasepoint)
	for j := range table.t {
		if j > 0 {
			p.doubleN(p, chunkBits)
		}
		var want nafLookupTable5
		want.FromP3(p)
		if want != table.t[j] {
			t.Errorf("chunk %d is not the table of 2^%d·P", j, chunkBits*j)
		}
	}
}

func TestVarTimeDoubleBaseMultMatchesReference(t *testing.T) {
	A := dalekScalarBasepoint
	tables := map[int]*MultTable{}
	for _, c := range chunkCounts {
		tables[c] = new(MultTable).Init(A, c)
	}
	varTimeDoubleBaseMultMatchesReference := func(x, y Scalar) bool {
		var q1, q2, check Point
		q1.scalarMultSlow(&x, A)
		q2.scalarMultSlow(&y, B)
		check.Add(&q1, &q2)
		for _, c := range chunkCounts {
			var p Point
			p.VarTimeDoubleScalarBaseMult(&x, tables[c], &y)
			checkOnCurve(t, &p, &check)
			if p.Equal(&check) != 1 {
				return false
			}
		}
		return true
	}

	if err := quick.Check(varTimeDoubleBaseMultMatchesReference, quickCheckConfig(32)); err != nil {
		t.Error(err)
	}
}

// Benchmarks.

func BenchmarkVarTimeDoubleScalarBaseMult(b *testing.B) {
	basepointNafTables()
	b.Run("table=once", func(b *testing.B) {
		var p Point
		table := new(MultTable).Init(B, 4)
		for i := 0; i < b.N; i++ {
			p.VarTimeDoubleScalarBaseMult(dalekScalar, table, dalekScalar)
		}
	})
	b.Run("table=per-call", func(b *testing.B) {
		var p Point
		for i := 0; i < b.N; i++ {
			var table MultTable
			p.VarTimeDoubleScalarBaseMult(dalekScalar, table.Init(B, 1), dalekScalar)
		}
	})
}

func BenchmarkBasepointNafTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildBasepointNafTables()
	}
}
