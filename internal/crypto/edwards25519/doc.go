// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// as far as making and checking an Ed25519 signature needs it.
//
// It is a trimmed copy of Go 1.24's crypto/internal/fips140/edwards25519
// (in $(go env GOROOT)/src), which the standard library does not export.
// The copy keeps point decoding, encoding, addition and doubling; the
// scalar arithmetic a signature needs over the generated fiat-crypto code
// (SetUniformBytes, SetCanonicalBytes, SetBytesWithClamping,
// and the radix-16 and NAF digits); the constant-time ScalarBaseMult and
// its 32 tables of B (basemult.go); the field package with its amd64
// multiplication assembly; and the NAF lookup tables. The fips140 imports
// became encoding/binary and crypto/subtle. It drops the variable-base
// constant-time ScalarMult and the arm64 carry assembly: every other
// architecture runs the pure-Go field code. The upstream license is in
// LICENSE.
//
// The rule is upstream's naming: a function whose name does not contain
// VarTime (in either case) runs in constant time, and one whose name does
// may only be given public values. A few of the verifier's helpers are
// variable-time without saying so, and are given only public values:
// NewFixedTable (it inverts a key's multiples with InvertVarTime),
// Scalar.nonAdjacentForm and abs8 (they branch on a digit), and the
// helpers of field/invert.go behind InvertVarTime. Secret-derived values
// (a signer's seed, s and prefix, a signature's r, and R before it is
// sent) reach none of these and no function with VarTime in its name;
// CI fails if basemult.go or the signer names one. Keys, signatures and
// the points computed from them are public.
//
// The copy changes three things. ScalarBaseMult's table lookup ORs each
// entry in under a mask (affineLookupTable.SelectInto), where upstream
// selects each over the last: the same constant-time read of every entry
// in half the operations.
//
// The variable-time base point's table (scalarmult.go) is changed too.
// Upstream holds the affine odd multiples up to 127 of B; FixedTable
// generalises that form to any point and to sixteen chunks, the
// multiples of 2^(16j)·P for j < 16, made affine with one field
// inversion. B has one, and so does each key kept for many checks, so
// that a double-scalar multiplication reads both scalars as width-8 NAF
// digits and does 16 doublings instead of 256. A point used once gets
// upstream's one-chunk table of its multiples up to 15, built for the
// call. The loop first lists its additions, then reads each table entry
// in place, prefetched a few additions ahead (an amd64 assembly stub, a
// no-op elsewhere and under purego), where upstream copies it out.
//
// And field.Element gains InvertVarTime, a variable-time Bernstein–Yang
// inversion (field/invert.go) beside upstream's constant-time Fermat
// chain, Invert. Point.VarTimeBytes encodes through it, for a check's R′;
// NewFixedTable inverts a public key's multiples with it. Point.Bytes
// stays upstream's, constant-time.
package edwards25519
