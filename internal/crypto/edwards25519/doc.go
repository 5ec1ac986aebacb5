// Copyright (c) 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package edwards25519 implements group logic for the twisted Edwards curve
//
//	-x^2 + y^2 = 1 + -(121665/121666)*x^2*y^2
//
// as far as checking an Ed25519 signature needs it.
//
// It is a trimmed copy of Go 1.24's crypto/internal/fips140/edwards25519
// (in $(go env GOROOT)/src), which the standard library does not export.
// The copy keeps point decoding, encoding, addition and doubling; the
// scalar's SetUniformBytes, SetCanonicalBytes and nonAdjacentForm over
// the generated fiat-crypto arithmetic; the field package with its amd64
// multiplication assembly; and the NAF lookup tables. The fips140 imports
// became encoding/binary and crypto/subtle. It drops the constant-time
// ScalarMult and ScalarBaseMult and their tables (signing stays on
// crypto/ed25519), and the arm64 carry assembly: every other architecture
// runs the pure-Go field code. The upstream license is in LICENSE.
//
// What it changes is the base point's table (scalarmult.go). Upstream
// holds the affine odd multiples up to 127 of B; FixedTable generalises
// that form to any point and to sixteen chunks, the multiples of
// 2^(16j)·P for j < 16, made affine with one field inversion. B has one,
// and so does each key kept for many checks, so that a double-scalar
// multiplication reads both scalars as width-8 NAF digits and does 16
// doublings instead of 256. A point used once gets upstream's one-chunk
// table of its multiples up to 15, built for the call. The loop first
// lists its additions, then reads each table entry in place, prefetched
// a few additions ahead (an amd64 assembly stub, a no-op elsewhere and
// under purego), where upstream copies it out.
//
// It also changes field.Element.Invert: upstream's constant-time Fermat
// chain is replaced by a variable-time Bernstein–Yang inversion
// (field/invert.go). The rule that makes that safe binds every caller:
// the package handles public values only. Encoding a point and building
// a FixedTable invert public coordinates; nothing here may see a secret
// scalar or a point derived from one. Signing stays on crypto/ed25519.
package edwards25519
