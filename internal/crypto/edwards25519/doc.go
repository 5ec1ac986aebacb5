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
// What it adds is MultTable (scalarmult.go): a point's NAF table split in
// four chunks, kept per verifying key, so that a double-scalar
// multiplication does 64 doublings instead of 256.
package edwards25519
