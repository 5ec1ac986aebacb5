// The inversion below follows the variable-time form of Bernstein and
// Yang's safegcd ("Fast constant-time gcd computation and modular
// inversion", TCHES 2019) in libsecp256k1's src/modinv64_impl.h
// (secp256k1_modinv64_var and the functions it calls), Copyright (c)
// 2020 Peter Dettman and Pieter Wuille, distributed under the MIT
// license. Its derivation is in that project's
// doc/safegcd_implementation.md.

package field

import "math/bits"

// A signed62 is the integer v[0] + v[1]·2^62 + … + v[4]·2^248. Between
// steps, limbs 0 to 3 are in [0, 2^62) and limb 4 carries the sign.
type signed62 [5]int64

const mask62 = 1<<62 - 1

// p62 is p = 2^255 − 19 = −19 + 128·2^248, and pInv62 is 1/p mod 2^62.
var p62 = signed62{-19, 0, 0, 0, 128}

const pInv62 = 0x39435e50d79435e5

// A matrix is the transition of 62 divsteps, scaled by 2^62: they take
// (f, g) to ((u·f + v·g)/2^62, (q·f + r·g)/2^62).
type matrix struct{ u, v, q, r int64 }

// Invert sets v = 1/z mod p, and returns v.
//
// If z == 0, Invert returns v = 0.
//
// Invert runs in variable time: its running time depends on z, so it
// may only be called on public values.
func (v *Element) Invert(z *Element) *Element {
	// f and g start as p and z, d and e as 0 and 1, and every batch of
	// divsteps keeps d·z ≡ f and e·z ≡ g (mod p). g reaches 0 and f
	// reaches gcd(p, z) = ±1, so ±d is the inverse.
	d, e := signed62{}, signed62{1}
	f, g := p62, z.signed62()
	n := len(f) // the limbs of f and g still in use
	eta := -1   // −δ, in the paper's terms
	for {
		var t matrix
		eta = divsteps62(eta, uint64(f[0]), uint64(g[0]), &t)
		updateDE(&d, &e, &t)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			zero := true
			for _, l := range g[1:n] {
				zero = zero && l == 0
			}
			if zero {
				break
			}
		}
		// Drop the top limb once it is only the sign of f and of g.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && fn^fn>>63 == 0 && gn^gn>>63 == 0 {
			f[n-2] |= fn << 62
			g[n-2] |= gn << 62
			n--
		}
	}
	d.normalize(f[n-1] < 0)
	return v.fromSigned62(&d)
}

// divsteps62 runs 62 divsteps from eta on f and g, given their low 64
// bits f0 (odd) and g0, sets t to their transition, and returns the new
// eta. Runs of divsteps that only halve g are taken at once, and each
// other step cancels up to six low bits of g.
func divsteps62(eta int, f0, g0 uint64, t *matrix) int {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := 62
	for {
		// A sentinel bit stops the count at the divsteps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= zeros
		i -= zeros
		if i == 0 {
			break
		}
		// g is odd. w is the multiple of f that clears the low bits of
		// g, at most eta+1 of them (the sign of eta flips after that),
		// and never more than the divsteps left.
		var w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			m := ^uint64(0) >> (64 - min(eta+1, i)) & 63
			w = (f * g * (f*f - 2)) & m // −g/f mod 64
		} else {
			m := ^uint64(0) >> (64 - min(eta+1, i)) & 15
			w = f + ((f+1)&4)<<1 // 1/f mod 16
			w = (-w * g) & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	*t = matrix{int64(u), int64(v), int64(q), int64(r)}
	return eta
}

// updateDE sets d, e to t·(d, e)/2^62 mod p, adding the multiples of p
// that make the division exact. d and e stay in (−2p, p).
func updateDE(d, e *signed62, t *matrix) {
	u, v, q, r := t.u, t.v, t.q, t.r
	// Start from [u, q] if d is negative and [v, r] if e is, which keeps
	// the result in range, then correct the low 62 bits.
	sd, se := d[4]>>63, e[4]>>63
	md := u&sd + v&se
	me := q&sd + r&se
	var cd, ce int128
	cd.mulAdd(u, d[0])
	cd.mulAdd(v, e[0])
	ce.mulAdd(q, d[0])
	ce.mulAdd(r, e[0])
	md -= int64((pInv62*cd.lo + uint64(md)) & mask62)
	me -= int64((pInv62*ce.lo + uint64(me)) & mask62)
	cd.mulAdd(p62[0], md)
	ce.mulAdd(p62[0], me)
	cd.shr62() // the low 62 bits are zero now
	ce.shr62()
	for i := 1; i < 4; i++ { // limbs 1 to 3 of p are zero
		cd.mulAdd(u, d[i])
		cd.mulAdd(v, e[i])
		ce.mulAdd(q, d[i])
		ce.mulAdd(r, e[i])
		d[i-1] = int64(cd.lo & mask62)
		e[i-1] = int64(ce.lo & mask62)
		cd.shr62()
		ce.shr62()
	}
	cd.mulAdd(u, d[4])
	cd.mulAdd(v, e[4])
	cd.mulAdd(p62[4], md)
	ce.mulAdd(q, d[4])
	ce.mulAdd(r, e[4])
	ce.mulAdd(p62[4], me)
	d[3] = int64(cd.lo & mask62)
	e[3] = int64(ce.lo & mask62)
	cd.shr62()
	ce.shr62()
	d[4] = int64(cd.lo)
	e[4] = int64(ce.lo)
}

// updateFG sets f, g to t·(f, g)/2^62 over their n low limbs. The
// division is exact.
func updateFG(n int, f, g *signed62, t *matrix) {
	u, v, q, r := t.u, t.v, t.q, t.r
	var cf, cg int128
	cf.mulAdd(u, f[0])
	cf.mulAdd(v, g[0])
	cg.mulAdd(q, f[0])
	cg.mulAdd(r, g[0])
	cf.shr62()
	cg.shr62()
	for i := 1; i < n; i++ {
		cf.mulAdd(u, f[i])
		cf.mulAdd(v, g[i])
		cg.mulAdd(q, f[i])
		cg.mulAdd(r, g[i])
		f[i-1] = int64(cf.lo & mask62)
		g[i-1] = int64(cg.lo & mask62)
		cf.shr62()
		cg.shr62()
	}
	f[n-1] = int64(cf.lo)
	g[n-1] = int64(cg.lo)
}

// normalize sets d, in (−2p, p), to −d mod p if negate is set and to
// d mod p if not, in [0, p) with every limb in [0, 2^62).
func (d *signed62) normalize(negate bool) {
	if d[4] < 0 {
		d.addP()
	}
	if negate {
		for i := range d {
			d[i] = -d[i]
		}
	}
	d.carry()
	if d[4] < 0 {
		d.addP()
		d.carry()
	}
}

func (d *signed62) addP() {
	d[0] += p62[0]
	d[4] += p62[4]
}

// carry moves each limb's bits above 62 into the next.
func (d *signed62) carry() {
	for i := 0; i < 4; i++ {
		d[i+1] += d[i] >> 62
		d[i] &= mask62
	}
}

// signed62 returns v reduced mod p, as a signed62.
func (v *Element) signed62() signed62 {
	t := *v
	t.reduce()
	w0 := t.l0 | t.l1<<51
	w1 := t.l1>>13 | t.l2<<38
	w2 := t.l2>>26 | t.l3<<25
	w3 := t.l3>>39 | t.l4<<12
	return signed62{
		int64(w0 & mask62),
		int64((w0>>62 | w1<<2) & mask62),
		int64((w1>>60 | w2<<4) & mask62),
		int64((w2>>58 | w3<<6) & mask62),
		int64(w3 >> 56),
	}
}

// fromSigned62 sets v = s, for s in [0, p) with every limb in [0, 2^62),
// and returns v.
func (v *Element) fromSigned62(s *signed62) *Element {
	w0 := uint64(s[0]) | uint64(s[1])<<62
	w1 := uint64(s[1])>>2 | uint64(s[2])<<60
	w2 := uint64(s[2])>>4 | uint64(s[3])<<58
	w3 := uint64(s[3])>>6 | uint64(s[4])<<56
	v.l0 = w0 & maskLow51Bits
	v.l1 = (w0>>51 | w1<<13) & maskLow51Bits
	v.l2 = (w1>>38 | w2<<26) & maskLow51Bits
	v.l3 = (w2>>25 | w3<<39) & maskLow51Bits
	v.l4 = w3 >> 12
	return v
}

// An int128 is a signed 128-bit accumulator, in two's complement.
type int128 struct{ lo, hi uint64 }

// mulAdd adds x·y to a.
func (a *int128) mulAdd(x, y int64) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	hi -= uint64(x>>63)&uint64(y) + uint64(y>>63)&uint64(x)
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi += hi + c
}

// shr62 shifts a right by 62 places, keeping its sign.
func (a *int128) shr62() {
	a.lo = a.lo>>62 | a.hi<<2
	a.hi = uint64(int64(a.hi) >> 62)
}
