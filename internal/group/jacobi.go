package group

import "math/bits"

// jacobi returns the Jacobi symbol (a | n) ∈ {−1, 0, 1} for an odd n > 0
// and 0 < a, both given as little-endian limbs of one length; both slices
// are overwritten. It is the binary algorithm: strip the factors of two
// from a — each flips the sign when n ≡ 3, 5 mod 8 — then, with both odd,
// order them so a ≥ n, flipping the sign by quadratic reciprocity when
// both are ≡ 3 mod 4, and replace a by the even a − n, which leaves the
// symbol unchanged. The working length shrinks as the top limbs of both
// empty, and the last word runs on machine integers (jacobi64). Across
// limbs the order and the sign are data, not branches: which of the two is
// larger is a coin toss the branch predictor cannot learn.
func jacobi(a, n []uint64) int {
	w := len(n)
	for a[w-1] == 0 && n[w-1] == 0 {
		w-- // stops at a non-zero limb of a: 0 < a is the caller's promise
	}
	// neg is the sign bit so far; bufs[i] holds a and bufs[i^1] holds n.
	neg := uint64(shiftOutTwos(a[:w])) & twoBit(n[0])
	bufs := [2][]uint64{a, n}
	i := 0
	for w > 1 {
		lt := lessLimbs(bufs[i][:w], bufs[i^1][:w])
		i ^= int(lt)
		a, n = bufs[i][:w], bufs[i^1][:w]
		neg ^= lt & (a[0] & n[0] >> 1)
		s := subShift(a, n)
		if s < 0 {
			return 0 // a = n > 1: they share a factor
		}
		neg ^= uint64(s) & twoBit(n[0])
		for w > 1 && a[w-1] == 0 && n[w-1] == 0 {
			w--
		}
	}
	return jacobi64(bufs[i][0], bufs[i^1][0], neg)
}

// jacobi64 is jacobi's one-word tail: (a | n) times (−1)^neg, for odd a and
// odd n. Each step keeps min(a, n) and |a − n| with its twos stripped.
func jacobi64(a, n, neg uint64) int {
	for a != n {
		if a < n {
			a, n = n, a
			neg ^= a & n >> 1
		}
		a -= n
		s := bits.TrailingZeros64(a)
		a >>= uint(s)
		neg ^= uint64(s) & twoBit(n)
	}
	if n != 1 {
		return 0
	}
	return 1 - 2*int(neg&1)
}

// twoBit is 1 when (2 | n) = −1 for odd n, i.e. n ≡ 3 or 5 mod 8, else 0.
func twoBit(n uint64) uint64 { return (n ^ n>>1) >> 1 & 1 }

// lessLimbs is 1 when a < n, else 0, for little-endian limbs of one length.
func lessLimbs(a, n []uint64) uint64 {
	n = n[:len(a)]
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != n[i] {
			_, lt := bits.Sub64(a[i], n[i], 0)
			return lt
		}
	}
	return 0
}

// subShift replaces a by (a − n) / 2^s for the largest such s, in one pass
// when the low limbs differ, and returns s (−1 when a = n). a ≥ n, both odd.
func subShift(a, n []uint64) int {
	n = n[:len(a)]
	d, borrow := bits.Sub64(a[0], n[0], 0)
	if d == 0 {
		for i := 1; i < len(a); i++ {
			a[i], borrow = bits.Sub64(a[i], n[i], borrow)
		}
		a[0] = 0
		return shiftOutTwos(a)
	}
	s := uint(bits.TrailingZeros64(d))
	for i := 1; i < len(a); i++ {
		var next uint64
		next, borrow = bits.Sub64(a[i], n[i], borrow)
		a[i-1] = d>>s | next<<(64-s)
		d = next
	}
	a[len(a)-1] = d >> s
	return int(s)
}

// shiftOutTwos divides x by its largest power-of-two factor in place and
// returns the exponent removed, or −1 when x is zero.
func shiftOutTwos(x []uint64) int {
	z := 0
	for z < len(x) && x[z] == 0 {
		z++
	}
	if z == len(x) {
		return -1
	}
	if z > 0 {
		copy(x, x[z:])
		clear(x[len(x)-z:])
	}
	s := uint(bits.TrailingZeros64(x[0]))
	if s > 0 {
		last := len(x) - 1
		for i := 0; i < last; i++ {
			x[i] = x[i]>>s | x[i+1]<<(64-s)
		}
		x[last] >>= s
	}
	return 64*z + int(s)
}
