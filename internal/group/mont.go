package group

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Montgomery-domain modular multiplication.
//
// The exponentiation engine's remaining floor is the per-multiplication
// QuoRem reduction: math/big's division is several times more expensive
// than its multiplication at the 64–256-bit operand sizes of this
// codebase, and the giant-step loop of the discrete-log solver plus the
// multi-exponentiations are nothing but long chains of dependent
// modular multiplications. MontCtx removes the division entirely by
// mapping elements into the Montgomery domain — x·R mod P with R = 2^{64k}
// for a k-limb modulus — where a multiplication reduces with shifts and
// multiplications only (CIOS, Koç et al., "Analyzing and Comparing
// Montgomery Multiplication Algorithms").
//
// Elements in the Montgomery domain are raw little-endian uint64 limb
// slices of fixed length Limbs(), not big.Ints: the hot loops stay free of
// math/big's per-operation normalization and allocation, and the low limb
// doubles as the hash key of the discrete-log solver's baby-step table.
// A MontCtx is immutable after construction and safe for concurrent use;
// MulMont writes only through dst.

// montStackLimbs is the largest modulus (in 64-bit limbs) for which
// MulMont's accumulator lives on the stack. Larger moduli — far beyond the
// paper's 256-bit group — still work but allocate per call.
const montStackLimbs = 16

// MontCtx holds the precomputed constants for Montgomery arithmetic
// modulo one fixed odd modulus.
type MontCtx struct {
	p  *big.Int  // the modulus
	k  int       // limb count of p
	pw []uint64  // little-endian limbs of p
	p4 [4]uint64 // pw as a fixed-size array when k == 4 (mulMont4's view)
	n0 uint64    // -p^{-1} mod 2^64
	r2 []uint64  // R^2 mod p, the ToMont multiplier
	r1 []uint64  // R mod p, i.e. 1 in the Montgomery domain
	// lanes holds the lane kernel's constants when k == 4 (lanes.go).
	lanes *laneConsts
}

// NewMontCtx builds a Montgomery context for the odd modulus p. Group
// moduli are safe primes, so oddness is no restriction; even moduli are
// rejected because p must be invertible mod 2^64.
func NewMontCtx(p *big.Int) (*MontCtx, error) {
	if p == nil || p.Sign() <= 0 || p.Bit(0) == 0 {
		return nil, fmt.Errorf("group: Montgomery context requires a positive odd modulus, got %v", p)
	}
	k := (p.BitLen() + 63) / 64
	c := &MontCtx{p: new(big.Int).Set(p), k: k, pw: make([]uint64, k)}
	packLimbs(c.pw, p)
	if k == 4 {
		copy(c.p4[:], c.pw)
	}
	// n0 = -p^{-1} mod 2^64 by Newton iteration: inv ≡ p0^{-1} mod 8 holds
	// for inv = p0 (odd squares are 1 mod 8), and every step doubles the
	// number of correct low bits: 3 → 6 → 12 → 24 → 48 → 96 ≥ 64.
	p0 := c.pw[0]
	inv := p0
	for i := 0; i < 5; i++ {
		inv *= 2 - p0*inv
	}
	c.n0 = -inv
	// R mod p and R^2 mod p with one-time big.Int divisions.
	r := new(big.Int).Lsh(one, uint(64*k))
	c.r1 = make([]uint64, k)
	packLimbs(c.r1, new(big.Int).Mod(r, p))
	c.r2 = make([]uint64, k)
	packLimbs(c.r2, new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	if k == 4 {
		c.lanes = newLaneConsts(c)
	}
	return c, nil
}

// Limbs returns the number of 64-bit limbs of every Montgomery-domain
// element handled by this context.
func (c *MontCtx) Limbs() int { return c.k }

// Lanes reports whether this context's products run eight at a time: the
// lane kernel serves it (the 256-bit group on a CPU with AVX-512 IFMA), so
// PowRecoded raises a run of up to eight bases, and
// MultiExpInt64RowsMontParts evaluates a run of up to eight columns, in one
// instruction stream. It reads the kernel selection at call time.
func (c *MontCtx) Lanes() bool { return useLanes && c.lanes != nil }

// Elem allocates a zeroed Montgomery-domain element.
func (c *MontCtx) Elem() []uint64 { return make([]uint64, c.k) }

// SetOne writes the Montgomery form of 1 (R mod p) into dst.
func (c *MontCtx) SetOne(dst []uint64) { copy(dst, c.r1) }

// ToMont converts x into the Montgomery domain: dst = x·R mod p. Negative
// or unreduced inputs are reduced first, so any big.Int is accepted.
func (c *MontCtx) ToMont(dst []uint64, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(c.p) >= 0 {
		x = new(big.Int).Mod(x, c.p)
	}
	var stack [montStackLimbs]uint64
	var xs []uint64
	if c.k <= montStackLimbs {
		xs = stack[:c.k]
	} else {
		xs = make([]uint64, c.k)
	}
	packLimbs(xs, x)
	c.MulMont(dst, xs, c.r2)
}

// FromMont converts x out of the Montgomery domain, returning the standard
// representative x·R^{-1} mod p as a freshly allocated big.Int.
func (c *MontCtx) FromMont(x []uint64) *big.Int {
	// REDC(x) = MulMont(x, 1): the plain 1, not R mod p.
	var stack, oneStack [montStackLimbs]uint64
	var out, oneL []uint64
	if c.k <= montStackLimbs {
		out, oneL = stack[:c.k], oneStack[:c.k]
	} else {
		out, oneL = make([]uint64, c.k), make([]uint64, c.k)
	}
	oneL[0] = 1
	c.MulMont(out, x, oneL)
	return unpackLimbs(out)
}

// MulMont computes dst = a·b·R^{-1} mod p (CIOS). a and b must be
// Montgomery-domain elements of length Limbs() with value < p; dst may
// alias a and/or b. One MulMont of Montgomery forms yields the Montgomery
// form of the product, so chains of multiplications never touch a
// division.
//
// Two widths get specialized kernels: the 1-limb fast path below (the
// 64-bit test group) and the 4-limb CIOS of the paper's 256-bit group —
// mulMont4ADX where the CPU has MULX and ADX, the unrolled Go mulMont4
// elsewhere. Every other width runs the generic k-limb loop. Squaring is
// MulMont(dst, a, a).
func (c *MontCtx) MulMont(dst, a, b []uint64) {
	k := c.k
	if k == 4 {
		if useADX {
			mulMont4ADX((*[4]uint64)(dst), (*[4]uint64)(a), (*[4]uint64)(b), &c.p4, c.n0)
		} else {
			mulMont4(dst, a, b, &c.p4, c.n0)
		}
		return
	}
	if k == 1 {
		// Single-limb REDC: t = (a·b + m·p) / 2^64 with m chosen so the
		// low word cancels; t < 2p, so one conditional subtraction (the
		// carry c2 marks t ≥ 2^64, where the wrapping subtraction is
		// still correct mod 2^64).
		p0 := c.pw[0]
		hi, lo := bits.Mul64(a[0], b[0])
		m := lo * c.n0
		mhi, mlo := bits.Mul64(m, p0)
		_, carry := bits.Add64(lo, mlo, 0)
		t, c2 := bits.Add64(hi, mhi, carry)
		if c2 != 0 || t >= p0 {
			t -= p0
		}
		dst[0] = t
		return
	}
	c.mulMontGeneric(dst, a, b)
}

// mulMontGeneric is the generic k-limb CIOS loop, the fallback for widths
// without a specialized kernel (and the reference the 4-limb kernels are
// benchmarked, property-tested and fuzzed against).
func (c *MontCtx) mulMontGeneric(dst, a, b []uint64) {
	k := c.k
	var stack [montStackLimbs + 2]uint64
	var t []uint64
	if k+2 <= len(stack) {
		t = stack[:k+2]
	} else {
		t = make([]uint64, k+2)
	}
	p := c.pw
	for i := 0; i < k; i++ {
		// t += a[i]·b. Each inner step computes t[j] + a[i]·b[j] + carry,
		// which fits 128 bits: (2^64−1)² + 2(2^64−1) = 2^128 − 1.
		var carry uint64
		ai := a[i]
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(ai, b[j])
			var c1, c2 uint64
			lo, c1 = bits.Add64(lo, t[j], 0)
			lo, c2 = bits.Add64(lo, carry, 0)
			t[j] = lo
			carry = hi + c1 + c2
		}
		var c1 uint64
		t[k], c1 = bits.Add64(t[k], carry, 0)
		t[k+1] = c1
		// Reduce: add m·p with m chosen so the low limb cancels, then
		// shift one limb right (the t[j-1] writes).
		m := t[0] * c.n0
		hi, lo := bits.Mul64(m, p[0])
		_, c2 := bits.Add64(lo, t[0], 0)
		carry = hi + c2
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(m, p[j])
			var c3, c4 uint64
			lo, c3 = bits.Add64(lo, t[j], 0)
			lo, c4 = bits.Add64(lo, carry, 0)
			t[j-1] = lo
			carry = hi + c3 + c4
		}
		var c3 uint64
		t[k-1], c3 = bits.Add64(t[k], carry, 0)
		t[k] = t[k+1] + c3
	}
	// t < 2p, so at most one conditional subtraction normalizes it.
	sub := t[k] != 0
	if !sub {
		sub = true
		for j := k - 1; j >= 0; j-- {
			if t[j] != p[j] {
				sub = t[j] > p[j]
				break
			}
		}
	}
	if sub {
		var borrow uint64
		for j := 0; j < k; j++ {
			dst[j], borrow = bits.Sub64(t[j], p[j], borrow)
		}
	} else {
		copy(dst, t[:k])
	}
}

// mulMont4 is the fully unrolled 4-limb CIOS: the same algorithm as
// mulMontGeneric with every limb in a register, restructured per round as
// four independent Mul64s followed by two plain carry chains (lows, then
// highs shifted one limb) — the compiler turns each chain into an ADC
// sequence and the four products issue in parallel, which is where the
// speedup over the serial generic loop comes from. For the 256-bit group
// the paper's evaluation runs on. a and b must hold values < p; dst may
// alias either (both are read into locals before dst is written).
func mulMont4(dst, a, b []uint64, p *[4]uint64, n0 uint64) {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
	var t0, t1, t2, t3, t4, t5, c uint64

	// Round 1: T = a0·b (no prior accumulator), then T = (T + m·p)/2^64.
	h0, l0 := bits.Mul64(a0, b0)
	h1, l1 := bits.Mul64(a0, b1)
	h2, l2 := bits.Mul64(a0, b2)
	h3, l3 := bits.Mul64(a0, b3)
	t0 = l0
	t1, c = bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	t4 = h3 + c
	m := t0 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0) // t0 + l0 ≡ 0 mod 2^64 by choice of m
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, t5 = bits.Add64(t4, 0, c)
	t0, c = bits.Add64(t1, h0, 0) // shift down one limb while adding highs
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4 = t5 + c

	// Rounds 2–4: T += a_i·b, then T = (T + m·p)/2^64. Kept as three
	// literal copies so every accumulator stays in a register (an array
	// loop here spills t0..t5 and costs ~40%).

	// Round 2.
	h0, l0 = bits.Mul64(a1, b0)
	h1, l1 = bits.Mul64(a1, b1)
	h2, l2 = bits.Mul64(a1, b2)
	h3, l3 = bits.Mul64(a1, b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c // t4 ≤ 1 entering the round, so this cannot overflow
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, 0, c)
	t5 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4 = t5 + c

	// Round 3.
	h0, l0 = bits.Mul64(a2, b0)
	h1, l1 = bits.Mul64(a2, b1)
	h2, l2 = bits.Mul64(a2, b2)
	h3, l3 = bits.Mul64(a2, b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, 0, c)
	t5 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4 = t5 + c

	// Round 4.
	h0, l0 = bits.Mul64(a3, b0)
	h1, l1 = bits.Mul64(a3, b1)
	h2, l2 = bits.Mul64(a3, b2)
	h3, l3 = bits.Mul64(a3, b3)
	t0, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4 += c
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, t5 = bits.Add64(t4, h3, c)
	m = t0 * n0
	h0, l0 = bits.Mul64(m, p0)
	h1, l1 = bits.Mul64(m, p1)
	h2, l2 = bits.Mul64(m, p2)
	h3, l3 = bits.Mul64(m, p3)
	_, c = bits.Add64(t0, l0, 0)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, c = bits.Add64(t4, 0, c)
	t5 += c
	t0, c = bits.Add64(t1, h0, 0)
	t1, c = bits.Add64(t2, h1, c)
	t2, c = bits.Add64(t3, h2, c)
	t3, c = bits.Add64(t4, h3, c)
	t4 = t5 + c

	// t < 2p (t4 is the 2^256 overflow bit), so one conditional
	// subtraction normalizes it.
	d0, br := bits.Sub64(t0, p0, 0)
	d1, br := bits.Sub64(t1, p1, br)
	d2, br := bits.Sub64(t2, p2, br)
	d3, br := bits.Sub64(t3, p3, br)
	if t4 != 0 || br == 0 {
		dst[0], dst[1], dst[2], dst[3] = d0, d1, d2, d3
	} else {
		dst[0], dst[1], dst[2], dst[3] = t0, t1, t2, t3
	}
}

// ErrNotInvertible reports a batch inversion over a slab containing an
// element with no inverse mod P (only 0 for a prime modulus).
var ErrNotInvertible = errors.New("group: element not invertible")

// BatchInvMont replaces every k-limb element of the flat slab xs (whose
// length must be a multiple of Limbs()) with its Montgomery-domain inverse,
// using Montgomery's trick: one extended-GCD inversion plus 3(n−1) limb
// multiplications for n elements. The securemat decryption pipelines use it
// to fold a whole chunk's denominators (and the negative halves of the
// denominators EphemeralExps.PowRecoded returns) into a single inversion.
//
// scratch is optional caller scratch of at least len(xs) limbs; it is
// allocated when too small and returned either way so workers can reuse one
// slab across calls. On error no element of xs has been modified.
func (c *MontCtx) BatchInvMont(xs, scratch []uint64) ([]uint64, error) {
	k := c.k
	if len(xs)%k != 0 {
		panic("group: BatchInvMont slab length not a multiple of Limbs()")
	}
	n := len(xs) / k
	if n == 0 {
		return scratch, nil
	}
	if len(scratch) < n*k {
		scratch = make([]uint64, n*k)
	}
	pre := scratch
	copy(pre[:k], xs[:k])
	for i := 1; i < n; i++ {
		c.MulMont(pre[i*k:(i+1)*k], pre[(i-1)*k:i*k], xs[i*k:(i+1)*k])
	}
	invBig := new(big.Int).ModInverse(c.FromMont(pre[(n-1)*k:n*k]), c.p)
	if invBig == nil {
		return scratch, ErrNotInvertible
	}
	var invStack, tmpStack [montStackLimbs]uint64
	var inv, tmp []uint64
	if k <= montStackLimbs {
		inv, tmp = invStack[:k], tmpStack[:k]
	} else {
		inv, tmp = make([]uint64, k), make([]uint64, k)
	}
	c.ToMont(inv, invBig)
	for i := n - 1; i >= 1; i-- {
		xi := xs[i*k : (i+1)*k]
		// xi^{-1} = inv(x_0···x_i)·(x_0···x_{i-1}); fold the old xi into
		// the running inverse before overwriting it.
		copy(tmp, xi)
		c.MulMont(xi, inv, pre[(i-1)*k:i*k])
		c.MulMont(inv, inv, tmp)
	}
	copy(xs[:k], inv)
	return scratch, nil
}

// ExpMont computes dst = base^e in the Montgomery domain for a variable
// base (no precomputed table) and a non-negative exponent, by a
// left-to-right sliding window over MulMont: a table of the odd powers
// base, base³, …, base^{2^w−1}, then one squaring per exponent bit and one
// table product per window, every window ending on a set bit. The digits
// are read from the exponent's words (limbDigit), never bit by bit through
// big.Int. Callers with signed or unreduced exponents reduce them mod the
// group order first. dst may alias base.
func (c *MontCtx) ExpMont(dst, base []uint64, e *big.Int) {
	c.ExpMontScratch(dst, base, e, nil)
}

// ExpMontScratch is ExpMont with a caller-provided window-table slab, so
// loops that exponentiate many variable bases (the element-wise division
// pipeline) reuse one allocation. The slab is grown when too small and
// returned either way; pass nil on the first call and thread the result
// through subsequent ones.
func (c *MontCtx) ExpMontScratch(dst, base []uint64, e *big.Int, tab []uint64) []uint64 {
	if e.Sign() < 0 {
		panic("group: ExpMont requires a non-negative exponent")
	}
	k := c.k
	n := e.BitLen()
	if n == 0 {
		c.SetOne(dst)
		return tab
	}
	if n <= shortExp {
		// The plain square-and-multiply ladder, on a copy of the base so
		// that dst may alias it.
		tab = append(tab[:0], base[:k]...)
		d := uint(e.Bits()[0])
		copy(dst, tab)
		for i := n - 2; i >= 0; i-- {
			c.MulMont(dst, dst, dst)
			if d>>uint(i)&1 != 0 {
				c.MulMont(dst, dst, tab)
			}
		}
		return tab
	}
	w := slideWidth(n)
	// tab[d·k : (d+1)·k] = base^{2d+1} for d < odd; base² follows them.
	odd := 1 << (w - 1)
	if need := (odd + 1) * k; cap(tab) < need {
		tab = make([]uint64, need)
	} else {
		tab = tab[:need]
	}
	copy(tab[:k], base)
	if odd > 1 {
		sq := tab[odd*k:]
		c.MulMont(sq, tab[:k], tab[:k])
		for d := 1; d < odd; d++ {
			c.MulMont(tab[d*k:(d+1)*k], tab[(d-1)*k:d*k], sq)
		}
	}
	words := e.Bits()
	// Bit n−1 is set, so the first window opens the ladder by copy.
	started := false
	for i := n - 1; i >= 0; {
		if limbDigit(words, uint(i), 1) == 0 {
			c.MulMont(dst, dst, dst)
			i--
			continue
		}
		// The window is bits [lo, i], at most w wide, trimmed to end on a
		// set bit so its digit is odd.
		lo := max(i-w+1, 0)
		d := limbDigit(words, uint(lo), uint(i-lo+1))
		z := bits.TrailingZeros(d)
		lo += z
		entry := tab[int(d>>uint(z+1))*k:][:k]
		if started {
			for s := lo; s <= i; s++ {
				c.MulMont(dst, dst, dst)
			}
			c.MulMont(dst, dst, entry)
		} else {
			copy(dst, entry)
			started = true
		}
		i = lo - 1
	}
	return tab
}

// shortExp is the longest exponent, in bits, that ExpMont raises by the
// plain square-and-multiply ladder without consulting slideWidth, whose
// choice up to here is w = 1 (TestSlideWidthShortExp pins it). Such an
// exponent — a FEBO multiplier — fits in one word at any word size.
const shortExp = 12

// slideWidth picks ExpMont's window for an n-bit exponent by minimising the
// products it costs: the odd-power table (one squaring and 2^{w−1}−1
// products past the base) plus about n/(w+1) window products. It gives
// w = 5 from 241 bits, so at the full-width exponents of the 256- and
// 512-bit groups; w = 6 would pay only past 672 bits. A short exponent gets
// a short table: up to 12 bits, w = 1 is the plain square-and-multiply
// ladder.
func slideWidth(n int) int {
	best, bestCost := 1, float64(n)/2
	for w := 2; w <= 5; w++ {
		cost := float64(int(1)<<(w-1)) + float64(n)/float64(w+1)
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// limbDigit returns the w-bit digit (w ≤ 8) of the little-endian words x
// that starts at bit i, zero past the top word. x is big.Int.Bits(), so a
// digit costs a shift or two of whole words — 64-bit ones, or 32-bit ones
// where big.Word is 32 bits — not w calls to big.Int.Bit.
func limbDigit(x []big.Word, i, w uint) uint {
	const ws = bits.UintSize
	q, r := i/ws, i%ws
	if q >= uint(len(x)) {
		return 0
	}
	d := uint(x[q]) >> r
	if r+w > ws && q+1 < uint(len(x)) {
		d |= uint(x[q+1]) << (ws - r)
	}
	return d & (1<<w - 1)
}

// Mont returns the lazily built Montgomery context for the group modulus
// P, shared by every goroutine. It panics when P is even —
// impossible for a validated Params (P is a safe prime).
func (p *Params) Mont() *MontCtx {
	p.initMont()
	if p.montErr != nil {
		panic(p.montErr)
	}
	return p.mont
}

// initMont builds the Montgomery context once and records beside it
// whether P = 2Q+1, which Validate enforces and IsElement relies on.
func (p *Params) initMont() {
	p.montOnce.Do(func() {
		if p.Q != nil && p.P != nil {
			t := new(big.Int).Lsh(p.Q, 1)
			p.safe = t.Add(t, one).Cmp(p.P) == 0
		}
		p.mont, p.montErr = NewMontCtx(p.P)
	})
}

// packLimbs writes the little-endian 64-bit limbs of the non-negative x
// into dst, zero-padding to len(dst). It is portable across big.Word
// sizes; the 32-bit branch is compile-time dead code on 64-bit platforms.
func packLimbs(dst []uint64, x *big.Int) {
	for i := range dst {
		dst[i] = 0
	}
	words := x.Bits()
	if bits.UintSize == 64 {
		for i, w := range words {
			dst[i] = uint64(w)
		}
	} else {
		for i, w := range words {
			dst[i/2] |= uint64(w) << (32 * uint(i%2))
		}
	}
}

// unpackLimbs converts little-endian 64-bit limbs into a freshly
// allocated big.Int.
func unpackLimbs(limbs []uint64) *big.Int {
	if bits.UintSize == 64 {
		words := make([]big.Word, len(limbs))
		for i, l := range limbs {
			words[i] = big.Word(l)
		}
		// SetBits is unchecked: normalize by trimming high zero words.
		n := len(words)
		for n > 0 && words[n-1] == 0 {
			n--
		}
		return new(big.Int).SetBits(words[:n])
	}
	buf := make([]byte, 8*len(limbs))
	for i, l := range limbs {
		off := len(buf) - 8*(i+1)
		for b := 0; b < 8; b++ {
			buf[off+7-b] = byte(l >> (8 * uint(b)))
		}
	}
	return new(big.Int).SetBytes(buf)
}
