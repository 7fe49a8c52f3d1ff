package group

import (
	"math/big"
	"math/bits"

	"cryptonn/internal/par"
)

// Lim–Lee comb exponentiation for fixed bases.
//
// A base that lives as long as a key — the generator, the h_i of a FEIP
// master public key, the FEBO h — sees thousands of full-width
// exponents (nonces, key shares), so it pays for the deepest
// precomputation. The comb method (Lim & Lee, "More Flexible
// Exponentiation with Precomputation", CRYPTO '94) reads the exponent's
// bits in fixed positions: no recoding, no signed digits, no negative
// accumulator to invert, and far fewer multiplications than one table
// entry per window.
//
// Geometry: an exponent of L = Q.BitLen() bits is cut into h blocks of
// a = v·b bits, each block into v sub-blocks of b bits. One tooth pattern
// u ∈ [1, 2^h) selects a subset of the h blocks; the table stores, for
// each sub-block column t ∈ [0, v),
//
//	comb[t][u] = Π_{j: bit j of u set} base^{2^{j·a + t·b}}
//
// and an evaluation is b−1 squarings plus at most v·b table
// multiplications. The right (h, v) depends on the regime:
// a hot, shared base (the generator) wants teeth — more precompute,
// fewer operations — while a batch encryptor walking hundreds of
// per-key slabs cache-cold wants the slab compact (see keyCombGeometry
// and the geometry constants below). All entries live in the Montgomery
// domain as one flat limb slab. A FixedBaseComb is immutable after
// construction and safe for concurrent use.

const (
	// combTeethKey/combSplitKey is the per-key geometry for narrow
	// groups (≤128-bit exponents): evaluation there is operation-bound
	// (1-limb multiplications cost single nanoseconds), so the shallow
	// b = ⌈⌈L/h⌉/v⌉ — one squaring and ≤8 multiplications at 64 bits —
	// wins despite the 2^h−1-entry columns.
	combTeethKey = 8
	combSplitKey = 4
	// combTeethKeyWide/combSplitKeyWide is the per-key geometry for wide
	// groups (the 256-bit paper group). A batch encryptor walks η≈784
	// per-key slabs once per ciphertext, so evaluation is cache-bound,
	// not operation-bound: the compact 2·63-entry slab (4 KiB per key at
	// 256 bits, against 32 KiB for h=8/v=4) keeps the whole key set near
	// L2 and measures ~30% faster at η=784 even though it spends 21
	// squarings + ≤44 multiplications per evaluation instead of 7 + ≤32.
	combTeethKeyWide = 6
	combSplitKeyWide = 2
	// combTeethGen/combSplitGen is the deeper generator geometry: g is
	// shared process-wide and its slab stays hot, so a 128 KiB slab
	// buying 6 squarings + ≤28 multiplications per full-width PowG is
	// the right trade.
	combTeethGen = 10
	combSplitGen = 4
)

// keyCombGeometry picks the per-key comb geometry for an L-bit exponent:
// narrow groups are operation-bound, wide groups cache-bound (see the
// geometry constants). BenchmarkKeyCombGeometry is the evidence (η=784
// per-key combs under a fresh nonce per pass, -cpu 1, median of 5):
//
//	bits  h=8/v=4  h=8/v=2  h=8/v=1  h=6/v=2  h=6/v=1  h=4/v=2
//	64    138µs    154µs    181µs    221µs    254µs    207µs
//	256   4.16ms   3.83ms   3.09ms   2.95ms   2.71ms   3.07ms
//
// h=8/v=4 wins the narrow group by 10%; at 256 bits the compact h=6 slabs
// beat it by 30–35%, with v=2 and v=1 inside each other's spread.
func keyCombGeometry(L int) (h, v int) {
	if L <= 128 {
		return combTeethKey, combSplitKey
	}
	return combTeethKeyWide, combSplitKeyWide
}

// FixedBaseComb holds Lim–Lee comb precomputation for one long-lived base.
type FixedBaseComb struct {
	params *Params
	mc     *MontCtx
	base   *big.Int
	h      int // teeth: blocks combined per table entry
	v      int // column splits per block
	b      int // bits per sub-block: the squaring depth of an evaluation
	a      int // block stride in bits, = v·b
	k      int // limbs per Montgomery-domain element
	// slab[(t·(2^h−1) + u−1)·k : …+k] = comb[t][u] in Montgomery form,
	// for t in 0..v−1 and tooth pattern u in 1..2^h−1.
	slab []uint64
}

// NewFixedBaseComb precomputes a comb table for base with the per-key
// geometry for the group's exponent width. base must be an element of the
// order-Q subgroup (the exponent reduction mod Q relies on base^Q = 1).
func (p *Params) NewFixedBaseComb(base *big.Int) *FixedBaseComb {
	h, v := keyCombGeometry(p.Q.BitLen())
	return p.newFixedBaseComb(base, h, v)
}

func (p *Params) newFixedBaseComb(base *big.Int, h, v int) *FixedBaseComb {
	mc := p.Mont()
	k := mc.Limbs()
	L := p.Q.BitLen()
	a := (L + h - 1) / h
	b := (a + v - 1) / v
	c := &FixedBaseComb{
		params: p,
		mc:     mc,
		base:   new(big.Int).Set(base),
		h:      h,
		v:      v,
		b:      b,
		a:      v * b, // blocks are padded to whole sub-blocks
		k:      k,
		slab:   make([]uint64, v*((1<<h)-1)*k),
	}
	c.build()
	return c
}

// build fills the slab: first the h·v tooth powers base^{2^{s·b}} by
// repeated squaring (s = j·v + t, so j·a + t·b = s·b), then each column's
// 2^h−1 subset products, each one multiplication off a previous entry.
func (c *FixedBaseComb) build() {
	mc, k, h, v := c.mc, c.k, c.h, c.v
	half := (1 << h) - 1
	teeth := make([]uint64, h*v*k)
	cur := teeth[:k]
	mc.ToMont(cur, c.base)
	for s := 1; s < h*v; s++ {
		next := teeth[s*k : (s+1)*k]
		copy(next, cur)
		for i := 0; i < c.b; i++ {
			mc.MulMont(next, next, next)
		}
		cur = next
	}
	for t := 0; t < v; t++ {
		col := c.slab[t*half*k:]
		for u := 1; u <= half; u++ {
			j := bits.Len(uint(u)) - 1
			tooth := teeth[(j*v+t)*k : (j*v+t+1)*k]
			entry := col[(u-1)*k : u*k]
			if rest := u &^ (1 << j); rest == 0 {
				copy(entry, tooth)
			} else {
				mc.MulMont(entry, col[(rest-1)*k:rest*k], tooth)
			}
		}
	}
}

// NewFixedBaseCombs builds per-key-geometry combs for a batch of bases —
// the η h_i of one FEIP master public key — on every core: a comb is a few
// hundred multiplications that depend on nothing but its base.
func (p *Params) NewFixedBaseCombs(bases []*big.Int) []*FixedBaseComb {
	combs := make([]*FixedBaseComb, len(bases))
	_ = par.ForEachChunk(len(bases), 1, 0, par.NoScratch, func(i, _ int, _ struct{}) error {
		combs[i] = p.NewFixedBaseComb(bases[i])
		return nil
	})
	return combs
}

// maxCombColumns bounds b·v for the stack scratch of PowMontLimbs; every
// supported geometry is far below it (b·v ≈ padded exponent width / h).
const maxCombColumns = 512

// PowMontLimbs computes base^e into dst as a Montgomery-domain element,
// for an exponent packed little-endian into el (ScalarLimbs). This is the
// zero-allocation core. dst must be Limbs() long and must not alias el.
func (c *FixedBaseComb) PowMontLimbs(dst []uint64, el []uint64) {
	var stack [maxCombColumns]uint32
	var us []uint32
	if n := c.b * c.v; n <= len(stack) {
		us = stack[:n]
	}
	c.PowMontGathered(dst, c.Gather(el, us))
}

// Gather extracts the per-column tooth patterns the comb's evaluation
// reads from an exponent packed by ScalarLimbs, reusing buf when it has
// the capacity. The patterns depend only on the comb's geometry and the
// group's exponent width — not on its base — so batch encryptors gather
// the shared nonce once and evaluate the result against every per-key
// comb (PowMontGathered), instead of re-reading every exponent bit per
// key.
func (c *FixedBaseComb) Gather(el []uint64, buf []uint32) []uint32 {
	h, v, b, a := c.h, c.v, c.b, c.a
	n := b * v
	if cap(buf) < n {
		buf = make([]uint32, n)
	}
	buf = buf[:n]
	for i := 0; i < b; i++ {
		for t := 0; t < v; t++ {
			u := uint32(0)
			pos := t*b + i
			for j := 0; j < h; j++ {
				u |= uint32(limbBit(el, pos)) << j
				pos += a
			}
			buf[i*v+t] = u
		}
	}
	return buf
}

// PowMontGathered is PowMontLimbs for an exponent already gathered into
// column patterns by Gather — on this comb or any comb of identical
// geometry over the same group. dst must be Limbs() long.
func (c *FixedBaseComb) PowMontGathered(dst []uint64, us []uint32) {
	mc, k, v := c.mc, c.k, c.v
	half := (1 << c.h) - 1
	started := false
	for i := c.b - 1; i >= 0; i-- {
		if started {
			mc.MulMont(dst, dst, dst)
		}
		for t := v - 1; t >= 0; t-- {
			u := int(us[i*v+t])
			if u == 0 {
				continue
			}
			entry := c.slab[(t*half+u-1)*k:]
			if !started {
				copy(dst[:k], entry[:k])
				started = true
			} else {
				mc.MulMont(dst, dst, entry[:k])
			}
		}
	}
	if !started {
		mc.SetOne(dst) // e ≡ 0 mod Q
	}
}

// PowMont computes base^exp into dst as a Montgomery-domain element of
// Limbs() length. Exponents of any sign and size are accepted (reduced
// into [0, Q), relying on base^Q = 1); the evaluation is inversion-free.
func (c *FixedBaseComb) PowMont(dst []uint64, exp *big.Int) {
	var stack [montStackLimbs]uint64
	var el []uint64
	if n := c.params.scalarLimbCount(); n <= montStackLimbs {
		el = stack[:n]
	}
	el = c.params.ScalarLimbs(exp, el)
	c.PowMontLimbs(dst, el)
}

// scalarLimbCount is the limb length of a ScalarLimbs packing.
func (p *Params) scalarLimbCount() int { return (p.Q.BitLen() + 63) / 64 }

// ScalarLimbs packs an exponent into canonical little-endian limbs for
// the comb evaluators, reducing it into [0, Q) first. buf is reused when
// its capacity suffices.
func (p *Params) ScalarLimbs(e *big.Int, buf []uint64) []uint64 {
	if e.Sign() < 0 || e.Cmp(p.Q) >= 0 {
		e = new(big.Int).Mod(e, p.Q)
	}
	n := p.scalarLimbCount()
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	packLimbs(buf, e)
	return buf
}

// limbBit extracts bit pos of a little-endian limb vector; bits past the
// end read as zero (blocks are padded to whole sub-blocks).
func limbBit(el []uint64, pos int) uint64 {
	w := pos >> 6
	if w >= len(el) {
		return 0
	}
	return (el[w] >> (uint(pos) & 63)) & 1
}
