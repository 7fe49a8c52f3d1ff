package group

import (
	"math/big"
	"math/bits"
	"slices"
)

// Eight bases in lockstep.
//
// PowRecoded's digits depend only on the exponents, so every base raised to
// one recoded set walks the same squaring chain, fills the same buckets and
// folds them the same way: a run of bases is one instruction stream over
// several data. On amd64 CPUs with AVX-512 IFMA (VPMADD52LUQ/VPMADD52HUQ,
// 52×52-bit products added into 64-bit lanes) the lane kernel in
// lanes_amd64.s computes eight 256-bit Montgomery products at once
// (Gueron and Krasnov, "Accelerating Big Integer Arithmetic Using Intel
// IFMA Extensions", ARITH 2016). An operand is a laneElem, five 52-bit limbs
// per lane stored limb-major, and its Montgomery radix is 2^260, not the
// scalar engine's 2^256. Products are reduced lazily, below 2p rather than
// below p, which is sound because 4p < 2^260; a base enters the lane domain
// once (one lane product by 2^520 mod p) and each result half leaves it
// once (one lane product by 2^256 mod p, then a conditional subtraction per
// lane), so what PowRecoded returns is canonical and limb for limb what the
// scalar body returns.

const (
	laneCount = 8  // bases per lane product
	laneLimbs = 5  // 52-bit limbs per lane element
	laneBits  = 52 // bits per limb
	laneMask  = 1<<laneBits - 1
)

// laneElem holds eight values below 2p, one per lane: limb j of lane l is
// element j·laneCount + l.
type laneElem [laneLimbs * laneCount]uint64

// laneConsts is what the lane kernel reads besides its operands (the
// assembly addresses p, n0 and mask by offset: keep them first), plus the
// two domain-change multipliers.
type laneConsts struct {
	p    laneElem          // the modulus in every lane
	n0   [laneCount]uint64 // −p^{-1} mod 2^52 in every lane
	mask [laneCount]uint64 // 2^52 − 1 in every lane
	in   laneElem          // 2^520 mod p: x·in·2^-260 = x·2^260
	out  laneElem          // 2^256 mod p: x·2^260·out·2^-260 = x·2^256
}

// newLaneConsts builds the lane constants of a 4-limb MontCtx.
func newLaneConsts(c *MontCtx) *laneConsts {
	lc := new(laneConsts)
	lc.p.broadcast(c.p)
	lc.in.broadcast(new(big.Int).Mod(new(big.Int).Lsh(one, 2*laneLimbs*laneBits), c.p))
	lc.out.broadcast(new(big.Int).Mod(new(big.Int).Lsh(one, 256), c.p))
	for l := range laneCount {
		lc.n0[l] = c.n0 & laneMask
		lc.mask[l] = laneMask
	}
	return lc
}

// broadcast writes x, below 2^256, into every lane of e.
func (e *laneElem) broadcast(x *big.Int) {
	var v [4]uint64
	packLimbs(v[:], x)
	for l := range laneCount {
		e.setLane(l, &v)
	}
}

// setLane writes the 256-bit value v into lane l of e.
func (e *laneElem) setLane(l int, v *[4]uint64) {
	e[0*laneCount+l] = v[0] & laneMask
	e[1*laneCount+l] = (v[0]>>52 | v[1]<<12) & laneMask
	e[2*laneCount+l] = (v[1]>>40 | v[2]<<24) & laneMask
	e[3*laneCount+l] = (v[2]>>28 | v[3]<<36) & laneMask
	e[4*laneCount+l] = v[3] >> 16
}

// lane writes lane l of e, a value below 2p, reduced below p into the four
// limbs of dst.
func (e *laneElem) lane(dst []uint64, l int, p *[4]uint64) {
	l0, l1, l2, l3, l4 := e[0*laneCount+l], e[1*laneCount+l], e[2*laneCount+l], e[3*laneCount+l], e[4*laneCount+l]
	v := [4]uint64{l0 | l1<<52, l1>>12 | l2<<40, l2>>24 | l3<<28, l3>>36 | l4<<16}
	top := l4 >> 48 // the 2^256 bit
	var d [4]uint64
	var br uint64
	for j := range d {
		d[j], br = bits.Sub64(v[j], p[j], br)
	}
	if top != 0 || br == 0 {
		v = d
	}
	copy(dst[:4], v[:])
}

// laneScratch is the lane path's working memory, kept in the EphemeralExps
// beside the scalar chain: the squaring chain (80 KB at 256 bits, ten times
// the scalar one), and the buckets plus the running product of a fold.
type laneScratch struct {
	chain   []laneElem
	buckets [2*nafBuckets + 1]laneElem
}

// powLanes is PowRecoded's body for two to eight bases in lockstep: one
// chain whose lanes are the bases (a short run repeats its last base in the
// spare lanes), then, exponent by exponent, the scalar body's bucket
// products and folds on whole lane elements. Results go where PowRecoded
// puts them: base b's exponent i at pos[b·stride + i·k].
func (x *EphemeralExps) powLanes(pos, neg []uint64, bases []*big.Int) {
	mc := x.p.Mont()
	lc, k, stride := mc.lanes, mc.k, len(x.ends)*mc.k
	if x.lanes == nil {
		x.lanes = new(laneScratch)
	}
	sc := x.lanes
	sc.chain = slices.Grow(sc.chain[:0], x.top+1)[:x.top+1]
	chain, buckets, r := sc.chain, sc.buckets[:2*nafBuckets], &sc.buckets[2*nafBuckets]
	var v [4]uint64
	for l := range laneCount {
		b := bases[min(l, len(bases)-1)]
		if b.Sign() < 0 || b.Cmp(mc.p) >= 0 {
			b = new(big.Int).Mod(b, mc.p)
		}
		packLimbs(v[:], b)
		chain[0].setLane(l, &v)
	}
	mulMontLanes(&chain[0], &chain[0], &lc.in, lc)
	sqrChainLanes(chain, lc)
	var half laneElem
	start := 0
	for i, end := range x.ends {
		var filled uint8
		for _, dg := range x.digits[start:end] {
			if filled>>dg.bucket&1 == 0 {
				filled |= 1 << dg.bucket
				buckets[dg.bucket] = chain[dg.pos]
			} else {
				mulMontLanes(&buckets[dg.bucket], &buckets[dg.bucket], &chain[dg.pos], lc)
			}
		}
		for h, out := range [2][]uint64{pos[i*k:], neg[i*k:]} {
			if !foldLanes(lc, &half, r, buckets[h*nafBuckets:(h+1)*nafBuckets], filled>>(h*nafBuckets)) {
				for l := range bases {
					mc.SetOne(out[l*stride:][:k])
				}
				continue
			}
			mulMontLanes(&half, &half, &lc.out, lc)
			for l := range bases {
				half.lane(out[l*stride:], l, &mc.p4)
			}
		}
		start = end
	}
}

// foldLanes is foldBuckets on lane elements: dst = Π_j B_j^{2j+1} over the
// buckets filled marks. It reports false, leaving dst alone, when no bucket
// is filled and the product is 1.
func foldLanes(lc *laneConsts, dst, r *laneElem, buckets []laneElem, filled uint8) bool {
	rSet, dstSet := false, false
	for j := nafBuckets - 1; j >= 0; j-- {
		if j == 0 && dstSet {
			mulMontLanes(dst, dst, dst, lc)
		}
		if filled>>j&1 != 0 {
			if rSet {
				mulMontLanes(r, r, &buckets[j], lc)
			} else {
				*r, rSet = buckets[j], true
			}
		}
		if rSet {
			if dstSet {
				mulMontLanes(dst, dst, r, lc)
			} else {
				*dst, dstSet = *r, true
			}
		}
	}
	return dstSet
}
