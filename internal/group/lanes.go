package group

import (
	"math/big"
	"math/bits"
	"unsafe"
)

// Element kernels: the arithmetic the exponentiation bodies are written over.
//
// PowRecoded (ephemeral.go) and the many-rows multi-exponentiation
// (multiexp.go) each have one body, generic in an elemKernel. The body owns
// the chain length, the NAF bucket fill and fold, the table of odd powers,
// the digit slots and masks and the Horner folds, and sees an element as
// size() words of a []uint64 region. The kernel is a type parameter, not a
// func value per product, and gets no closure (what its methods are handed
// escapes): a body allocates nothing once its scratch has grown.
//
// scalarKernel holds one value per element, k Montgomery limbs, at every
// group width. laneKernel holds eight, one per 64-bit lane of a ZMM
// register: bases raised to one recoded set walk the same chain and fill
// the same buckets, and columns on one support share every digit, slot and
// fold, so a run of up to eight is one instruction stream. lanes_amd64.s
// computes eight 256-bit Montgomery products at once on AVX-512 IFMA
// (VPMADD52LUQ/VPMADD52HUQ; Gueron and Krasnov, "Accelerating Big Integer
// Arithmetic Using Intel IFMA Extensions", ARITH 2016) on five 52-bit limbs
// per lane stored limb-major, with radix 2^260 and lazy reduction below 2p
// (4p < 2^260). A base enters the lane domain by a lane product with 2^520
// mod p and a result half leaves it by one with 2^256 mod p plus a
// conditional subtraction per lane: both kernels give canonical results,
// limb for limb the same.

// elemKernel is the element arithmetic of an exponentiation body; dst may
// alias a and b.
type elemKernel interface {
	size() int
	// mul writes the Montgomery product a·b into dst.
	mul(dst, a, b []uint64)
	// sqrChain squares element i−1 of chain into element i, for i ≥ 1.
	sqrChain(chain []uint64)
	// load writes the run's bases into dst in the Montgomery domain, base
	// l in lane l, spare lanes repeating the last base; a base outside
	// [0, p) is reduced first.
	load(dst []uint64, run baseRun)
	// store writes lane l of half to out[l·stride:] as k canonical limbs
	// for l < n, leaving half as it is; a nil half is the empty product, 1.
	store(out []uint64, stride, n int, half []uint64)
}

// baseRun names the bases of one element: base l is cols[l][t] or, where
// cols is nil, bases[l]; at(l) past the end of the run is its last base.
type baseRun struct {
	bases []*big.Int
	cols  [][]*big.Int
	t     int
}

func (r baseRun) at(l int) *big.Int {
	if r.cols != nil {
		return r.cols[min(l, len(r.cols)-1)][r.t]
	}
	return r.bases[min(l, len(r.bases)-1)]
}

// scalarKernel is the one-value kernel: an element is k limbs of mc.
type scalarKernel struct{ mc *MontCtx }

func (s scalarKernel) size() int { return s.mc.k }

// mul calls the assembly product itself, one call less than MulMont.
func (s scalarKernel) mul(dst, a, b []uint64) {
	if s.mc.k == 4 && useADX {
		mulMont4ADX((*[4]uint64)(dst), (*[4]uint64)(a), (*[4]uint64)(b), &s.mc.p4, s.mc.n0)
		return
	}
	s.mc.MulMont(dst, a, b)
}

func (s scalarKernel) sqrChain(chain []uint64) {
	k := s.mc.k
	for b := k; b < len(chain); b += k {
		s.mc.MulMont(chain[b:b+k], chain[b-k:b], chain[b-k:b])
	}
}

func (s scalarKernel) load(dst []uint64, run baseRun) {
	s.mc.ToMont(dst[:s.mc.k], run.at(0))
}

func (s scalarKernel) store(out []uint64, _, _ int, half []uint64) {
	if half == nil {
		half = s.mc.r1 // 1 in the Montgomery domain
	}
	copy(out[:s.mc.k], half)
}

const (
	laneCount = 8  // bases per lane product
	laneLimbs = 5  // 52-bit limbs per lane element
	laneBits  = 52 // bits per limb
	laneMask  = 1<<laneBits - 1
	laneWords = laneLimbs * laneCount // words per lane element
)

// laneElem holds eight values below 2p, one per lane: limb j of lane l is
// element j·laneCount + l.
type laneElem [laneWords]uint64

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

// laneKernel is the eight-value kernel of a 4-limb MontCtx (mc.lanes not
// nil): an element is a laneElem, a product is mulMontLanes.
type laneKernel struct{ mc *MontCtx }

func (laneKernel) size() int { return laneWords }

func (k laneKernel) mul(dst, a, b []uint64) {
	mulMontLanes((*laneElem)(dst), (*laneElem)(a), (*laneElem)(b), k.mc.lanes)
}

func (k laneKernel) sqrChain(chain []uint64) {
	sqrChainLanes(unsafe.Slice((*laneElem)(chain), len(chain)/laneWords), k.mc.lanes)
}

func (k laneKernel) load(dst []uint64, run baseRun) {
	e := (*laneElem)(dst)
	var v [4]uint64
	for l := range laneCount {
		b := run.at(l)
		if b.Sign() < 0 || b.Cmp(k.mc.p) >= 0 {
			b = new(big.Int).Mod(b, k.mc.p)
		}
		packLimbs(v[:], b)
		e.setLane(l, &v)
	}
	mulMontLanes(e, e, &k.mc.lanes.in, k.mc.lanes)
}

func (k laneKernel) store(out []uint64, stride, n int, half []uint64) {
	if half == nil {
		for l := range n {
			k.mc.SetOne(out[l*stride:][:k.mc.k])
		}
		return
	}
	var e laneElem
	mulMontLanes(&e, (*laneElem)(half), &k.mc.lanes.out, k.mc.lanes)
	for l := range n {
		e.lane(out[l*stride:], l, &k.mc.p4)
	}
}
