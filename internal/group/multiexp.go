package group

import (
	"math/big"
)

// Simultaneous multi-exponentiation (Straus' interleaved windowed method,
// HAC algorithm 14.88).
//
// FEIP decryption evaluates Π ct_i^{y_i}: η exponentiations sharing one
// running product. Computed naively that costs η full square-and-multiply
// ladders; interleaving shares the squarings across all bases, so the cost
// drops to max-bits squarings + one table multiplication per non-zero
// digit. The weight vectors of the CryptoNN workload make this dramatic:
// the y_i are tiny signed integers, so the shared ladder is only a few
// bits tall, while the naive path pays a full-size ladder per coordinate
// the moment a y_i is negative (negative exponents reduce mod Q into
// ~bits(Q)-bit values).
//
// Signs are handled by splitting the product: Π over positive exponents
// times the inverse of Π over |negative| exponents, which costs a single
// modular inversion instead of per-coordinate full-size exponents. The
// Montgomery-domain entry points return the two halves unreduced so batch
// callers (securemat's decryption pipeline) can fold even that inversion
// into their per-chunk BatchInvMont.
//
// The machine-integer entry points have one body, the coordinate form
// Π bases[idx[t]]^vals[t]; a dense exponent vector is the case idx = [0, n).

// MultiExp computes Π bases[i]^exps[i] mod P. Exponents may be negative,
// zero, or ≥ Q; each factor agrees with Params.Exp on the same inputs
// provided the bases lie in the order-Q subgroup (true of every group
// element in this codebase — the sign split relies on base^Q = 1).
// bases and exps must have equal length (MultiExp panics otherwise, the
// same contract as a mismatched index). An empty product is 1.
func (p *Params) MultiExp(bases, exps []*big.Int) *big.Int {
	posB, posE, negB, negE := p.splitSigned(bases, exps)
	mc := p.Mont()
	pos := mc.Elem()
	p.strausProdMont(pos, posB, posE, nil)
	if len(negB) == 0 {
		return mc.FromMont(pos)
	}
	neg := mc.Elem()
	p.strausProdMont(neg, negB, negE, nil)
	return p.Div(mc.FromMont(pos), mc.FromMont(neg))
}

// MultiExpInt64 is MultiExp for machine-integer exponents, converted
// through one backing slab (gatherInt64) instead of a big.NewInt per
// coordinate. bases and exps must have equal length (panics otherwise).
func (p *Params) MultiExpInt64(bases []*big.Int, exps []int64) *big.Int {
	return p.MultiExp(gatherInt64(bases, identity(len(bases)), exps))
}

// MultiExpInt64MontParts is MultiExpInt64SparseMontParts over the identity
// support: the product Π bases[i]^exps[i] with every base taking part.
// bases and exps must have equal length (panics otherwise, like MultiExp).
// The identity is built per call; a caller evaluating many products of one
// width keeps its own [0, n) slice and calls the coordinate form directly
// (securemat's column evaluator does).
func (p *Params) MultiExpInt64MontParts(pos, neg []uint64, bases []*big.Int, exps []int64, scratch []uint64) []uint64 {
	return p.MultiExpInt64SparseMontParts(pos, neg, bases, identity(len(bases)), exps, scratch)
}

// MultiExpInt64SparseMontParts computes the sign-split halves of the
// coordinate-form product Π bases[idx[t]]^vals[t] in the Montgomery domain:
// pos receives Π over positive exponents, neg the Π over |negative|
// exponents (each 1 when its partition is empty), so the full product is
// pos/neg — returned unreduced so batch callers fold the inversion into
// their per-chunk BatchInvMont. Both must be caller slices of Mont().Limbs()
// length. scratch is optional table scratch, grown as needed and returned
// for reuse. The walk never touches a base outside idx. idx and vals must
// have equal length (panics otherwise); an out-of-range index panics like
// any slice access. Callers pass canonical (strictly increasing) supports;
// explicit zero values are dropped.
func (p *Params) MultiExpInt64SparseMontParts(pos, neg []uint64, bases []*big.Int, idx []int, vals []int64, scratch []uint64) []uint64 {
	posB, posE, negB, negE := p.splitSigned(gatherInt64(bases, idx, vals))
	scratch = p.strausProdMont(pos, posB, posE, scratch)
	scratch = p.strausProdMont(neg, negB, negE, scratch)
	return scratch
}

// gatherInt64 is the one int64 → big.Int packing every machine-integer
// multi-exponentiation goes through: it collects the (bases[idx[t]],
// vals[t]) pairs with vals[t] ≠ 0, in order — which keeps products
// bit-identical with an unfiltered walk — backing all exponents with one
// slab, so a zero exponent costs no big.Int and never reaches the ladder.
func gatherInt64(bases []*big.Int, idx []int, vals []int64) (bs, exps []*big.Int) {
	if len(idx) != len(vals) {
		panic("group: MultiExp length mismatch")
	}
	slab := make([]big.Int, len(idx))
	bs = make([]*big.Int, 0, len(idx))
	exps = make([]*big.Int, 0, len(idx))
	for t, i := range idx {
		if vals[t] == 0 {
			continue
		}
		bs = append(bs, bases[i])
		exps = append(exps, slab[t].SetInt64(vals[t]))
	}
	return bs, exps
}

// identity returns the support [0, n): every coordinate, in order.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// splitSigned partitions (base, exponent) pairs into a positive and a
// negative product, keeping exponent magnitudes small: a small negative y
// must become (base^{-1})^{|y|} via the split, not a full-size y mod Q.
// The scratch slab keeps normalization from allocating per element. Zero
// (mod Q) exponents are dropped. bases and exps must have equal length.
func (p *Params) splitSigned(bases, exps []*big.Int) (posB, posE, negB, negE []*big.Int) {
	if len(bases) != len(exps) {
		panic("group: MultiExp length mismatch")
	}
	posB = make([]*big.Int, 0, len(bases))
	posE = make([]*big.Int, 0, len(bases))
	scratch := make([]big.Int, len(exps))
	for i, e := range exps {
		if e.Sign() == 0 {
			continue
		}
		abs := e
		neg := e.Sign() < 0
		if neg {
			abs = scratch[i].Neg(e)
		}
		if abs.Cmp(p.Q) >= 0 {
			abs = scratch[i].Mod(abs, p.Q)
			if abs.Sign() == 0 {
				continue
			}
		}
		if neg {
			negB = append(negB, bases[i])
			negE = append(negE, abs)
		} else {
			posB = append(posB, bases[i])
			posE = append(posE, abs)
		}
	}
	return posB, posE, negB, negE
}

// strausProdMont computes Π bases[i]^exps[i] for non-negative exponents
// < Q into dst as a Montgomery-domain element (1 for an empty product), by
// interleaved windowed exponentiation: one shared squaring ladder of
// max-bits height, with per-base digit tables of 2^w−1 entries.
//
// The whole ladder runs in the Montgomery domain: the digit tables are one
// flat limb slab built with MulMont, and every squaring and digit
// multiplication reduces without a division. Only the initial per-base
// ToMont touches big.Int arithmetic. scratch backs the digit tables; it is
// grown when too small and returned for reuse.
func (p *Params) strausProdMont(dst []uint64, bases, exps []*big.Int, scratch []uint64) []uint64 {
	mc := p.Mont()
	if len(bases) == 0 {
		mc.SetOne(dst)
		return scratch
	}
	maxBits := 0
	for _, e := range exps {
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	// Window width by ladder height: short ladders (tiny plaintext
	// exponents) want small tables, full-size exponents amortize w=4.
	w := 4
	switch {
	case maxBits <= 8:
		w = 2
	case maxBits <= 32:
		w = 3
	}
	k := mc.Limbs()
	rows := (1 << w) - 1
	// tab[(j·rows + d−1)·k : …+k] = bases[j]^d in Montgomery form.
	if need := len(bases) * rows * k; len(scratch) < need {
		scratch = make([]uint64, need)
	}
	tab := scratch
	for j, b := range bases {
		row := tab[j*rows*k:]
		mc.ToMont(row[:k], b)
		for d := 2; d <= rows; d++ {
			mc.MulMont(row[(d-1)*k:d*k], row[(d-2)*k:(d-1)*k], row[:k])
		}
	}
	started := false
	for i := (maxBits - 1) / w; i >= 0; i-- {
		if started {
			for s := 0; s < w; s++ {
				mc.SquareMont(dst, dst)
			}
		}
		for j, e := range exps {
			if d := windowDigit(e, i, w); d != 0 {
				entry := tab[(j*rows+int(d)-1)*k:]
				if !started {
					copy(dst[:k], entry[:k])
					started = true
				} else {
					mc.MulMont(dst, dst, entry[:k])
				}
			}
		}
	}
	if !started {
		mc.SetOne(dst) // every digit zero: exponents were all 0 mod Q
	}
	return scratch
}
