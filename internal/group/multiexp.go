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
// Montgomery-domain entry point returns the two halves unreduced so batch
// callers (securemat's decryption pipeline) can fold even that inversion
// into their per-chunk BatchInvMont.

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

// MultiExpInt64 is MultiExp for machine-integer exponents; it converts via
// one backing slab instead of a big.NewInt per coordinate, which matters
// because FEIP decryption calls it once per output matrix cell. Zero
// exponents are filtered before any big.Int is materialized, so a mostly-
// zero exps (a sparse weight row against a dense ciphertext) only pays for
// its non-zero coordinates.
func (p *Params) MultiExpInt64(bases []*big.Int, exps []int64) *big.Int {
	if len(bases) != len(exps) {
		panic("group: MultiExp length mismatch")
	}
	bs, ptrs := packInt64Nonzero(bases, exps)
	return p.MultiExp(bs, ptrs)
}

// packInt64Nonzero gathers the non-zero (base, exponent) pairs into compact
// slices, backing all exponents with one slab. The order of surviving pairs
// is preserved, which keeps products bit-identical with the unfiltered walk.
func packInt64Nonzero(bases []*big.Int, exps []int64) ([]*big.Int, []*big.Int) {
	nnz := 0
	for _, e := range exps {
		if e != 0 {
			nnz++
		}
	}
	vals := make([]big.Int, nnz)
	bs := make([]*big.Int, nnz)
	ptrs := make([]*big.Int, nnz)
	t := 0
	for i, e := range exps {
		if e == 0 {
			continue
		}
		bs[t] = bases[i]
		ptrs[t] = vals[t].SetInt64(e)
		t++
	}
	return bs, ptrs
}

// MultiExpInt64MontParts computes the sign-split halves of Π bases[i]^exps[i]
// in the Montgomery domain: pos receives Π over positive exponents, neg the
// Π over |negative| exponents (each 1 when its partition is empty), so the
// full product is pos/neg. Both must be caller slices of Mont().Limbs()
// length. scratch is optional table scratch, grown as needed and returned
// for reuse — the securemat decryption workers call this once per output
// cell and keep one slab per worker. bases and exps must have equal length
// (panics otherwise, like MultiExp).
func (p *Params) MultiExpInt64MontParts(pos, neg []uint64, bases []*big.Int, exps []int64, scratch []uint64) []uint64 {
	if len(bases) != len(exps) {
		panic("group: MultiExp length mismatch")
	}
	bs, ptrs := packInt64Nonzero(bases, exps)
	posB, posE, negB, negE := p.splitSigned(bs, ptrs)
	scratch = p.strausProdMont(pos, posB, posE, scratch)
	scratch = p.strausProdMont(neg, negB, negE, scratch)
	return scratch
}

// MultiExpInt64SparseMontParts is MultiExpInt64MontParts for a sparse
// exponent vector in coordinate form: idx holds the indices of the entries
// and vals the matching exponents, so the product is Π bases[idx[t]]^vals[t]
// and the walk never touches the η−nnz absent coordinates. idx and vals
// must have equal length (panics otherwise); an out-of-range index panics
// like any slice access. Callers pass canonical (strictly increasing)
// supports; explicit zero values are dropped.
func (p *Params) MultiExpInt64SparseMontParts(pos, neg []uint64, bases []*big.Int, idx []int, vals []int64, scratch []uint64) []uint64 {
	bs, ptrs := gatherSparse(bases, idx, vals)
	posB, posE, negB, negE := p.splitSigned(bs, ptrs)
	scratch = p.strausProdMont(pos, posB, posE, scratch)
	scratch = p.strausProdMont(neg, negB, negE, scratch)
	return scratch
}

func gatherSparse(bases []*big.Int, idx []int, vals []int64) ([]*big.Int, []*big.Int) {
	if len(idx) != len(vals) {
		panic("group: MultiExpSparse index/value length mismatch")
	}
	slab := make([]big.Int, len(idx))
	bs := make([]*big.Int, 0, len(idx))
	ptrs := make([]*big.Int, 0, len(idx))
	for t, i := range idx {
		if vals[t] == 0 {
			continue
		}
		bs = append(bs, bases[i])
		ptrs = append(ptrs, slab[t].SetInt64(vals[t]))
	}
	return bs, ptrs
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
