package group

import (
	"math/big"
	"math/bits"
	"slices"
)

// Bases seen once: one base, a set of full-width exponents, then never again.
//
// A FEIP ciphertext's ct_0 is raised to one function key per row of the
// weight matrix — the denominators of every cell in its column — and is then
// discarded, so neither a comb (thousands of multiplications to build) nor
// one ladder per exponent is right. The engine is Yao's right-to-left method
// (HAC Alg. 14.109): the base is squared up the exponents' bit length once,
// and that one chain serves every exponent of the set. Each exponent's
// width-4 NAF digits multiply the square at their bit position into one of
// eight buckets (odd magnitude 1, 3, 5 or 7, either sign), and the buckets of
// a sign fold into Π_d B_d^d with the running-product trick: about bitlen(Q)
// squarings shared, plus bitlen(Q)/5 digit multiplications and 14 folding
// ones per exponent. Negative digits land in a second half, so the value is
// pos/neg and the caller folds neg into the one batch inversion its chunk of
// cells pays anyway (MontCtx.BatchInvMont). The digits are the same for
// every base, so a run of bases raised to one set goes through the lane
// kernel eight at a time where there is one (lanes.go). That serves three
// shapes: one base and a set (a FEIP column's denominators), a run of bases
// and a set (the columns of a product that share their keys), and many
// bases and one exponent: a FEBO key batch raises every commitment to the
// authority's secret or a node's share (febo.RaiseCommitments).
//
// BenchmarkEphemeralWindow prices it (256 bits, -cpu 1, median of 7, µs per
// fresh base raised to every exponent of the set, with the set's inversion
// and folding multiplications; recoding is once per key set and left out)
// against one ladder per exponent and against the signed-window table
// (Brauer; HAC §14.6.3) it replaced, which paid ≈ 5.5·bitlen(Q)
// multiplications per base to build and then one per window digit:
//
//	exps                  1     2     6     8     16    32    512
//	shared squarings      11.3  12.1  19.3  22.0  35.3  64.2  847
//	ladder per exponent   9.4   18.3  53.6  79.9  144   280   4930
//	table, w=4 (deleted)  18.5  20.0  26.6  30.1  52.7  65.3  924
//	table, w=6 (deleted)  39.2  41.4  45.1  47.1  59.2  80.7  697
//
// Shared squarings beat the w=4 table at every size: 1.65× at train_cnn's 2
// filter keys, 1.4× at train_mlp's 8. A w=6 table still raises serve_topk's
// 512 label rows 150 µs sooner, but that workload recodes a fresh key set for
// every request, and the NAF recoding is the cheaper one: 0.24 ms for 512
// exponents against 0.58 ms for the table's signed windows. Over ten
// alternating 20 s pairs against the w=6 table, serve_topk read 75.6 → 77.7
// samples/s (medians), so a base seen once has one engine. The ladder needs
// no inversion, which is all it wins by at one exponent; in a secure product
// the inversion is shared by a chunk of at least 16 cells.
//
// BenchmarkFEBOKeyBatch (internal/authority) prices the third shape: µs per
// commitment of the single authority's 80-key batch at 256 bits, -cpu 1,
// with its membership check (≈ 2.7 µs) and its completion for − (≈ 0.4 µs).
// The scalar kernel is within 4 % of the ladder, so one body serves every
// CPU:
//
//	one exponent, 80 bases   lanes 4.2   scalar 10.9   ladder per base 10.5

// nafWidth is the width of the non-adjacent form the engine reads: non-zero
// digits are odd, |d| < 2^{nafWidth−1}, and any nafWidth consecutive
// positions hold at most one of them.
const nafWidth = 4

// nafBuckets is the number of odd digit magnitudes, and so of buckets per
// sign: 1, 3, 5, 7.
const nafBuckets = 1 << (nafWidth - 2)

// nafDigit is one non-zero digit ±(2m+1)·2^pos of a NAF recoding, stored
// as the bucket its square multiplies into: side·nafBuckets + m, side 1 for a
// negative digit. Resolving the sign here keeps a branch on it, as good as
// random, out of the evaluation loop.
type nafDigit struct {
	pos    uint16
	bucket uint8
}

// EphemeralExps is a set of full-width exponents recoded for raising bases
// seen once to every one of them, together with the scratch the evaluation
// reuses from one base to the next. Build it with Params.RecodeSigned once
// per set; it belongs to one goroutine at a time.
type EphemeralExps struct {
	p *Params
	// The non-zero NAF digits of every exponent, one exponent after the
	// other: the i-th one's are digits[ends[i−1]:ends[i]]. top is the highest
	// digit position over the set.
	digits []nafDigit
	ends   []int
	top    int
	// Evaluation scratch in kernel elements: the chain base^{2^b} for b ≤
	// top, the 2·nafBuckets buckets, a fold's running product and result.
	slab  []uint64
	limbs []uint64 // recoding scratch: one exponent as limbs
}

// RecodeSigned recodes exps into the signed digits PowRecoded reads.
// Exponents of any sign and size are accepted and reduced into [0, Q) first.
// The digits depend only on the group, so one recoding of a key set drives
// every ciphertext's denominators. reuse, when not nil, is recycled — its
// slices are grown and overwritten — and the result is returned either way.
func (p *Params) RecodeSigned(exps []*big.Int, reuse *EphemeralExps) *EphemeralExps {
	x := reuse
	if x == nil || x.p != p {
		x = &EphemeralExps{p: p}
	}
	// A random exponent has one digit per nafWidth+1 bits on average.
	x.digits = slices.Grow(x.digits[:0], len(exps)*(p.Q.BitLen()/(nafWidth+1)+1))
	x.ends, x.top = slices.Grow(x.ends[:0], len(exps)), 0
	for _, e := range exps {
		x.limbs = p.ScalarLimbs(e, x.limbs)
		start := len(x.digits)
		x.digits = appendNAF(x.digits, x.limbs)
		if len(x.digits) > start {
			x.top = max(x.top, int(x.digits[len(x.digits)-1].pos))
		}
		x.ends = append(x.ends, len(x.digits))
	}
	return x
}

// appendNAF appends the width-nafWidth non-adjacent form of the little-endian
// limb vector el to buf as its non-zero digits, lowest position first.
// Σ d·2^pos reconstructs el, and the highest position is at most the bit
// length of el: a negative digit needs its window's top bit set.
func appendNAF(buf []nafDigit, el []uint64) []nafDigit {
	end := 64 * len(el)
	var carry uint64
	for i := 0; ; {
		// Find the next position where bit + carry is odd: without a carry
		// the next set bit, with one the next clear bit, since a carry runs
		// through ones as a 2. Past the end every bit is clear.
		if i < end {
			v := limbWindow(el, i) ^ -carry
			if v == 0 {
				i += 64
				continue
			}
			i += bits.TrailingZeros64(v)
		} else if carry == 0 {
			return buf
		}
		// Odd: the next nafWidth bits plus the carry are the digit, or the
		// digit minus 2^nafWidth when that is nearer, which carries past the
		// window. Either way the window is cleared.
		d := carry + limbWindow(el, i)&(1<<nafWidth-1)
		carry = d >> (nafWidth - 1)
		if carry != 0 {
			// The digit is −(2^w − d); 2·nafBuckets more moves d>>1 onto
			// the negative side's buckets.
			d = 1<<nafWidth - d + 2*nafBuckets
		}
		buf = append(buf, nafDigit{pos: uint16(i), bucket: uint8(d >> 1)})
		i += nafWidth
	}
}

// limbWindow returns the 64 bits of the little-endian limb vector el from
// position pos up; bits past the end read as zero.
func limbWindow(el []uint64, pos int) uint64 {
	j, s := pos>>6, uint(pos&63)
	if j >= len(el) {
		return 0
	}
	v := el[j] >> s
	if s != 0 && j+1 < len(el) {
		v |= el[j+1] << (64 - s)
	}
	return v
}

// PowRecoded raises every base to every exponent of the set: for base b and
// the i-th exponent e_i it writes two Montgomery-domain elements at offset
// (b·n + i)·k of pos and of neg, with n the set's size and k =
// Mont().Limbs(), whose quotient pos/neg is base_b^{e_i} (each half 1 when
// no digit feeds it). pos and neg must hold one element per (base,
// exponent). A base must lie in the order-Q subgroup for the reduction of
// the exponents mod Q to be exact; any other value still returns, with a
// meaningless result.
//
// Where the lane kernel is present (lanes.go: amd64 with AVX-512 IFMA, the
// 256-bit group), runs of two to eight bases go through it together, limb
// for limb what the scalar kernel gives a lone base or any base elsewhere.
func (x *EphemeralExps) PowRecoded(pos, neg []uint64, bases []*big.Int) {
	mc := x.p.Mont()
	n := len(x.ends) * mc.k
	if len(pos) != len(bases)*n || len(neg) != len(bases)*n {
		panic("group: PowRecoded result slabs must hold one element per base and exponent")
	}
	b := 0
	if mc.Lanes() {
		for ; len(bases)-b >= 2; b += laneCount {
			e := min(b+laneCount, len(bases))
			powRun(laneKernel{mc}, x, pos[b*n:e*n], neg[b*n:e*n], bases[b:e])
		}
	}
	for ; b < len(bases); b++ {
		powRun(scalarKernel{mc}, x, pos[b*n:(b+1)*n], neg[b*n:(b+1)*n], bases[b:b+1])
	}
}

// powRun is the body of PowRecoded for the bases of one kernel element. The
// chain base^{2^b} runs up to the highest digit of the set; then, exponent
// by exponent, its digits go into the buckets and the buckets into its two
// halves, base l's i-th at pos[l·stride + i·k] with stride = len(ends)·k. A
// bucket is its first digit's chain element until a second one arrives.
func powRun[K elemKernel](kn K, x *EphemeralExps, pos, neg []uint64, bases []*big.Int) {
	k, s := x.p.Mont().k, kn.size()
	stride, chainLen := len(x.ends)*k, (x.top+1)*s
	x.slab = slices.Grow(x.slab[:0], chainLen+(2*nafBuckets+2)*s)[:chainLen+(2*nafBuckets+2)*s]
	chain, buckets := x.slab[:chainLen], x.slab[chainLen:]
	r, acc := buckets[2*nafBuckets*s:][:s], buckets[(2*nafBuckets+1)*s:][:s]
	var run baseRun
	run.n = copy(run.bases[:], bases)
	kn.load(chain[:s], run)
	kn.sqrChain(chain)
	var held [2 * nafBuckets][]uint64 // bucket j's value
	start := 0
	for i, end := range x.ends {
		var filled uint8 // bit j: bucket j holds a value
		for _, dg := range x.digits[start:end] {
			sq := chain[int(dg.pos)*s:][:s]
			if filled>>dg.bucket&1 == 0 {
				filled |= 1 << dg.bucket
				held[dg.bucket] = sq
			} else {
				bucket := buckets[int(dg.bucket)*s:][:s]
				kn.mul(bucket, held[dg.bucket], sq)
				held[dg.bucket] = bucket
			}
		}
		for h, out := range [2][]uint64{pos[i*k:], neg[i*k:]} {
			kn.store(out, stride, len(bases), foldBuckets(kn, acc, r, held[h*nafBuckets:][:nafBuckets], filled>>(h*nafBuckets)))
		}
		start = end
	}
}

// foldBuckets returns Π_j B_j^{2j+1} over the buckets B_j = held[j] of odd
// magnitude 2j+1 that filled marks (the others are 1), or nil when it marks
// none. With R_j = Π_{j' ≥ j} B_{j'} that is (R_{h−1}···R_1)²·R_0: 7
// multiplications for four full buckets, into r and acc, each a bucket by
// reference until its first one.
func foldBuckets[K elemKernel](kn K, acc, r []uint64, held [][]uint64, filled uint8) []uint64 {
	var prod, run []uint64 // the result and the running product so far
	for j := nafBuckets - 1; j >= 0; j-- {
		if j == 0 && prod != nil {
			kn.mul(acc, prod, prod)
			prod = acc
		}
		if filled>>j&1 != 0 {
			if run != nil {
				kn.mul(r, run, held[j])
				run = r
			} else {
				run = held[j]
			}
		}
		if run != nil {
			if prod != nil {
				kn.mul(acc, prod, run)
				prod = acc
			} else {
				prod = run
			}
		}
	}
	return prod
}
