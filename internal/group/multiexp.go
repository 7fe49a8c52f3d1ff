package group

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Simultaneous multi-exponentiation: Π bases[t]^{e_t} as one computation
// instead of one ladder per base.
//
// There are two bodies, because there are two kinds of exponent. Full-width
// big.Int exponents — DLEQ batch verification, Feldman checks, the quorum
// check — go through MultiExp: Straus' interleaved windowed method (HAC
// 14.88) over one sign-split pair of products. Machine-integer exponents —
// the fixed-point weights every FEIP decryption raises ciphertext
// coordinates to — go through multiExpRows, which serves a whole weight
// matrix per call: securemat evaluates every cell of a ciphertext's column
// at once, so each coordinate is converted and tabulated once for all rows of
// W rather than once per cell. It serves several columns per call too: the
// ciphertexts on one support share every digit, so rowsRun takes eight at
// once on the lane kernel (lanes.go). The one-row forms are one column.
//
// Signs never cost an exponentiation: a negative exponent's factors collect
// in a second product, the value is pos/neg, and the Montgomery-domain entry
// points return the halves unreduced so batch callers (securemat's
// decryption pipeline) fold the inversion into their per-chunk BatchInvMont.

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
	p.strausProdMont(pos, posB, posE)
	if len(negB) == 0 {
		return mc.FromMont(pos)
	}
	neg := mc.Elem()
	p.strausProdMont(neg, negB, negE)
	return p.Div(mc.FromMont(pos), mc.FromMont(neg))
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
// ToMont touches big.Int arithmetic.
func (p *Params) strausProdMont(dst []uint64, bases, exps []*big.Int) {
	mc := p.Mont()
	if len(bases) == 0 {
		mc.SetOne(dst)
		return
	}
	maxBits := 0
	for _, e := range exps {
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	// Window width by ladder height: short ladders (Feldman's small index
	// powers) want small tables, full-size exponents amortize w=4.
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
	tab := make([]uint64, len(bases)*rows*k)
	for j, b := range bases {
		row := tab[j*rows*k:]
		mc.ToMont(row[:k], b)
		for d := 2; d <= rows; d++ {
			mc.MulMont(row[(d-1)*k:d*k], row[(d-2)*k:(d-1)*k], row[:k])
		}
	}
	words := make([][]big.Word, len(exps))
	for j, e := range exps {
		words[j] = e.Bits()
	}
	started := false
	for i := (maxBits - 1) / w; i >= 0; i-- {
		if started {
			for s := 0; s < w; s++ {
				mc.MulMont(dst, dst, dst)
			}
		}
		for j, ew := range words {
			if d := limbDigit(ew, uint(i*w), uint(w)); d != 0 {
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
}

// MultiExpInt64RowsMontParts evaluates columns of bases on one support
// against many rows of machine-integer exponents: for column c and row i it
// writes the sign-split halves of Π_t cols[c][t]^{rows[i][support[t]]} to
// pos and neg at (c·n + i)·k, n = len(rows), k = Mont().Limbs() (Montgomery
// form; the product is pos/neg, each half 1 when nothing feeds it). This is
// the numerator of every cell of FEIP ciphertexts at once: a column is one
// ciphertext's carried coordinates, support the coordinate each encrypts,
// rows the weight matrix.
//
// pos and neg must be len(cols)·n·k limbs and every column as long as support
// (panics otherwise, like MultiExp); a support entry outside a row panics
// like any slice access. scratch is optional, grown as needed and returned
// for reuse; steady state allocates nothing.
//
// The columns share the support, so they share every exponent and every
// digit of it. Where the lane kernel is present (lanes.go: amd64 with AVX-512
// IFMA, the 256-bit group), runs of two to eight columns go through it
// together, limb for limb what the scalar kernel gives a lone column.
func (p *Params) MultiExpInt64RowsMontParts(pos, neg []uint64, cols [][]*big.Int, support []int, rows [][]int64, scratch []uint64) []uint64 {
	return p.multiExpRows(pos, neg, cols, support, rows, scratch, rowsWindow)
}

// rowsMaxWindow bounds the digit width of multiExpRows: a base's table holds
// the 2^{w−2} odd powers below 2^{w−1}, 64 entries at most.
const rowsMaxWindow = 8

// multiExpRows is MultiExpInt64RowsMontParts with the digit width chosen
// by window; it splits the columns into runs as PowRecoded splits bases.
func (p *Params) multiExpRows(pos, neg []uint64, cols [][]*big.Int, support []int, rows [][]int64, scratch []uint64, window func(bitLen, rows int) int) []uint64 {
	mc := p.Mont()
	stride := len(rows) * mc.k
	if len(pos) != len(cols)*stride || len(neg) != len(cols)*stride {
		panic("group: MultiExp result slabs must hold one element per column and row")
	}
	for _, bases := range cols {
		if len(bases) != len(support) {
			panic("group: MultiExp length mismatch")
		}
	}
	c := 0
	if mc.Lanes() {
		for ; len(cols)-c >= 2; c += laneCount {
			e := min(c+laneCount, len(cols))
			scratch = rowsRun(p, laneKernel{mc}, pos[c*stride:e*stride], neg[c*stride:e*stride], cols[c:e], support, rows, scratch, window)
		}
	}
	for ; c < len(cols); c++ {
		scratch = rowsRun(p, scalarKernel{mc}, pos[c*stride:(c+1)*stride], neg[c*stride:(c+1)*stride], cols[c:c+1], support, rows, scratch, window)
	}
	return scratch
}

// rowsRun is the body for the columns of one kernel element. It walks the
// bases, not the rows: coordinate t of the columns is converted to the
// kernel's domain once, gets one table of odd powers sized by window(bit
// length of the tallest odd part any row raises it to, number of rows), and
// is then multiplied into every row that uses it. An exponent is consumed
// from its uint64 magnitude by shift and mask as width-w non-adjacent digits
// (rowsDigit), so a b-bit exponent costs about (b+1)/(w+1) table
// multiplications, one when w > b, and nothing is recoded, packed or stored
// per exponent.
//
// Because the bases are the outer loop, the digits of a row cannot share a
// left-to-right ladder; each lands in the row's slot for its bit position
// and sign instead (a negative digit of a positive exponent feeds the
// negative half and vice versa, so signed digits cost no inversion), the
// first by copy. Each row then folds its slots with one Horner ladder per
// half: as many squarings as its top bit position, one multiplication per
// occupied slot — the operation count of the interleaved ladder, and the
// only per-row work that does not touch a base. Memory is the slots,
// (tallest bit length + 1)·2·rows elements however many bases there are: a
// full-width η = 10 000 column needs no more than a 100-coordinate one, and
// the weight matrix is read once, a column of it at a time: the scan that
// sizes base t's table copies rows[·][support[t]] into a contiguous column
// (rowsColumn), and the digit loop reads that copy, so a tall matrix whose
// lines the slots have evicted is not fetched a second time.
func rowsRun[K elemKernel](p *Params, kn K, pos, neg []uint64, cols [][]*big.Int, support []int, rows [][]int64, scratch []uint64, window func(bitLen, rows int) int) []uint64 {
	k, n, s := p.Mont().k, len(rows), kn.size()
	scratch = rowsScratch(scratch, n, s, 0)
	clear(scratch[:2*n])
	var widths [65]uint8 // window by odd-part bit length, chosen on first use
	for t, at := range support {
		tallest, odd := rowsColumn(scratch[2*n:3*n], rows, at)
		if tallest == 0 {
			continue
		}
		scratch = rowsScratch(scratch, n, s, rowsPositions(tallest))
		w := rowsWidth(&widths, odd, n, window)
		masks, col, sq, tab, slots := rowsRegions(scratch, n, s)
		run := baseRun{n: len(cols)}
		for l, col := range cols {
			run.bases[l] = col[t]
		}
		kn.load(tab[:s], run)
		if w > 2 {
			kn.mul(sq, tab[:s], tab[:s])
			for d := s; d < s<<(w-2); d += s {
				kn.mul(tab[d:d+s], tab[d-s:d], sq)
			}
		}
		for i, u := range col {
			side := u >> 63
			for m, bit := magnitude(int64(u)), 0; m != 0; {
				var d int
				var flip uint64
				m, bit, d, flip = rowsDigit(m, bit, w)
				to := int(side ^ flip)
				slot := slots[((bit*2+to)*n+i)*s:][:s]
				entry := tab[d*s:][:s]
				if masks[2*i+to]>>uint(bit)&1 == 0 {
					masks[2*i+to] |= 1 << uint(bit)
					copy(slot, entry)
				} else {
					kn.mul(slot, slot, entry)
				}
			}
		}
	}
	masks, _, half, _, slots := rowsRegions(scratch, n, s) // base² is free: fold there
	for i := 0; i < n; i++ {
		for side, out := range [2][]uint64{pos[i*k:], neg[i*k:]} {
			mask := masks[2*i+side]
			if mask == 0 {
				kn.store(out, n*k, len(cols), nil)
				continue
			}
			bit := bits.Len64(mask) - 1
			acc := slots[((bit*2+side)*n+i)*s:][:s] // the top slot until squared
			for bit--; bit >= 0; bit-- {
				kn.mul(half, acc, acc)
				acc = half
				if mask>>uint(bit)&1 != 0 {
					kn.mul(half, half, slots[((bit*2+side)*n+i)*s:][:s])
				}
			}
			kn.store(out, n*k, len(cols), acc)
		}
	}
	return scratch
}

// rowsTable is the number of odd powers a base's table holds at most.
const rowsTable = 1 << (rowsMaxWindow - 2)

// rowsScratch grows scratch, keeping what it holds, to the regions
// rowsRegions cuts for n rows of size-word elements, with slots for digits
// at bit positions below positions. The slots are position-major so that
// growing keeps them: a taller exponent appends positions.
func rowsScratch(scratch []uint64, n, size, positions int) []uint64 {
	need := 3*n + (1+rowsTable)*size + positions*2*n*size
	if len(scratch) < need {
		scratch = slices.Grow(scratch, need-len(scratch))[:need]
	}
	return scratch
}

// rowsPositions is the number of bit positions the digits of exponents whose
// magnitudes OR to tallest can land on: one past the top bit, where a
// rounded-up window carries, but never past bit 63.
func rowsPositions(tallest uint64) int {
	return min(bits.Len64(tallest)+1, 64)
}

// rowsRegions cuts scratch into the regions of one body call, elements of
// size words: started masks (bit b of word 2i+side: that slot of row i is
// written) | one base's exponent column | base² | odd-power table | slots,
// with slot (bit, side, i) at element (bit·2+side)·n + i.
func rowsRegions(scratch []uint64, n, size int) (masks, col, sq, tab, slots []uint64) {
	tabAt := 3*n + size
	slotAt := tabAt + rowsTable*size
	return scratch[:2*n], scratch[2*n : 3*n], scratch[3*n : tabAt], scratch[tabAt:slotAt], scratch[slotAt:]
}

// rowsColumn copies rows[·][at] into col and returns the OR of its
// magnitudes, tallest, and of their odd parts, odd. tallest decides how many
// slots the rows need, odd the window: an exponent is one digit exactly when
// its odd part fits the table, whatever power of two multiplies it.
func rowsColumn(col []uint64, rows [][]int64, at int) (tallest, odd uint64) {
	for i, row := range rows {
		e := row[at]
		col[i] = uint64(e)
		m := magnitude(e)
		tallest |= m
		odd |= m >> uint(bits.TrailingZeros64(m))
	}
	return tallest, odd
}

// rowsWidth returns the window for a base whose rows' odd parts OR to odd,
// chosen by window on the first base of that bit length and remembered in
// widths.
func rowsWidth(widths *[65]uint8, odd uint64, n int, window func(bitLen, rows int) int) uint {
	b := bits.Len64(odd)
	if widths[b] == 0 {
		widths[b] = uint8(window(b, n))
	}
	return uint(widths[b])
}

// rowsDigit takes the lowest width-w non-adjacent digit off the magnitude
// m ≠ 0 whose bit 0 sits at position bit: it skips the trailing zeros, takes
// the odd w-bit window, and rounds it to the nearest multiple of 2^w. It
// returns the rest of m and its position, the digit's table index (|d| =
// 2·entry + 1) and flip, 1 when the digit is negative.
func rowsDigit(m uint64, bit int, w uint) (rest uint64, at, entry int, flip uint64) {
	z := bits.TrailingZeros64(m)
	m >>= uint(z)
	bit += z
	// m is odd: its low w bits are the digit d, or d − 2^w when that is
	// nearer (d's top bit set), which carries into the next window. Either
	// way the window is cleared, |d| is odd and below 2^{w−1}, and m stays
	// below 2^63 + 2^w. The sign of a digit is as good as random, so nothing
	// branches on it.
	d := m & (1<<w - 1)
	carry := d >> (w - 1)
	m = m&^(1<<w-1) + carry<<w
	d = (d ^ (-carry & (1<<w - 1))) + carry
	return m, bit, int(d >> 1), carry
}

// magnitude returns |e| as a uint64, 2^63 for MinInt64.
func magnitude(e int64) uint64 {
	sign := e >> 63 // all ones when negative
	return uint64((e ^ sign) - sign)
}

// rowsWindow picks the digit width for a base that n rows raise to exponents
// whose odd parts are at most bitLen bits long, by minimising the
// multiplications the base will cost: 2^{w−2} to build its table of odd
// powers (none at w = 2, where the table is the base) plus, in each row, one
// per digit — a single digit once w exceeds bitLen, otherwise
// (bitLen+1)/(w+1) + ¼ on average, the width-w non-adjacent density plus what
// a short uniform exponent measures above it. It sees the rows because a
// table shared by 512 rows earns a wider window than one built per cell.
//
// BenchmarkMultiExpRows is the check (256 bits, -cpu 1, µs per column —
// every row of W over one ciphertext — best of 3; weights uniform in ±mag;
// "per cell" is the same column through the one-row form once per row, which
// is what each cell cost before the rows shared a call):
//
//	carried × rows, ±mag      per cell  rule   w=2    w=3   w=4   w=5   w=6   w=7   w=8
//	196 × 8,   ±17            241       144    144    141   139   151   220   337   619
//	196 × 8,   ±400           374       208    269    219   208   230   312   449   627
//	784 × 32,  ±8             3385      1387   1889   1771  1469  1548  1820  2394  3455
//	784 × 32,  ±400           6064      2805   4141   3528  2804  2605  2719  3068  3909
//	8 × 8,     ±65535         32.1      20.5   25.8   21.6  20.9  20.8  21.5  25.9  33.5
//	100 (of 10000) × 512, ±100 10135    3971   7653   6358  5645  6125  4826  4349  3955
//
// The rule sits within the box's run-to-run noise (≈ 5 %) of the best pinned
// width on every row, and no single width serves them all: w = 4 costs the
// 512-row head 1.4×, w = 7 the training shapes 2×. The per-row body this
// replaced — big.Int exponents, a fresh table of every power per cell — read
// 496 / 808 / 7033 / 13133 / 52.5 / 22350 µs on the same columns.
func rowsWindow(bitLen, n int) int {
	best, bestCost := 0, math.Inf(1)
	for w := 2; w <= rowsMaxWindow; w++ {
		digits := 1.0
		if w <= bitLen {
			digits = float64(bitLen+1)/float64(w+1) + 0.25
		}
		cost := float64(n) * digits
		if w > 2 {
			cost += float64(int(1) << (w - 2))
		}
		if cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// identity is the widest support [0, n) Identity has built; published
// whole and never written again.
var identity atomic.Pointer[[]int]

// Identity returns the support [0, n): every coordinate, in order. It is how
// a dense vector enters a coordinate-form body — passed explicitly, because
// an empty support means "no coordinate", never "all of them". The slice is
// shared by every caller and read-only; it grows to the widest n asked for,
// so callers ask only for a dimension they have validated.
func Identity(n int) []int {
	if id := identity.Load(); id != nil && len(*id) >= n {
		return (*id)[:n:n]
	}
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	// A narrower support stored concurrently costs only a later rebuild.
	identity.Store(&id)
	return id
}

// MultiExpInt64MontParts computes the sign-split halves of Π bases[t]^exps[t]
// in the Montgomery domain — the one-row case of MultiExpInt64RowsMontParts,
// whose pos/neg and scratch contract it shares: base t is paired with
// exponent t, so bases and exps must have equal length (panics otherwise,
// like MultiExp).
func (p *Params) MultiExpInt64MontParts(pos, neg []uint64, bases []*big.Int, exps []int64, scratch []uint64) []uint64 {
	return p.MultiExpInt64RowsMontParts(pos, neg, [][]*big.Int{bases}, Identity(len(exps)), [][]int64{exps}, scratch)
}

// MultiExpInt64SparseMontParts is MultiExpInt64MontParts over the bases idx
// selects: Π bases[idx[t]]^vals[t]. Its index list picks bases where the
// many-rows form's picks exponents, so the bases are gathered first. idx and
// vals must have equal length (panics otherwise); an out-of-range index
// panics like any slice access.
func (p *Params) MultiExpInt64SparseMontParts(pos, neg []uint64, bases []*big.Int, idx []int, vals []int64, scratch []uint64) []uint64 {
	picked := make([]*big.Int, len(idx))
	for t, i := range idx {
		picked[t] = bases[i]
	}
	return p.MultiExpInt64MontParts(pos, neg, picked, vals, scratch)
}
