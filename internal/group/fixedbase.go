package group

import "math/big"

// Ephemeral signed-window tables: the engine for a base seen once.
//
// A FEIP ciphertext's ct_0 is raised to every function key of a weight
// matrix (8 to 512 full-width exponents in the benchmark's shapes) and then
// never used again, so neither a comb (thousands of multiplications to
// build) nor one ladder per exponent is right. The classic radix-2^w
// precomputation (Brauer; HAC §14.6.3)
//
//	base^e = Π_i base^{d_i·2^{w·i}}   where e = Σ d_i·2^{w·i}
//
// with signed digits d_i ∈ [−2^{w−1}+1, 2^{w−1}] stores only the 2^{w−1}
// positive entries per window, and an evaluation is one table
// multiplication per non-zero digit, no squarings. Negative digits multiply
// into a second accumulator, so the value is pos/neg and the caller folds
// neg into the one batch inversion its chunk of cells pays anyway
// (MontCtx.BatchInvMont). Entries live in the Montgomery domain as one flat
// limb slab.

// ephemeralWindow is the digit width of every EphemeralTable.
// BenchmarkEphemeralWindow is the evidence (256 bits, -cpu 1, median of 7;
// build + recode + evaluate + the shared inversion per fresh base, against
// one ExpMontScratch ladder per exponent):
//
//	exps  ladder   w=3     w=4     w=5     w=6
//	8     108µs    78µs    60µs    71µs    109µs
//	32    472µs    187µs   182µs   166µs   197µs
//	512   8.0ms    3.3ms   2.9ms   2.0ms   1.9ms
//
// The table beats the ladder 1.8–4× on every shape, so it stays. w=4 wins
// the 8-exponent shape (one table per ciphertext of every training step,
// forward and gradient) and is within 10% at 32; w=5 would buy 30% at the
// 512-label shape for 18% lost at 8, and one constant serves all three.
const ephemeralWindow = 4

// EphemeralTable holds signed-window precomputation for one base. It is
// read-only and safe for concurrent use until it is handed back to
// NewEphemeralTable for the next base.
type EphemeralTable struct {
	mc   *MontCtx
	half int // 2^{w-1}: signed digits per window row
	// slab[(i*half + d-1)*k : …+k] = base^{d·2^{w·i}} mod P in Montgomery
	// form, for d in 1..half.
	slab    []uint64
	winBase []uint64 // build scratch
}

// NewEphemeralTable precomputes the window table for base, which must be
// an element of the order-Q subgroup (RecodeSigned's reduction mod Q relies
// on base^Q = 1). Nothing is persisted: the base is never seen again. A
// caller walking many bases passes the previous base's table as reuse and
// gets it back rebuilt in place — a table is 16 kB at 256 bits, and one per
// ciphertext is most of what a secure product would otherwise allocate.
func (p *Params) NewEphemeralTable(base *big.Int, reuse *EphemeralTable) *EphemeralTable {
	return p.newEphemeralTable(base, ephemeralWindow, reuse)
}

func (p *Params) newEphemeralTable(base *big.Int, w int, t *EphemeralTable) *EphemeralTable {
	mc := p.Mont()
	k := mc.Limbs()
	half := 1 << (w - 1)
	nw := p.recodeWindows(w)
	if t == nil || t.mc != mc || t.half != half {
		t = &EphemeralTable{mc: mc, half: half, slab: make([]uint64, nw*half*k), winBase: mc.Elem()}
	}
	// winBase walks base^{2^{w·i}}; row d is built by repeated
	// multiplication, and the next winBase is row[half]² =
	// (base^{2^{w-1}·2^{w·i}})² — one squaring, no divisions anywhere.
	winBase := t.winBase
	mc.ToMont(winBase, base)
	for i := 0; i < nw; i++ {
		row := t.slab[i*half*k:]
		copy(row[:k], winBase)
		for d := 2; d <= half; d++ {
			mc.MulMont(row[(d-1)*k:d*k], row[(d-2)*k:(d-1)*k], winBase)
		}
		if i+1 < nw {
			top := row[(half-1)*k : half*k]
			mc.MulMont(winBase, top, top)
		}
	}
	return t
}

// recodeWindows returns the signed-digit count for window width w: one
// digit per w bits of Q plus the recoding carry digit.
func (p *Params) recodeWindows(w int) int {
	return (p.Q.BitLen()+w-1)/w + 1
}

// RecodeSigned recodes an exponent into the signed digits PowRecoded
// consumes, with e ≡ Σ d_i·2^{w·i} (mod Q). Exponents of any sign and size
// are accepted and reduced into [0, Q) first. The digits depend only on the
// group, so one recoding of a function key drives every ciphertext's table.
// buf is reused when its capacity suffices.
func (p *Params) RecodeSigned(e *big.Int, buf []int16) []int16 {
	return p.recodeSigned(e, ephemeralWindow, buf)
}

func (p *Params) recodeSigned(e *big.Int, w int, buf []int16) []int16 {
	if e.Sign() < 0 || e.Cmp(p.Q) >= 0 {
		e = new(big.Int).Mod(e, p.Q)
	}
	nw := p.recodeWindows(w)
	if cap(buf) < nw {
		buf = make([]int16, nw)
	}
	buf = buf[:nw]
	half := 1 << (w - 1)
	carry := 0
	for i := 0; i < nw-1; i++ {
		d := int(windowDigit(e, i, w)) + carry
		if d > half {
			d -= 1 << w
			carry = 1
		} else {
			carry = 0
		}
		buf[i] = int16(d)
	}
	buf[nw-1] = int16(carry)
	return buf
}

// PowRecoded accumulates the signed-window factors of a recoded exponent
// into two Montgomery-domain products: pos collects the positive digits'
// table entries and neg the negative digits' (so the represented value is
// pos/neg; an empty product is written as 1). Both must be caller slices of
// Limbs() length; digits must come from RecodeSigned over the same group.
func (t *EphemeralTable) PowRecoded(pos, neg []uint64, digits []int16) {
	mc, half := t.mc, t.half
	k := mc.k
	posStarted, negStarted := false, false
	for i, d := range digits {
		if d == 0 {
			continue
		}
		if d > 0 {
			entry := t.slab[(i*half+int(d)-1)*k:]
			if !posStarted {
				copy(pos[:k], entry[:k])
				posStarted = true
			} else {
				mc.MulMont(pos, pos, entry[:k])
			}
		} else {
			entry := t.slab[(i*half+int(-d)-1)*k:]
			if !negStarted {
				copy(neg[:k], entry[:k])
				negStarted = true
			} else {
				mc.MulMont(neg, neg, entry[:k])
			}
		}
	}
	if !posStarted {
		mc.SetOne(pos)
	}
	if !negStarted {
		mc.SetOne(neg)
	}
}

// windowDigit extracts the i-th w-bit digit of e.
func windowDigit(e *big.Int, i, w int) uint {
	var d uint
	for b := 0; b < w; b++ {
		d |= uint(e.Bit(i*w+b)) << b
	}
	return d
}
