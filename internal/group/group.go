package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

var (
	// ErrInvalidParams reports a parameter set that fails validation.
	ErrInvalidParams = errors.New("group: invalid parameters")
	// ErrNotInGroup reports an element outside the order-Q subgroup.
	ErrNotInGroup = errors.New("group: element not in subgroup")
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Params describes a Schnorr group.
//
// P is the safe-prime modulus, Q = (P-1)/2 the prime subgroup order and G a
// generator of the order-Q subgroup. Params values are immutable after
// creation and safe for concurrent use; they must not be copied once in
// use (pass *Params, as the whole codebase does) because of the lazily
// built generator precomputation.
type Params struct {
	// P is the safe prime modulus.
	P *big.Int
	// Q is the prime order of the subgroup generated by G; Q = (P-1)/2.
	Q *big.Int
	// G generates the order-Q subgroup of Z*_P.
	G *big.Int

	// gComb and gDense are the generator's precomputation (see generator),
	// built together on first use. Unexported and ignored by the wire
	// codecs, so encoding is unaffected.
	genOnce sync.Once
	gComb   *FixedBaseComb
	gDense  []uint64

	// mont is the Montgomery context for P, built on first use under the
	// same contract as the generator precomputation (see Mont in mont.go),
	// beside safe, whether P = 2Q+1 (IsElement's precondition).
	montOnce sync.Once
	mont     *MontCtx
	montErr  error
	safe     bool
}

// Bits returns the bit length of the subgroup order Q, i.e. the security
// parameter lambda in the paper's notation.
func (p *Params) Bits() int { return p.Q.BitLen() }

// Validate checks structural well-formedness of the parameter set: P and Q
// are prime with P = 2Q+1, and G generates the order-Q subgroup.
//
// Primality uses math/big's Baillie-PSW + Miller-Rabin test, which is
// conclusive for the sizes used here for all practical purposes.
func (p *Params) Validate() error {
	if p.P == nil || p.Q == nil || p.G == nil {
		return fmt.Errorf("%w: nil field", ErrInvalidParams)
	}
	if !p.P.ProbablyPrime(32) {
		return fmt.Errorf("%w: P is not prime", ErrInvalidParams)
	}
	if !p.Q.ProbablyPrime(32) {
		return fmt.Errorf("%w: Q is not prime", ErrInvalidParams)
	}
	var t big.Int
	t.Mul(p.Q, two)
	t.Add(&t, one)
	if t.Cmp(p.P) != 0 {
		return fmt.Errorf("%w: P != 2Q+1", ErrInvalidParams)
	}
	if p.G.Cmp(two) < 0 || p.G.Cmp(new(big.Int).Sub(p.P, one)) >= 0 {
		return fmt.Errorf("%w: generator out of range", ErrInvalidParams)
	}
	// G must have order exactly Q: G^Q == 1 and G != 1.
	if t.Exp(p.G, p.Q, p.P); t.Cmp(one) != 0 {
		return fmt.Errorf("%w: generator order is not Q", ErrInvalidParams)
	}
	return nil
}

// Exp computes base^exp mod P. Negative exponents are handled by reducing
// the exponent modulo the group order Q, so Exp(g, -1) is the inverse of g.
func (p *Params) Exp(base, exp *big.Int) *big.Int {
	e := exp
	if exp.Sign() < 0 {
		e = new(big.Int).Mod(exp, p.Q)
	}
	return new(big.Int).Exp(base, e, p.P)
}

// Mul computes a*b mod P.
func (p *Params) Mul(a, b *big.Int) *big.Int {
	var r big.Int
	r.Mul(a, b)
	return r.Mod(&r, p.P)
}

// Div computes a * b^{-1} mod P.
func (p *Params) Div(a, b *big.Int) *big.Int {
	inv := new(big.Int).ModInverse(b, p.P)
	return p.Mul(a, inv)
}

// Inv computes the multiplicative inverse of a mod P.
func (p *Params) Inv(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, p.P)
}

// ReduceScalar maps an arbitrary (possibly negative) integer into the
// canonical exponent range [0, Q).
func (p *Params) ReduceScalar(x *big.Int) *big.Int {
	return new(big.Int).Mod(x, p.Q)
}

// RandScalar samples a uniformly random exponent in [0, Q) from r. If r is
// nil, crypto/rand is used.
func (p *Params) RandScalar(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	s, err := rand.Int(r, p.Q)
	if err != nil {
		return nil, fmt.Errorf("group: sampling scalar: %w", err)
	}
	return s, nil
}

// IsElement reports whether a lies in the order-Q subgroup: 0 < a < P and
// a^Q = 1. It is the membership check run on every public key, commitment
// and partial key received from a peer or a file.
//
// With P = 2Q+1 prime, the order-Q subgroup is exactly the quadratic
// residues mod P (Euler's criterion: a^Q = a^{(P−1)/2} ≡ (a | P)), so the
// answer is the Legendre symbol (a | P) = 1, computed by jacobi on stack
// limbs with no exponentiation and no allocation. Params whose P ≠ 2Q+1 —
// reachable only as an unvalidated struct literal — contain no element.
func (p *Params) IsElement(a *big.Int) bool {
	if a == nil || a.Sign() <= 0 || a.Cmp(p.P) >= 0 {
		return false
	}
	p.initMont()
	if !p.safe {
		return false
	}
	mc := p.mont
	var xs, ns [montStackLimbs]uint64
	x, n := xs[:], ns[:]
	if mc.k > montStackLimbs {
		x, n = mc.Elem(), mc.Elem()
	}
	x, n = x[:mc.k], n[:mc.k]
	packLimbs(x, a)
	copy(n, mc.pw)
	return jacobi(x, n) == 1
}

// DenseDefault bounds the generator's dense slab: g^x for every
// |x| ≤ DenseDefault is one limb copy. The fixed-point plaintexts that
// appear as g^{x_i} in every encryption are signed integers far inside it.
const DenseDefault = 1024

// generator returns the generator's two precomputed structures: the deep
// Lim–Lee comb that serves full-width exponents (nonces, key shares), and
// the dense slab gDense[(x+DenseDefault)·k : …+k] = g^x in Montgomery form
// for |x| ≤ DenseDefault. Construction runs under a sync.Once, so concurrent
// callers share one copy.
func (p *Params) generator() (*FixedBaseComb, []uint64) {
	p.genOnce.Do(func() {
		p.gComb = p.newFixedBaseComb(p.G, combTeethGen, combSplitGen)
		mc := p.Mont()
		k := mc.Limbs()
		d := make([]uint64, (2*DenseDefault+1)*k)
		g, gInv := mc.Elem(), mc.Elem()
		mc.ToMont(g, p.G)
		mc.ToMont(gInv, p.Inv(p.G))
		mc.SetOne(d[DenseDefault*k:])
		for x := 1; x <= DenseDefault; x++ {
			up, down := (DenseDefault+x)*k, (DenseDefault-x)*k
			mc.MulMont(d[up:up+k], d[up-k:up], g)
			mc.MulMont(d[down:down+k], d[down+k:down+2*k], gInv)
		}
		p.gDense = d
	})
	return p.gComb, p.gDense
}

// PowGInt64Mont computes G^x into dst as a Montgomery-domain element of
// Mont().Limbs() length, for a machine integer x: a copy out of the dense
// slab for |x| ≤ DenseDefault — the hot path of plaintext encodings
// g^{x_i} — and the generator comb otherwise.
func (p *Params) PowGInt64Mont(dst []uint64, x int64) {
	comb, dense := p.generator()
	if x >= -DenseDefault && x <= DenseDefault {
		k := comb.k
		copy(dst[:k], dense[int(x+DenseDefault)*k:])
		return
	}
	var e big.Int
	comb.PowMont(dst, e.SetInt64(x))
}

// PowGMont computes G^x into dst as a Montgomery-domain element; x may be
// negative or ≥ Q. Machine-integer exponents take PowGInt64Mont's route,
// everything else the generator comb.
func (p *Params) PowGMont(dst []uint64, x *big.Int) {
	if x.IsInt64() {
		p.PowGInt64Mont(dst, x.Int64())
		return
	}
	comb, _ := p.generator()
	comb.PowMont(dst, x)
}

// PowG computes G^x mod P; x may be negative. The result is freshly
// allocated.
func (p *Params) PowG(x *big.Int) *big.Int {
	mc := p.Mont()
	var stack [montStackLimbs]uint64
	dst := stack[:]
	if mc.k > montStackLimbs {
		dst = make([]uint64, mc.k)
	}
	p.PowGMont(dst[:mc.k], x)
	return mc.FromMont(dst[:mc.k])
}

// PowGInt64 computes G^x for a machine integer x.
func (p *Params) PowGInt64(x int64) *big.Int {
	var e big.Int
	return p.PowG(e.SetInt64(x))
}

// String implements fmt.Stringer without dumping full big integers.
func (p *Params) String() string {
	return fmt.Sprintf("group.Params{%d-bit order}", p.Bits())
}
