package febo

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
)

// Op enumerates the four arithmetic functionalities of FEBO.
type Op int

// The four basic operations, in the paper's Δ ∈ [+, −, ∗, /] order.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
)

// String returns the operator symbol.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Valid reports whether o is one of the four defined operations.
func (o Op) Valid() bool { return o >= OpAdd && o <= OpDiv }

// Apply computes the plaintext functionality x Δ y; the reference
// implementation used by tests. Division follows the scheme's semantics:
// exact integer division only.
func (o Op) Apply(x, y int64) (int64, error) {
	switch o {
	case OpAdd:
		return x + y, nil
	case OpSub:
		return x - y, nil
	case OpMul:
		return x * y, nil
	case OpDiv:
		if y == 0 {
			return 0, errors.New("febo: division by zero")
		}
		if x%y != 0 {
			return 0, fmt.Errorf("febo: %d/%d is not an exact integer division", x, y)
		}
		return x / y, nil
	default:
		return 0, fmt.Errorf("febo: invalid op %d", int(o))
	}
}

var (
	// ErrMalformed reports a structurally invalid key or ciphertext.
	ErrMalformed = errors.New("febo: malformed input")
	// ErrInvalidOp reports an operation outside {+, −, ×, ÷}.
	ErrInvalidOp = errors.New("febo: invalid operation")
)

// PublicKey is mpk = (group, h = g^s).
//
// The key lazily caches a comb table for h — FEBO encrypts one matrix
// element per call, so h is the hottest base in the element-wise workload
// — built once under a sync.Once and then shared read-only across
// goroutines, the same contract as feip.MasterPublicKey. The cache is
// unexported, so wire encoding is unaffected; pass *PublicKey around, never
// a copy.
type PublicKey struct {
	Params *group.Params
	H      *big.Int

	combOnce sync.Once
	hComb    *group.FixedBaseComb
}

// Precompute builds the comb for h now instead of on the first Encrypt;
// idempotent and concurrency-safe.
func (k *PublicKey) Precompute() { k.comb() }

func (k *PublicKey) comb() *group.FixedBaseComb {
	k.combOnce.Do(func() { k.hComb = k.Params.NewFixedBaseComb(k.H) })
	return k.hComb
}

// Validate checks that h is a group element; applied to keys received over
// the network.
func (k *PublicKey) Validate() error {
	if k == nil || k.Params == nil || k.H == nil {
		return fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	if err := k.Params.Validate(); err != nil {
		return err
	}
	if !k.Params.IsElement(k.H) {
		return fmt.Errorf("%w: h not a group element", ErrMalformed)
	}
	return nil
}

// SecretKey is msk = s; held only by the authority.
type SecretKey struct {
	S *big.Int
}

// Ciphertext is the pair (cmt = g^r, ct = h^r·g^x). The commitment travels
// with the ciphertext because KeyDerive needs it.
type Ciphertext struct {
	Cmt *big.Int
	Ct  *big.Int
}

// FunctionKey is sk_{f_Δ} for one (ciphertext, Δ, y) triple.
type FunctionKey struct {
	K *big.Int
}

// Setup generates (mpk, msk) over the given group, drawing randomness from
// r (crypto/rand when nil).
func Setup(params *group.Params, r io.Reader) (*PublicKey, *SecretKey, error) {
	if params == nil {
		return nil, nil, errors.New("febo: nil group parameters")
	}
	s, err := params.RandScalar(r)
	if err != nil {
		return nil, nil, fmt.Errorf("febo: setup: %w", err)
	}
	return &PublicKey{Params: params, H: params.PowG(s)}, &SecretKey{S: s}, nil
}

// Encrypt encrypts the signed integer x, returning (cmt, ct).
//
// Both components are computed in the Montgomery domain: g^r and h^r come
// off the combs as raw limb chains, g^x from the generator's dense slab (x
// is a fixed-point plaintext), and each component converts out of the
// domain exactly once.
func Encrypt(pk *PublicKey, x int64, r io.Reader) (*Ciphertext, error) {
	if pk == nil || pk.H == nil {
		return nil, fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	p := pk.Params
	nonce, err := p.RandScalar(r)
	if err != nil {
		return nil, fmt.Errorf("febo: encrypt: %w", err)
	}
	mc := p.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 3*k)
	cmt, ct, gx := buf[:k], buf[k:2*k], buf[2*k:]
	p.PowGMont(cmt, nonce)
	pk.comb().PowMont(ct, nonce)
	p.PowGInt64Mont(gx, x)
	mc.MulMont(ct, ct, gx)
	return &Ciphertext{
		Cmt: mc.FromMont(cmt),
		Ct:  mc.FromMont(ct),
	}, nil
}

// one is the table's constant exponent m = 1; read-only.
var one = big.NewInt(1)

// exponents is FEBO's table (§III-B) and its one home. For Δ = op and the
// operand y it returns the pair (m, a): the function key bound to the
// commitment cmt is cmt^{s·m}·g^a, and x Δ y is the discrete log of
// ct^m / key.
//
//	Δ   m           a
//	+   1           −y
//	−   1           y
//	×   y           0
//	÷   y⁻¹ mod Q   0
//
// a is returned as its sign, a = sign·y, so decryption, which reads only
// m, pays nothing for it. For + and − m is the shared constant one, which
// callers recognise by identity; otherwise it is written into mBuf, so a
// loop reuses its words. m is read-only either way. ÷ is refused when y
// has no inverse mod Q.
func exponents(p *group.Params, op Op, y int64, mBuf *big.Int) (m *big.Int, sign int, err error) {
	switch op {
	case OpAdd:
		return one, -1, nil
	case OpSub:
		return one, 1, nil
	case OpMul:
		return mBuf.SetInt64(y), 0, nil
	case OpDiv:
		if mBuf.ModInverse(mBuf.SetInt64(y), p.Q) == nil {
			return nil, 0, fmt.Errorf("febo: divisor %d has no inverse mod Q", y)
		}
		return mBuf, 0, nil
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrInvalidOp, int(op))
	}
}

// CheckOperands reports the first operand of ys for which no op key
// exists (÷ by a multiple of Q), or an op outside the four. It costs no
// exponentiation: a threshold node runs it before raising a batch's
// commitments to its share.
func CheckOperands(params *group.Params, op Op, ys []int64) error {
	var mBuf big.Int
	for i, y := range ys {
		if _, _, err := exponents(params, op, y, &mBuf); err != nil {
			return fmt.Errorf("operand %d: %w", i, err)
		}
	}
	return nil
}

// KeyDerive issues the function key for computing x Δ y against the
// ciphertext whose commitment is cmt, as the single authority's key batch
// does for a batch of one: RaiseCommitments, then CompleteKey. Division
// requires y to be invertible mod Q (in particular y ≠ 0).
func KeyDerive(params *group.Params, sk *SecretKey, cmt *big.Int, op Op, y int64) (*FunctionKey, error) {
	if sk == nil || sk.S == nil {
		return nil, fmt.Errorf("%w: empty secret key", ErrMalformed)
	}
	if err := CheckOperands(params, op, []int64{y}); err != nil {
		return nil, err
	}
	cmtS, err := RaiseCommitments(params, sk.S, []*big.Int{cmt})
	if err != nil {
		return nil, err
	}
	return CompleteKey(params, cmtS[0], op, y)
}

// laneRun is the width of group's lane kernel: PowRecoded raises up to
// eight bases in one pass of its 8-lane product where the CPU has one.
const laneRun = 8

// RaiseCommitments returns cmt_i^s for every commitment, in order: the
// secret half of every FEBO key, under the authority's s or a threshold
// node's share. No commitment is raised unless all are group elements, and
// the lowest one that is not is named. Membership is checked on every
// core; then each worker takes one chunk of whole lane runs, recodes s
// (Params.RecodeSigned), raises the chunk by EphemeralExps.PowRecoded, on
// the lanes eight at a time where group has them, and inverts the chunk's
// negative-digit halves in one BatchInvMont, all on scratch a pool keeps
// from one call to the next. Reducing s mod Q is exact for
// order-Q commitments.
func RaiseCommitments(params *group.Params, s *big.Int, cmts []*big.Int) ([]*big.Int, error) {
	workers := par.Workers(0)
	chunk := ((len(cmts)+workers-1)/workers + laneRun - 1) / laneRun * laneRun
	err := par.ForEachChunk(len(cmts), chunk, workers, par.NoScratch, func(start, end int, _ struct{}) error {
		for i := start; i < end; i++ {
			if cmts[i] == nil || !params.IsElement(cmts[i]) {
				return fmt.Errorf("batch element %d: %w: commitment not a group element", i, ErrMalformed)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mc := params.Mont()
	k := mc.Limbs()
	out := make([]*big.Int, len(cmts))
	err = par.ForEachChunk(len(cmts), chunk, workers, par.NoScratch, func(start, end int, _ struct{}) error {
		sc := raisePool.Get().(*raiseScratch)
		defer raisePool.Put(sc)
		sc.exps = params.RecodeSigned([]*big.Int{s}, sc.exps)
		n := (end - start) * k
		sc.halves = slices.Grow(sc.halves[:0], 2*n)[:2*n]
		pos, neg := sc.halves[:n], sc.halves[n:]
		sc.exps.PowRecoded(pos, neg, cmts[start:end])
		var err error
		if sc.inv, err = mc.BatchInvMont(neg, sc.inv); err != nil {
			return fmt.Errorf("febo: raising commitments %d–%d: %w", start, end-1, err)
		}
		for i := start; i < end; i++ {
			el := pos[(i-start)*k:][:k]
			mc.MulMont(el, el, neg[(i-start)*k:][:k])
			out[i] = mc.FromMont(el)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// raiseScratch is what a RaiseCommitments chunk reuses from an earlier one:
// the recoded exponent with its evaluation chain (a lane chain is ≈ 82 kB
// at 256 bits), the result halves and the inversion scratch.
type raiseScratch struct {
	exps        *group.EphemeralExps
	halves, inv []uint64
}

var raisePool = sync.Pool{New: func() any { return new(raiseScratch) }}

// CompleteKey is the public half of a key: given cmt^s it returns
// (cmt^s)^m·g^a for the pair (m, a) of (op, y), the key KeyDerive(…, cmt,
// op, y) issues. A threshold client calls it on the Lagrange-combined
// partials cmt^{s_j}, so no single node ever holds s, and the single
// authority on its own cmt^s. The key is assembled in the Montgomery
// domain: + and − skip the power (m = 1), × and ÷ pay it by ExpMont, and
// g^a comes off the generator's tables.
func CompleteKey(params *group.Params, cmtS *big.Int, op Op, y int64) (*FunctionKey, error) {
	var mBuf big.Int
	m, sign, err := exponents(params, op, y, &mBuf)
	if err != nil {
		return nil, err
	}
	mc := params.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 2*k)
	key, ga := buf[:k], buf[k:]
	mc.ToMont(key, cmtS)
	if m != one {
		// m is mBuf's: reduce it in place, as ExpMont wants it in [0, Q).
		mc.ExpMont(key, key, m.Mod(m, params.Q))
	}
	if sign != 0 {
		// a = sign·y via big.Int: -y overflows for y = math.MinInt64.
		var a big.Int
		if a.SetInt64(y); sign < 0 {
			a.Neg(&a)
		}
		params.PowGMont(ga, &a)
		mc.MulMont(key, key, ga)
	}
	return &FunctionKey{K: mc.FromMont(key)}, nil
}

// Decrypt recovers x Δ y from the ciphertext and the matching function key,
// using solver for the final bounded discrete log. It is one cell of the
// batched pipeline: DecryptPartsMont, one inversion and the look-up.
//
// For Δ = ÷, the recovered exponent is x·y⁻¹ mod q, which equals the
// integer x/y only for exact divisions; otherwise the exponent is a
// pseudo-random ring element and Decrypt reports the solver's ErrNotFound.
func Decrypt(pk *PublicKey, fk *FunctionKey, ct *Ciphertext, op Op, y int64, solver *dlog.Solver) (int64, error) {
	if pk == nil {
		return 0, fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	mc := pk.Params.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 3*k)
	num, den, inv := buf[:k], buf[k:2*k], buf[2*k:]
	if err := DecryptPartsMont(pk, fk, ct, op, y, num, den, nil); err != nil {
		return 0, err
	}
	if _, err := mc.BatchInvMont(den, inv); err != nil {
		return 0, fmt.Errorf("febo: decrypt: %w", err)
	}
	mc.MulMont(num, num, den)
	v, err := solver.LookupMont(num)
	if err != nil {
		return 0, fmt.Errorf("febo: recovering x%sy: %w", op, err)
	}
	return v, nil
}

// DecryptScratch carries the per-call working buffers of DecryptPartsMont
// so a worker decrypting many cells reuses one set of allocations. The
// zero value is ready to use; a DecryptScratch must not be shared between
// concurrent decryptions.
type DecryptScratch struct {
	tab []uint64
	m   big.Int // the words of the exponent m
}

// DecryptPartsMont writes the numerator and denominator of
// g^{x Δ y} = num/den, ct^m and the function key, as raw Montgomery limb
// elements (length Limbs()) into the caller's num and den slices, so the
// batched element-wise pipeline can fold a whole chunk's denominators into
// one inversion (BatchInvMont) and feed the quotients straight to
// dlog.LookupMont — no big.Int round-trip per cell.
//
// + and − read the ciphertext as it is (m = 1). For × the exponent m = y
// is a machine integer: the ladder raises ct to |y| alone, and for y < 0
// folds ct^{|y|} into the denominator (num becomes 1), preserving num/den.
// For ÷ the exponent y⁻¹ mod q is full-size. Both go through
// ExpMontScratch on sc's reusable table, which takes a multiplier of up to
// 12 bits on the plain ladder. den is written last-multiplied and safe to
// invert in place; sc may be nil (one-shot allocations).
func DecryptPartsMont(pk *PublicKey, fk *FunctionKey, ct *Ciphertext, op Op, y int64, num, den []uint64, sc *DecryptScratch) error {
	if pk == nil {
		return fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	if fk == nil || fk.K == nil {
		return fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	if ct == nil || ct.Ct == nil {
		return fmt.Errorf("%w: empty ciphertext", ErrMalformed)
	}
	if sc == nil {
		sc = &DecryptScratch{}
	}
	m, _, err := exponents(pk.Params, op, y, &sc.m)
	if err != nil {
		return err
	}
	mc := pk.Params.Mont()
	mc.ToMont(den, fk.K)
	mc.ToMont(num, ct.Ct)
	if m == one {
		return nil
	}
	neg := m.Sign() < 0
	sc.tab = mc.ExpMontScratch(num, num, sc.m.Abs(m), sc.tab)
	if neg {
		// ct^y = (ct^{|y|})^{-1}: move the factor below the bar and let
		// the chunk's batch inversion pay for it.
		mc.MulMont(den, den, num)
		mc.SetOne(num)
	}
	return nil
}
