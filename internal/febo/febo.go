package febo

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
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

// KeyDerive issues the function key for computing x Δ y against the
// ciphertext whose commitment is cmt. Division requires y to be invertible
// mod q (in particular y ≠ 0).
//
// The key is assembled in the Montgomery domain: cmt converts in once, the
// cmt^{s·…} ladder is windowed limb multiplication (ExpMont), and for the
// multiplicative ops the two ladders of (cmt^s)^y collapse into one with
// the exponent product s·y (respectively s·y⁻¹) reduced mod Q — valid
// because a validated commitment lies in the order-Q subgroup.
func KeyDerive(params *group.Params, sk *SecretKey, cmt *big.Int, op Op, y int64) (*FunctionKey, error) {
	if sk == nil || sk.S == nil {
		return nil, fmt.Errorf("%w: empty secret key", ErrMalformed)
	}
	if cmt == nil || !params.IsElement(cmt) {
		return nil, fmt.Errorf("%w: commitment not a group element", ErrMalformed)
	}
	mc := params.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 2*k)
	cmtM, gy := buf[:k], buf[k:]
	mc.ToMont(cmtM, cmt)
	var yb big.Int
	switch op {
	case OpAdd, OpSub:
		mc.ExpMont(cmtM, cmtM, sk.S) // g^{rs}
		// Negate via big.Int: -y overflows for y = math.MinInt64.
		yb.SetInt64(y)
		if op == OpAdd {
			yb.Neg(&yb)
		}
		params.PowGMont(gy, &yb)
		mc.MulMont(cmtM, cmtM, gy)
		return &FunctionKey{K: mc.FromMont(cmtM)}, nil
	case OpMul:
		// cmt^{s·y mod Q} = (cmt^s)^y for an order-Q commitment.
		e := yb.SetInt64(y)
		e.Mul(e, sk.S)
		mc.ExpMont(cmtM, cmtM, params.ReduceScalar(e))
		return &FunctionKey{K: mc.FromMont(cmtM)}, nil
	case OpDiv:
		yInv, err := params.InvScalar(yb.SetInt64(y))
		if err != nil {
			return nil, fmt.Errorf("febo: division key: %w", err)
		}
		yInv.Mul(yInv, sk.S)
		mc.ExpMont(cmtM, cmtM, params.ReduceScalar(yInv))
		return &FunctionKey{K: mc.FromMont(cmtM)}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrInvalidOp, int(op))
	}
}

// CompleteKey is the public half of KeyDerive: given cmt^s it applies the
// op-dependent transform that needs no secret, returning the same key
// KeyDerive(…, cmt, op, y) issues. A threshold client calls it on the
// Lagrange-combined partials cmt^{s_j}, so no single node ever holds s.
func CompleteKey(params *group.Params, cmtS *big.Int, op Op, y int64) (*FunctionKey, error) {
	yb := big.NewInt(y)
	switch op {
	case OpAdd:
		// Negate via big.Int: -y overflows for y = math.MinInt64.
		return &FunctionKey{K: params.Mul(cmtS, params.PowG(yb.Neg(yb)))}, nil
	case OpSub:
		return &FunctionKey{K: params.Mul(cmtS, params.PowG(yb))}, nil
	case OpMul:
		return &FunctionKey{K: params.Exp(cmtS, yb)}, nil
	case OpDiv:
		yInv, err := params.InvScalar(yb)
		if err != nil {
			return nil, fmt.Errorf("febo: division key: %w", err)
		}
		return &FunctionKey{K: params.Exp(cmtS, yInv)}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrInvalidOp, int(op))
	}
}

// Decrypt recovers x Δ y from the ciphertext and the matching function key,
// using solver for the final bounded discrete log.
//
// For Δ = ÷, the recovered exponent is x·y⁻¹ mod q, which equals the
// integer x/y only for exact divisions; otherwise the exponent is a
// pseudo-random ring element and Decrypt reports the solver's ErrNotFound.
func Decrypt(pk *PublicKey, fk *FunctionKey, ct *Ciphertext, op Op, y int64, solver *dlog.Solver) (int64, error) {
	num, den, err := decryptParts(pk, fk, ct, op, y)
	if err != nil {
		return 0, err
	}
	v, err := solver.Lookup(pk.Params.Div(num, den))
	if err != nil {
		return 0, fmt.Errorf("febo: recovering x%sy: %w", op, err)
	}
	return v, nil
}

// decryptParts returns g^{x Δ y} as its numerator (the ciphertext term)
// and denominator (the function key). It is the big.Int reference
// evaluation; DecryptPartsMont is the Montgomery-domain form securemat's
// batched pipeline runs. Both results may alias ct and fk: read-only.
func decryptParts(pk *PublicKey, fk *FunctionKey, ct *Ciphertext, op Op, y int64) (num, den *big.Int, err error) {
	if pk == nil {
		return nil, nil, fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	if fk == nil || fk.K == nil {
		return nil, nil, fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	if ct == nil || ct.Ct == nil {
		return nil, nil, fmt.Errorf("%w: empty ciphertext", ErrMalformed)
	}
	p := pk.Params
	var yb big.Int
	switch op {
	case OpAdd, OpSub:
		return ct.Ct, fk.K, nil
	case OpMul:
		return p.Exp(ct.Ct, yb.SetInt64(y)), fk.K, nil
	case OpDiv:
		yInv, err := p.InvScalar(yb.SetInt64(y))
		if err != nil {
			return nil, nil, fmt.Errorf("febo: decrypt: %w", err)
		}
		return p.Exp(ct.Ct, yInv), fk.K, nil
	default:
		return nil, nil, fmt.Errorf("%w: %d", ErrInvalidOp, int(op))
	}
}

// DecryptScratch carries the per-call working buffers of DecryptPartsMont
// so a worker decrypting many cells reuses one set of allocations. The
// zero value is ready to use; a DecryptScratch must not be shared between
// concurrent decryptions.
type DecryptScratch struct {
	ct, tab []uint64
}

func (sc *DecryptScratch) ensure(k int) {
	if cap(sc.ct) < k {
		sc.ct = make([]uint64, k)
	} else {
		sc.ct = sc.ct[:k]
	}
}

// DecryptPartsMont is decryptParts entirely in the Montgomery domain: it
// writes the numerator and denominator of g^{x Δ y} = num/den as raw limb
// elements (length Limbs()) into the caller's num and den slices, so the
// batched element-wise pipeline can fold a whole chunk's denominators into
// one inversion (BatchInvMont) and feed the quotients straight to
// dlog.LookupMont — no big.Int round-trip per cell.
//
// For Δ = × with y < 0 the inversion-free ladder computes ct^{|y|} and
// folds it into the denominator (num becomes 1), preserving num/den; for
// Δ = ÷ the exponent y⁻¹ mod q is full-size and runs the windowed ExpMont
// ladder on sc's reusable table. den is written last-multiplied and safe to
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
	p := pk.Params
	mc := p.Mont()
	if sc == nil {
		sc = &DecryptScratch{}
	}
	sc.ensure(mc.Limbs())
	mc.ToMont(den, fk.K)
	switch op {
	case OpAdd, OpSub:
		mc.ToMont(num, ct.Ct)
		return nil
	case OpMul:
		mc.ToMont(sc.ct, ct.Ct)
		// uint64(-y) is the correct magnitude even for math.MinInt64: the
		// int64 negation wraps to itself and converts to 2^63.
		mag := uint64(y)
		if y < 0 {
			mag = uint64(-y)
		}
		mc.ExpMontUint64(num, sc.ct, mag)
		if y < 0 {
			// ct^y = (ct^{|y|})^{-1}: move the factor below the bar and let
			// the chunk's batch inversion pay for it.
			mc.MulMont(den, den, num)
			mc.SetOne(num)
		}
		return nil
	case OpDiv:
		var yb big.Int
		yInv, err := p.InvScalar(yb.SetInt64(y))
		if err != nil {
			return fmt.Errorf("febo: decrypt: %w", err)
		}
		mc.ToMont(sc.ct, ct.Ct)
		sc.tab = mc.ExpMontScratch(num, sc.ct, yInv, sc.tab)
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrInvalidOp, int(op))
	}
}
