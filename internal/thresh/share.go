package thresh

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"cryptonn/internal/group"
)

var (
	// ErrThreshold reports an invalid (T, N) configuration.
	ErrThreshold = errors.New("thresh: invalid threshold configuration")
	// ErrShare reports a structurally invalid share or share set.
	ErrShare = errors.New("thresh: malformed share")
)

// Share is one Shamir share of a scalar in Z_Q: the polynomial evaluation
// V = f(X) at the node's index X. Indices are 1-based (0 is the secret).
type Share struct {
	X int64
	V *big.Int
}

// CheckTN validates a threshold configuration: 1 ≤ t ≤ n.
func CheckTN(t, n int) error {
	if t < 1 || n < 1 || t > n {
		return fmt.Errorf("%w: t=%d n=%d", ErrThreshold, t, n)
	}
	return nil
}

// polynomial is f(x) = c[0] + c[1]·x + … + c[t-1]·x^{t-1} over Z_Q.
type polynomial struct {
	coeffs []*big.Int
}

// randomPolynomial draws a degree t−1 polynomial with the given constant
// term (the secret, reduced mod Q; nil draws a random secret too).
func randomPolynomial(params *group.Params, secret *big.Int, t int, r io.Reader) (*polynomial, error) {
	coeffs := make([]*big.Int, t)
	if secret == nil {
		s, err := params.RandScalar(r)
		if err != nil {
			return nil, fmt.Errorf("thresh: sampling secret: %w", err)
		}
		coeffs[0] = s
	} else {
		coeffs[0] = params.ReduceScalar(secret)
	}
	for i := 1; i < t; i++ {
		c, err := params.RandScalar(r)
		if err != nil {
			return nil, fmt.Errorf("thresh: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	return &polynomial{coeffs: coeffs}, nil
}

// eval computes f(x) mod Q by Horner's rule.
func (p *polynomial) eval(params *group.Params, x int64) *big.Int {
	xb := big.NewInt(x)
	acc := new(big.Int).Set(p.coeffs[len(p.coeffs)-1])
	for i := len(p.coeffs) - 2; i >= 0; i-- {
		acc.Mul(acc, xb)
		acc.Add(acc, p.coeffs[i])
		acc.Mod(acc, params.Q)
	}
	return acc
}

// Lambda computes the Lagrange interpolation coefficients at x = 0 for the
// distinct evaluation points xs: the combined secret of shares at xs is
// Σ λ_j·V_j mod Q. The coefficients depend only on the participating
// index set, so a caller combining many values over the same quorum
// computes them once.
func Lambda(params *group.Params, xs []int64) ([]*big.Int, error) {
	if err := checkIndices(xs); err != nil {
		return nil, err
	}
	lambdas := make([]*big.Int, len(xs))
	num := new(big.Int)
	den := new(big.Int)
	var xm, diff big.Int
	for j, xj := range xs {
		num.SetInt64(1)
		den.SetInt64(1)
		for m, x := range xs {
			if m == j {
				continue
			}
			xm.SetInt64(x)
			num.Mul(num, &xm)
			num.Mod(num, params.Q)
			diff.SetInt64(x - xj)
			den.Mul(den, &diff)
			den.Mod(den, params.Q)
		}
		inv := new(big.Int).ModInverse(den, params.Q)
		if inv == nil {
			return nil, fmt.Errorf("%w: indices collide mod Q", ErrShare)
		}
		l := new(big.Int).Mul(num, inv)
		lambdas[j] = l.Mod(l, params.Q)
	}
	return lambdas, nil
}

// checkIndices rejects an index set Lagrange interpolation at x = 0 is not
// defined on: empty, holding 0 (the secret's own point), or repeating an
// index.
func checkIndices(xs []int64) error {
	if len(xs) == 0 {
		return fmt.Errorf("%w: empty index set", ErrShare)
	}
	seen := make(map[int64]struct{}, len(xs))
	for _, x := range xs {
		if x == 0 {
			return fmt.Errorf("%w: index 0 is the secret", ErrShare)
		}
		if _, dup := seen[x]; dup {
			return fmt.Errorf("%w: duplicate index %d", ErrShare, x)
		}
		seen[x] = struct{}{}
	}
	return nil
}

// lagrangeInts writes the Lagrange coefficients at x = 0 for the distinct
// non-zero indices xs over the integers, as numerators over one common
// denominator: λ_j = nums[j]/den exactly, with den > 0 the least common
// denominator of the reduced fractions Π_{m≠j} x_m / Π_{m≠j} (x_m − x_j).
// For the indices {1, …, T} in any order every λ_j is the integer
// (−1)^{j−1}·C(T, j), so den = 1; {1, 2, 4} gives (8, −6, 1)/3.
func lagrangeInts(xs []int64) (nums []*big.Int, den *big.Int, err error) {
	if err := checkIndices(xs); err != nil {
		return nil, nil, err
	}
	nums = make([]*big.Int, len(xs))
	dens := make([]*big.Int, len(xs))
	den = big.NewInt(1)
	var x, y, g big.Int
	for j, xj := range xs {
		num, d := big.NewInt(1), big.NewInt(1)
		for m, xm := range xs {
			if m != j {
				num.Mul(num, x.SetInt64(xm))
				d.Mul(d, x.Sub(&x, y.SetInt64(xj)))
			}
		}
		g.GCD(nil, nil, num, d)
		num.Quo(num, &g)
		d.Quo(d, &g)
		if d.Sign() < 0 {
			num.Neg(num)
			d.Neg(d)
		}
		nums[j], dens[j] = num, d
		g.GCD(nil, nil, den, d) // den = lcm(den, d)
		den.Mul(den, x.Quo(d, &g))
	}
	for j, num := range nums {
		num.Mul(num, x.Quo(den, dens[j]))
	}
	return nums, den, nil
}

// CombineScalars computes Σ λ_j·v_j mod Q — the Lagrange combination of
// partial scalar values (e.g. partial FEIP function keys) with
// coefficients from Lambda.
func CombineScalars(params *group.Params, lambdas, vals []*big.Int) *big.Int {
	acc := new(big.Int)
	var term big.Int
	for j, l := range lambdas {
		term.Mul(l, vals[j])
		acc.Add(acc, &term)
	}
	return acc.Mod(acc, params.Q)
}
