package thresh

import (
	"fmt"
	"io"
	"math/big"

	"cryptonn/internal/group"
)

// Dealing is one participant's message in the Feldman-committed DKG: the
// exponent commitments to its polynomial coefficients and the sub-share
// f(j) destined for each node j. Over a network, Commits is broadcast and
// SubShares[j-1] travels to node j on a private channel, where the
// recipient can check g^{f(j)} = Π Commits[k]^{j^k}.
type Dealing struct {
	// Commits[k] = g^{c_k} commits to polynomial coefficient k; Commits[0]
	// commits to the dealer's contribution to the joint secret.
	Commits []*big.Int
	// SubShares[j-1] = (j, f(j)) is node j's sub-share.
	SubShares []Share
}

// Deal generates one participant's DKG contribution for an N-node cluster
// with threshold T. Randomness is drawn from r (crypto/rand when nil).
func Deal(params *group.Params, t, n int, r io.Reader) (*Dealing, error) {
	if err := CheckTN(t, n); err != nil {
		return nil, err
	}
	poly, err := randomPolynomial(params, nil, t, r)
	if err != nil {
		return nil, err
	}
	d := &Dealing{
		Commits:   make([]*big.Int, t),
		SubShares: make([]Share, n),
	}
	for k, c := range poly.coeffs {
		d.Commits[k] = params.PowG(c)
	}
	for j := 1; j <= n; j++ {
		d.SubShares[j-1] = Share{X: int64(j), V: poly.eval(params, int64(j))}
	}
	return d, nil
}

// DKGResult is the outcome of a dealerless key generation: each node's
// share of the joint secret, the joint public key, and each node's public
// share commitment. The joint secret itself is never formed.
type DKGResult struct {
	T, N int
	// Shares[j-1] is node j's share of the joint secret.
	Shares []Share
	// Pub = g^{secret} is the joint public key.
	Pub *big.Int
	// PubShares[j-1] = g^{Shares[j-1].V} is node j's public share
	// commitment, the key its partial keys are checked against: by DLEQ
	// proof for FEBO, and per coordinate for FEIP.
	PubShares []*big.Int
}

// RunDKG executes the N-participant Feldman DKG in one process: every
// participant deals, node j's share is Σ_d f_d(j), the joint public key is
// Π_d Commits_d[0]. No code path sums the dealers' constant terms, so the
// joint secret exists only in shared form; see the package comment for the
// ceremony-host trust caveat.
func RunDKG(params *group.Params, t, n int, r io.Reader) (*DKGResult, error) {
	if err := CheckTN(t, n); err != nil {
		return nil, err
	}
	res := &DKGResult{
		T:         t,
		N:         n,
		Shares:    make([]Share, n),
		PubShares: make([]*big.Int, n),
	}
	pub := big.NewInt(1)
	sums := make([]*big.Int, n)
	for j := range sums {
		sums[j] = new(big.Int)
	}
	for d := 0; d < n; d++ {
		dealing, err := Deal(params, t, n, r)
		if err != nil {
			return nil, fmt.Errorf("thresh: dealer %d: %w", d+1, err)
		}
		pub = params.Mul(pub, dealing.Commits[0])
		for j := range sums {
			sums[j].Add(sums[j], dealing.SubShares[j].V)
		}
	}
	res.Pub = pub
	for j := range sums {
		v := sums[j].Mod(sums[j], params.Q)
		res.Shares[j] = Share{X: int64(j + 1), V: v}
		res.PubShares[j] = params.PowG(v)
	}
	return res, nil
}

// CombineElementsBatch Lagrange-combines partial group elements at x = 0,
// value by value: parts[j][v] is the v-th partial of the node at index
// xs[j] (e.g. a partial FEBO key cmt_v^{s^(j)}), and the v-th result is
// Π_j parts[j][v]^{λ_j}. Every partial must lie in the order-Q subgroup —
// the quorum client admits a node's partials only after their membership
// and DLEQ checks — and all slices of parts must be equally long.
//
// The coefficients are not reduced mod Q. lagrangeInts writes them as small
// integer numerators n_j over one denominator D, so a value costs the few
// products of Π_j parts[j][v]^{|n_j|}, split by the sign of n_j; the
// negative halves of all values share one BatchInvMont. Only when D ≠ 1 does
// a value pay one more ExpMont, by D⁻¹ mod Q. On the happy path the first T
// answers come from nodes {1, …, T}, n_j = (−1)^{j−1}·C(T, j) and D = 1.
func CombineElementsBatch(params *group.Params, xs []int64, parts [][]*big.Int) ([]*big.Int, error) {
	if len(parts) != len(xs) {
		return nil, fmt.Errorf("%w: %d partial vectors for %d indices", ErrShare, len(parts), len(xs))
	}
	nums, den, err := lagrangeInts(xs)
	if err != nil {
		return nil, err
	}
	n := len(parts[0])
	for j, part := range parts {
		if len(part) != n {
			return nil, fmt.Errorf("%w: node %d sent %d partials, want %d", ErrShare, xs[j], len(part), n)
		}
		for v, e := range part {
			if e == nil {
				return nil, fmt.Errorf("%w: nil partial %d of node %d", ErrShare, v, xs[j])
			}
		}
	}
	var denInv *big.Int
	if den.Cmp(big.NewInt(1)) != 0 {
		if denInv = new(big.Int).ModInverse(den.Mod(den, params.Q), params.Q); denInv == nil {
			return nil, fmt.Errorf("%w: indices collide mod Q", ErrShare)
		}
	}
	mags := make([]*big.Int, len(nums))
	hasNeg := false
	for j, num := range nums {
		mags[j] = new(big.Int).Abs(num)
		hasNeg = hasNeg || num.Sign() < 0
	}
	mc := params.Mont()
	k := mc.Limbs()
	slab := make([]uint64, (2*n+1)*k)
	pos, neg, term := slab[:n*k], slab[n*k:2*n*k], slab[2*n*k:]
	var tab []uint64
	for v := 0; v < n; v++ {
		var started [2]bool
		for j, num := range nums {
			mc.ToMont(term, parts[j][v])
			tab = mc.ExpMontScratch(term, term, mags[j], tab)
			side, half := 0, pos[v*k:(v+1)*k]
			if num.Sign() < 0 {
				side, half = 1, neg[v*k:(v+1)*k]
			}
			if started[side] {
				mc.MulMont(half, half, term)
			} else {
				copy(half, term)
				started[side] = true
			}
		}
	}
	if hasNeg {
		if _, err := mc.BatchInvMont(neg, nil); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShare, err)
		}
	}
	out := make([]*big.Int, n)
	for v := range out {
		acc := pos[v*k : (v+1)*k]
		if hasNeg {
			mc.MulMont(acc, acc, neg[v*k:(v+1)*k])
		}
		if denInv != nil {
			tab = mc.ExpMontScratch(acc, acc, denInv, tab)
		}
		out[v] = mc.FromMont(acc)
	}
	return out, nil
}

// CombineElements computes Π e_j^{λ_j} mod P for one value, with
// coefficients already reduced mod Q (Lambda): one Straus product over the
// T partials. The key plane combines whole batches with
// CombineElementsBatch instead; this single-value form is what the
// repository benchmark's thresh.combine_us_per_key atom (benchmark/atoms.go)
// times, and it goes when that atom is re-based.
func CombineElements(params *group.Params, lambdas []*big.Int, elems []*big.Int) (*big.Int, error) {
	if len(lambdas) != len(elems) {
		return nil, fmt.Errorf("%w: %d coefficients for %d elements", ErrShare, len(lambdas), len(elems))
	}
	for j, e := range elems {
		if e == nil {
			return nil, fmt.Errorf("%w: nil element %d", ErrShare, j)
		}
	}
	return params.MultiExp(elems, lambdas), nil
}
