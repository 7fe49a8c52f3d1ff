package feip

import (
	"fmt"
	"io"
	"math/big"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

// Sparse FEIP: coordinate-form ciphertexts for bag-of-words vectors.
//
// The dense ciphertext carries ct_i = h_i^r·g^{x_i} for every coordinate —
// even an x_i = 0 coordinate still needs its h_i^r mask, so a dense
// ciphertext of a 1%-dense η=10k vector pays 10k comb evaluations for 100
// bits of payload. The sparse representation instead *omits* the zero
// coordinates entirely: it publishes the support (the indices of the
// non-zero entries) and only the masked coordinates on it.
//
// Correctness shifts to the key: a function key for the full weight vector
// y no longer decrypts, because the Σ_{i∉supp} y_i·s_i terms have no
// ciphertext coordinate to cancel against. The decryptor instead requests a
// support-masked key sk = Σ_{i∈supp} y_i·s_i (KeyDeriveSparse); since
// x_i = 0 off the support, ⟨x, y⟩ = ⟨x, y·1_supp⟩ and the masked key
// recovers exactly the same inner product:
//
//	Π_{i∈supp} ct_i^{y_i} / ct_0^{sk}
//	  = g^{r·Σ_{i∈supp} y_i s_i} · g^{Σ_{i∈supp} x_i y_i} / g^{r·sk}
//	  = g^{⟨x,y⟩}
//
// The trade is leakage, not soundness: a sparse ciphertext reveals its
// support (which vocabulary slots are present, not their counts), and the
// masked key requests reveal the same support to the authority. Workloads
// for which the support itself is sensitive must use the dense path; see
// docs/SPARSE.md for the full argument.

// SparseCiphertext is a coordinate-form FEIP ciphertext: Ct[t] encrypts
// coordinate Idx[t] of an η-dimensional vector whose remaining coordinates
// are zero. Idx is strictly increasing. Ct0 = g^r as in the dense form.
type SparseCiphertext struct {
	Eta int
	Ct0 *big.Int
	Idx []int
	Ct  []*big.Int
}

// Nnz returns the number of explicitly encrypted (non-zero) coordinates.
func (c *SparseCiphertext) Nnz() int { return len(c.Idx) }

// Density returns nnz/η, the fraction of coordinates carried explicitly.
func (c *SparseCiphertext) Density() float64 {
	if c.Eta == 0 {
		return 0
	}
	return float64(len(c.Idx)) / float64(c.Eta)
}

// Validate checks structural well-formedness and group membership, the
// sparse analogue of Ciphertext.Validate: a canonical (strictly increasing,
// in-range) support and subgroup membership of every element.
func (c *SparseCiphertext) Validate(params *group.Params) error {
	if c == nil || c.Ct0 == nil || c.Eta <= 0 {
		return fmt.Errorf("%w: empty sparse ciphertext", ErrMalformed)
	}
	if len(c.Idx) != len(c.Ct) {
		return fmt.Errorf("%w: |idx|=%d |ct|=%d", ErrMalformed, len(c.Idx), len(c.Ct))
	}
	if !params.IsElement(c.Ct0) {
		return fmt.Errorf("%w: ct0 not a group element", ErrMalformed)
	}
	prev := -1
	for t, i := range c.Idx {
		if i <= prev || i >= c.Eta {
			return fmt.Errorf("%w: support not strictly increasing in [0,%d)", ErrMalformed, c.Eta)
		}
		prev = i
		if !params.IsElement(c.Ct[t]) {
			return fmt.Errorf("%w: ct[%d] not a group element", ErrMalformed, t)
		}
	}
	return nil
}

// Support extracts the coordinate form of a dense signed vector: the
// strictly increasing indices of its non-zero entries and their values.
// It is the canonical input shape for EncryptSparse and KeyDeriveSparse.
func Support(x []int64) (idx []int, vals []int64) {
	nnz := 0
	for _, v := range x {
		if v != 0 {
			nnz++
		}
	}
	if nnz == 0 {
		return nil, nil
	}
	idx = make([]int, 0, nnz)
	vals = make([]int64, 0, nnz)
	for i, v := range x {
		if v != 0 {
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}
	return idx, vals
}

func checkSupport(eta int, idx []int, vals []int64) error {
	if len(idx) != len(vals) {
		return fmt.Errorf("%w: |idx|=%d |vals|=%d", ErrDimension, len(idx), len(vals))
	}
	prev := -1
	for _, i := range idx {
		if i <= prev || i >= eta {
			return fmt.Errorf("%w: support not strictly increasing in [0,%d)", ErrMalformed, eta)
		}
		prev = i
	}
	return nil
}

// EncryptSparse encrypts the η-dimensional vector whose non-zero entries
// are vals at indices idx (all other coordinates zero) under mpk. The cost
// is nnz+1 comb evaluations instead of η+1: zero coordinates are not
// represented at all, which is what makes the win algorithmic rather than
// constant-factor. The support must be canonical (strictly increasing and
// in-range — see Support); explicit zero values are permitted (they cost a
// mask evaluation but no payload factor), which lets a density router pad
// a near-dense column to full width so its key stays support-independent.
func EncryptSparse(mpk *MasterPublicKey, idx []int, vals []int64, r io.Reader) (*SparseCiphertext, error) {
	return EncryptSparseWithScratch(mpk, idx, vals, r, nil)
}

// EncryptSparseWithScratch is EncryptSparse with caller-pooled working
// slabs; sc may be nil. The returned ciphertext never aliases the scratch
// and copies idx, so the caller may reuse both buffers.
func EncryptSparseWithScratch(mpk *MasterPublicKey, idx []int, vals []int64, r io.Reader, sc *EncryptScratch) (*SparseCiphertext, error) {
	if mpk == nil || len(mpk.H) == 0 {
		return nil, fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	eta := mpk.Eta()
	if err := checkSupport(eta, idx, vals); err != nil {
		return nil, err
	}
	p := mpk.Params
	nonce, err := p.RandScalar(r)
	if err != nil {
		return nil, fmt.Errorf("feip: encrypt sparse: %w", err)
	}
	combs := mpk.combs()
	mc := p.Mont()
	k := mc.Limbs()
	nnz := len(idx)
	if sc == nil {
		sc = &EncryptScratch{}
	}
	sc.ensure(nnz+1, k)
	sc.rl = p.ScalarLimbs(nonce, sc.rl)
	pos, gx, rl := sc.pos, sc.gx, sc.rl
	// One gather serves every support coordinate: all per-key combs share
	// a geometry and the nonce is the shared exponent, exactly as in the
	// dense path — the sparse path just walks nnz combs instead of η.
	if nnz > 0 {
		sc.us = combs[idx[0]].Gather(rl, sc.us)
	}
	for t, i := range idx {
		pi := pos[t*k : (t+1)*k]
		combs[i].PowMontGathered(pi, sc.us)
		// Explicit zeros are legal on a support (a dense-promoted column
		// carries its full width so its masked key collapses to the shared
		// full-row key); they get the same payload skip as the dense path.
		if vals[t] != 0 {
			p.PowGInt64Mont(gx, vals[t])
			mc.MulMont(pi, pi, gx)
		}
	}
	p.PowGMont(pos[nnz*k:], nonce)
	ct := make([]*big.Int, nnz)
	for t := range ct {
		ct[t] = mc.FromMont(pos[t*k : (t+1)*k])
	}
	return &SparseCiphertext{
		Eta: eta,
		Ct0: mc.FromMont(pos[nnz*k:]),
		Idx: append([]int(nil), idx...),
		Ct:  ct,
	}, nil
}

// KeyDeriveSparse computes the support-masked inner-product key
// sk = Σ_t vals[t]·s[idx[t]] mod q — the function key for the weight
// vector y·1_supp where y[idx[t]] = vals[t]. It is the key a sparse
// ciphertext with support idx decrypts under (vals gathered from the full
// weight vector on that support), and costs nnz scalar multiplications
// instead of η. Zero vals entries are legal — a weight can vanish on a
// support coordinate — and are simply skipped.
func KeyDeriveSparse(params *group.Params, msk *MasterSecretKey, idx []int, vals []int64) (*FunctionKey, error) {
	if msk == nil || len(msk.S) == 0 {
		return nil, fmt.Errorf("%w: empty master secret", ErrMalformed)
	}
	if len(idx) != len(vals) {
		return nil, fmt.Errorf("%w: |idx|=%d |vals|=%d", ErrDimension, len(idx), len(vals))
	}
	eta := len(msk.S)
	acc := new(big.Int)
	var term, yb big.Int
	prev := -1
	for t, i := range idx {
		if i <= prev || i >= eta {
			return nil, fmt.Errorf("%w: support not strictly increasing in [0,%d)", ErrMalformed, eta)
		}
		prev = i
		if vals[t] == 0 {
			continue
		}
		yb.SetInt64(vals[t])
		term.Mul(msk.S[i], &yb)
		acc.Add(acc, &term)
	}
	return &FunctionKey{K: params.ReduceScalar(acc)}, nil
}

// DecryptSparse recovers ⟨x, y⟩ from a sparse ciphertext of x and the
// support-masked function key for y (KeyDeriveSparse over ct.Idx). y is the
// full η-dimensional weight vector; only its values on the ciphertext's
// support participate, which is exactly ⟨x, y⟩ since x vanishes elsewhere.
func DecryptSparse(mpk *MasterPublicKey, ct *SparseCiphertext, fk *FunctionKey, y []int64, solver *dlog.Solver) (int64, error) {
	g, err := DecryptGroupElementSparse(mpk, ct, fk, y)
	if err != nil {
		return 0, err
	}
	v, err := solver.Lookup(g)
	if err != nil {
		return 0, fmt.Errorf("feip: recovering sparse ⟨x,y⟩: %w", err)
	}
	return v, nil
}

// DecryptGroupElementSparse computes g^{⟨x,y⟩} = Π_t ct_t^{y[idx_t]} /
// ct_0^{sk} without the final discrete-log step.
func DecryptGroupElementSparse(mpk *MasterPublicKey, ct *SparseCiphertext, fk *FunctionKey, y []int64) (*big.Int, error) {
	num, den, err := DecryptPartsSparse(mpk, ct, fk, y)
	if err != nil {
		return nil, err
	}
	return mpk.Params.Div(num, den), nil
}

// DecryptPartsSparse computes the numerator Π_t ct_t^{y[idx_t]} and the
// denominator ct_0^{sk} separately, the sparse analogue of DecryptParts for
// batch callers that fold the inversion into a BatchInvMont. The numerator
// walk touches only the ciphertext's nnz coordinates.
func DecryptPartsSparse(mpk *MasterPublicKey, ct *SparseCiphertext, fk *FunctionKey, y []int64) (num, den *big.Int, err error) {
	if mpk == nil {
		return nil, nil, fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	if fk == nil || fk.K == nil {
		return nil, nil, fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	if ct == nil || len(ct.Idx) != len(ct.Ct) {
		return nil, nil, fmt.Errorf("%w: malformed sparse ciphertext", ErrDimension)
	}
	if len(y) != ct.Eta {
		return nil, nil, fmt.Errorf("%w: |y|=%d, η=%d", ErrDimension, len(y), ct.Eta)
	}
	p := mpk.Params
	ys := make([]int64, len(ct.Idx))
	for t, i := range ct.Idx {
		ys[t] = y[i]
	}
	num = p.MultiExpInt64(ct.Ct, ys)
	den = p.Exp(ct.Ct0, fk.K)
	return num, den, nil
}
