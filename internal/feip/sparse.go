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

// checkSupport is the one support validation in front of the coordinate-form
// bodies: idx pairs off with n values (or ciphertext coordinates) and is
// strictly increasing inside [0, eta).
func checkSupport(eta int, idx []int, n int) error {
	if len(idx) != n {
		return fmt.Errorf("%w: |idx|=%d pairs with %d entries", ErrDimension, len(idx), n)
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
// in range, as checkSupport demands); explicit zero values are permitted
// (they cost a mask evaluation but no payload factor), which lets a density
// router pad a near-dense column to full width so its key stays
// support-independent.
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
	if err := checkSupport(mpk.Eta(), idx, len(vals)); err != nil {
		return nil, err
	}
	ct0, ct, err := encrypt(mpk, idx, vals, r, sc)
	if err != nil {
		return nil, err
	}
	return &SparseCiphertext{Eta: mpk.Eta(), Ct0: ct0, Idx: append([]int(nil), idx...), Ct: ct}, nil
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
	if err := checkSupport(len(msk.S), idx, len(vals)); err != nil {
		return nil, err
	}
	return keyDerive(params, msk, idx, vals), nil
}

// DecryptSparse recovers ⟨x, y⟩ from a sparse ciphertext of x and the
// support-masked function key for y (KeyDeriveSparse over ct.Idx). y is the
// full η-dimensional weight vector; only its values on the ciphertext's
// support participate, which is exactly ⟨x, y⟩ since x vanishes elsewhere.
func DecryptSparse(mpk *MasterPublicKey, ct *SparseCiphertext, fk *FunctionKey, y []int64, solver *dlog.Solver) (int64, error) {
	if ct == nil {
		return 0, fmt.Errorf("%w: nil sparse ciphertext", ErrMalformed)
	}
	if len(y) != ct.Eta {
		return 0, fmt.Errorf("%w: |y|=%d, η=%d", ErrDimension, len(y), ct.Eta)
	}
	if err := checkSupport(ct.Eta, ct.Idx, len(ct.Ct)); err != nil {
		return 0, err
	}
	return decrypt(mpk, ct.Ct0, ct.Ct, ct.Idx, fk, y, solver)
}
