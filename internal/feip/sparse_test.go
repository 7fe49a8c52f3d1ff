package feip

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

// sparseVector draws a dense vector at the given density (entries in
// [-10, 10] \ {0} on the support) plus its coordinate form.
func sparseVector(rng *rand.Rand, eta int, density float64) (dense []int64, idx []int, vals []int64) {
	dense = make([]int64, eta)
	for i := range dense {
		if rng.Float64() < density {
			v := rng.Int63n(21) - 10
			if v == 0 {
				v = -3
			}
			dense[i] = v
		}
	}
	idx, vals = support(dense)
	return dense, idx, vals
}

// support is the coordinate form of a dense vector: the strictly increasing
// indices of its non-zero entries and their values.
func support(x []int64) (idx []int, vals []int64) {
	for i, v := range x {
		if v != 0 {
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}
	return idx, vals
}

// TestEncryptSparseMatchesDense pins the sparse path limb-exact against the
// dense one: encrypting the same vector with the same nonce (a deterministic
// reader replayed from the same seed) must yield bit-identical ct_0 and
// bit-identical coordinates on the support, across the density spectrum and
// on both embedded group widths.
func TestEncryptSparseMatchesDense(t *testing.T) {
	for _, bits := range []int{64, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			params, err := group.Embedded(bits)
			if err != nil {
				t.Fatal(err)
			}
			const eta = 64
			mpk, _, err := Setup(params, eta, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			cases := [][]int64{
				make([]int64, eta),              // all-zero
				append(make([]int64, eta-1), 0), // single nonzero, set below
			}
			cases[1][eta/2] = -9
			for _, density := range []float64{0, 0.01, 0.5, 1} {
				dense, _, _ := sparseVector(rng, eta, density)
				cases = append(cases, dense)
			}
			for ci, x := range cases {
				idx, vals := support(x)
				seed := int64(1000*ci + 17)
				ctDense, err := Encrypt(mpk, x, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("case %d: dense Encrypt: %v", ci, err)
				}
				ctSparse, err := EncryptSparse(mpk, idx, vals, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("case %d: EncryptSparse: %v", ci, err)
				}
				if ctSparse.Eta != eta || ctSparse.Nnz() != len(idx) {
					t.Fatalf("case %d: sparse shape η=%d nnz=%d", ci, ctSparse.Eta, ctSparse.Nnz())
				}
				if ctDense.Ct0.Cmp(ctSparse.Ct0) != 0 {
					t.Fatalf("case %d: ct0 diverges between dense and sparse", ci)
				}
				for tt, i := range ctSparse.Idx {
					if ctDense.Ct[i].Cmp(ctSparse.Ct[tt]) != 0 {
						t.Fatalf("case %d: coordinate %d diverges between dense and sparse", ci, i)
					}
				}
				for tt, c := range append([]*big.Int{ctSparse.Ct0}, ctSparse.Ct...) {
					if !params.IsElement(c) {
						t.Fatalf("case %d: sparse component %d is not a group element", ci, tt)
					}
				}
				// Full support with explicit zeros (the dense-promoted
				// routing shape) must reproduce the dense ciphertext
				// coordinate-for-coordinate.
				fullIdx := make([]int, eta)
				for i := range fullIdx {
					fullIdx[i] = i
				}
				ctFull, err := EncryptSparse(mpk, fullIdx, x, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("case %d: full-support EncryptSparse: %v", ci, err)
				}
				if ctFull.Ct0.Cmp(ctDense.Ct0) != 0 {
					t.Fatalf("case %d: full-support ct0 diverges", ci)
				}
				for i := range ctFull.Ct {
					if ctFull.Ct[i].Cmp(ctDense.Ct[i]) != 0 {
						t.Fatalf("case %d: full-support coordinate %d diverges", ci, i)
					}
				}
			}
		})
	}
}

// TestSparseDecryptRoundTrip checks the full sparse protocol: sparse
// ciphertext + support-masked key recovers exactly ⟨x, y⟩ for full weight
// vectors with positive, negative, and zero entries, and agrees with the
// dense decryption of the same vector.
func TestSparseDecryptRoundTrip(t *testing.T) {
	for _, bits := range []int{64, 256} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			params, err := group.Embedded(bits)
			if err != nil {
				t.Fatal(err)
			}
			const eta = 48
			mpk, msk, err := Setup(params, eta, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			solver, err := dlog.NewSolver(params, int64(eta)*200+1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(bits) + 5))
			for _, density := range []float64{0, 0.01, 0.5, 1} {
				for trial := 0; trial < 4; trial++ {
					x, idx, vals := sparseVector(rng, eta, density)
					y := make([]int64, eta)
					for i := range y {
						y[i] = rng.Int63n(21) - 10
					}
					ct, err := EncryptSparse(mpk, idx, vals, rng)
					if err != nil {
						t.Fatalf("EncryptSparse: %v", err)
					}
					ys := make([]int64, len(idx))
					for tt, i := range idx {
						ys[tt] = y[i]
					}
					fk, err := KeyDeriveSparse(params, msk, idx, ys)
					if err != nil {
						t.Fatalf("KeyDeriveSparse: %v", err)
					}
					got, err := DecryptSparse(mpk, ct, fk, y, solver)
					if err != nil {
						t.Fatalf("DecryptSparse: %v", err)
					}
					want := dot(x, y)
					if got != want {
						t.Fatalf("density=%g: DecryptSparse = %d, want %d", density, got, want)
					}
				}
			}
		})
	}
}

// TestKeyDeriveSparseMatchesMasked pins the masked-key identity the whole
// sparse serving path rests on: KeyDeriveSparse over a support equals dense
// KeyDerive over the same weights zeroed off-support.
func TestKeyDeriveSparseMatchesMasked(t *testing.T) {
	params := group.TestParams()
	const eta = 40
	_, msk, err := Setup(params, eta, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		_, idx, _ := sparseVector(rng, eta, 0.3)
		masked := make([]int64, eta)
		ys := make([]int64, len(idx))
		for tt, i := range idx {
			v := rng.Int63n(41) - 20 // zero weights on-support allowed
			ys[tt] = v
			masked[i] = v
		}
		sparse, err := KeyDeriveSparse(params, msk, idx, ys)
		if err != nil {
			t.Fatalf("KeyDeriveSparse: %v", err)
		}
		dense, err := KeyDerive(params, msk, masked)
		if err != nil {
			t.Fatalf("KeyDerive: %v", err)
		}
		if sparse.K.Cmp(dense.K) != 0 {
			t.Fatalf("trial %d: masked key mismatch", trial)
		}
	}
}

// TestSparseRejectsMalformedSupport exercises the canonical-support
// contract: descending, duplicate, out-of-range indices and explicit zero
// values are all rejected, as are dimension mismatches at decrypt time.
func TestSparseRejectsMalformedSupport(t *testing.T) {
	mpk, msk, solver := setupTest(t, 8, 10_000)
	params := mpk.Params
	bad := []struct {
		name string
		idx  []int
		vals []int64
	}{
		{"descending", []int{3, 1}, []int64{1, 2}},
		{"duplicate", []int{2, 2}, []int64{1, 2}},
		{"out of range", []int{0, 8}, []int64{1, 2}},
		{"negative index", []int{-1}, []int64{1}},
		{"length mismatch", []int{0, 4}, []int64{1}},
	}
	for _, tc := range bad {
		if _, err := EncryptSparse(mpk, tc.idx, tc.vals, nil); err == nil {
			t.Errorf("EncryptSparse accepted %s support", tc.name)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrDimension) {
			t.Errorf("EncryptSparse %s: unexpected error class %v", tc.name, err)
		}
	}
	// KeyDeriveSparse allows zero values but still rejects bad indices.
	if _, err := KeyDeriveSparse(params, msk, []int{5, 2}, []int64{1, 1}); err == nil {
		t.Error("KeyDeriveSparse accepted descending support")
	}
	if _, err := KeyDeriveSparse(params, msk, []int{2, 5}, []int64{0, 1}); err != nil {
		t.Errorf("KeyDeriveSparse rejected zero weight on support: %v", err)
	}
	ct, err := EncryptSparse(mpk, []int{1, 6}, []int64{2, 3}, nil)
	if err != nil {
		t.Fatalf("EncryptSparse: %v", err)
	}
	fk, err := KeyDeriveSparse(params, msk, ct.Idx, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptSparse(mpk, ct, fk, make([]int64, 5), solver); !errors.Is(err, ErrDimension) {
		t.Errorf("DecryptSparse short y: %v, want ErrDimension", err)
	}
}
