package securemat_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// TestEveryDotPathAgrees drives the four dot entry points — which share one
// evaluator — and the two feip reference decryptions from the same inputs,
// and compares every output with the plaintext product. Column counts
// straddle the evaluator's chunk boundaries, the inputs mix columns the
// density router keeps compact with ones it carries at full width, and one
// column is all zero: its empty support must read as "no coordinate", never
// as the identity.
func TestEveryDotPathAgrees(t *testing.T) {
	const eta = 12
	_, eng := newFixture(t, 100_000)
	mpk, err := eng.FEIPPublic(eta)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, eta)
	for i := range identity {
		identity[i] = i
	}
	rng := rand.New(rand.NewSource(20))
	for _, rows := range []int{1, 2, 3, 8} {
		for _, cols := range []int{1, 15, 16, 17, 33} {
			// Columns alternate between ~1/6 density (compact) and fully
			// dense (carried at full width); column cols/2 is all zero.
			x := make([][]int64, eta)
			for i := range x {
				x[i] = make([]int64, cols)
				for j := range x[i] {
					if j != cols/2 && (j%2 == 1 || rng.Intn(6) == 0) {
						x[i][j] = rng.Int63n(19) - 9
					}
				}
			}
			w := randMatrix(rng, rows, eta, -9, 9)
			want := plainDot(w, x)
			xT := make([][]int64, cols)
			for j := range xT {
				xT[j] = make([]int64, eta)
				for i := range x {
					xT[j][i] = x[i][j]
				}
			}

			enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
			if err != nil {
				t.Fatal(err)
			}
			encT, err := eng.Encrypt(xT, securemat.EncryptOptions{SkipElems: true, WithRows: true})
			if err != nil {
				t.Fatal(err)
			}
			before := eng.SparseStats()
			encS, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
			if err != nil {
				t.Fatal(err)
			}
			after := eng.SparseStats()
			if cols > 1 && (after.SparseColumns == before.SparseColumns || after.PromotedColumns == before.PromotedColumns) {
				t.Fatalf("%dx%d: the router did not take both routes (%+v)", rows, cols, after)
			}
			if got := encS.ColCts[cols/2].Nnz(); got != 0 {
				t.Fatalf("%dx%d: all-zero column carries %d coordinates", rows, cols, got)
			}
			keys, err := eng.DotKeysUncached(w)
			if err != nil {
				t.Fatal(err)
			}
			sparseKeys, err := eng.SparseDotKeys(encS, w)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 2, 3} {
				name := fmt.Sprintf("%dx%d/workers=%d", rows, cols, workers)
				opts := securemat.ComputeOptions{Parallelism: workers}
				if z, err := eng.SecureDot(enc, keys, w, opts); err != nil || !matEqual(z, want) {
					t.Errorf("%s: SecureDot = %v, %v; want %v", name, z, err, want)
				}
				if z, err := eng.SecureDotRows(encT, keys, w, opts); err != nil || !matEqual(z, want) {
					t.Errorf("%s: SecureDotRows on the transpose = %v, %v; want %v", name, z, err, want)
				}
				if z, err := eng.SecureDotSparse(encS, sparseKeys, w, opts); err != nil || !matEqual(z, want) {
					t.Errorf("%s: SecureDotSparse = %v, %v; want %v", name, z, err, want)
				}
				hits, err := eng.SecureDotTopK(encS, sparseKeys, w, rows, opts)
				if err != nil {
					t.Errorf("%s: SecureDotTopK: %v", name, err)
					continue
				}
				for j := range hits {
					col := make([]int64, rows)
					for i := range col {
						col[i] = want[i][j]
					}
					if ref := referenceTopK(col, rows); !reflect.DeepEqual(hits[j], ref) {
						t.Errorf("%s: top-%d of column %d = %v, want %v", name, rows, j, hits[j], ref)
					}
				}
			}

			// The reference decryptions: a dense ciphertext and the same
			// ciphertext viewed in coordinate form on the identity support.
			for j, ct := range enc.ColCts {
				view := &feip.SparseCiphertext{Eta: eta, Ct0: ct.Ct0, Idx: identity, Ct: ct.Ct}
				for i := range w {
					dense, err := feip.Decrypt(mpk, ct, keys[i], w[i], eng.Solver())
					if err != nil || dense != want[i][j] {
						t.Errorf("%dx%d: feip.Decrypt cell (%d,%d) = %d, %v; want %d", rows, cols, i, j, dense, err, want[i][j])
					}
					sparse, err := feip.DecryptSparse(mpk, view, keys[i], w[i], eng.Solver())
					if err != nil || sparse != dense {
						t.Errorf("%dx%d: feip.DecryptSparse on the identity support, cell (%d,%d) = %d, %v; dense gave %d", rows, cols, i, j, sparse, err, dense)
					}
				}
			}
		}
	}
}

// TestEveryPathAgreesAtEveryWorkerCount is one table over every equivalent
// way of running a secure computation: the four dot entry points and the
// element-wise path, at Parallelism 1, 2, 3 and 7, on products of 1, 3, 5 and
// 8 columns — fewer columns than workers, as many, and counts no worker count
// divides. Sparse columns keep a fifth of their coordinates and alternate
// with full-width ones, so chunks also hold supports of unequal length. W has
// 5 rows, and 32 on three columns: one key set as wide as serve_dense's
// shares each ciphertext's squaring chain. Every result must equal the
// one-worker result, which must equal the plaintext.
func TestEveryPathAgreesAtEveryWorkerCount(t *testing.T) {
	const eta = 331
	_, eng := newFixture(t, eta*81+1)
	rng := rand.New(rand.NewSource(22))
	for _, shape := range [][2]int{{5, 1}, {5, 3}, {5, 5}, {5, 8}, {32, 3}} {
		rows, cols := shape[0], shape[1]
		x := make([][]int64, eta)
		for i := range x {
			x[i] = make([]int64, cols)
			for j := range x[i] {
				if j%2 == 0 || rng.Intn(5) == 0 {
					x[i][j] = rng.Int63n(19) - 9
				}
			}
		}
		w := randMatrix(rng, rows, eta, -9, 9)
		y := randMatrix(rng, rows, cols, -50, 50)
		xT := make([][]int64, cols)
		for j := range xT {
			xT[j] = make([]int64, eta)
			for i := range x {
				xT[j][i] = x[i][j]
			}
		}
		enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
		if err != nil {
			t.Fatal(err)
		}
		encT, err := eng.Encrypt(xT, securemat.EncryptOptions{SkipElems: true, WithRows: true})
		if err != nil {
			t.Fatal(err)
		}
		encS, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cols > 1 && encS.ColCts[1].Nnz() >= eta/4 {
			t.Fatalf("column 1 carries %d of %d coordinates: not a compact column", encS.ColCts[1].Nnz(), eta)
		}
		encE, err := eng.Encrypt(y, securemat.EncryptOptions{})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := eng.DotKeysUncached(w)
		if err != nil {
			t.Fatal(err)
		}
		sparseKeys, err := eng.SparseDotKeys(encS, w)
		if err != nil {
			t.Fatal(err)
		}
		elemKeys, err := eng.ElementwiseKeys(encE, febo.OpSub, y)
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string]func(opts securemat.ComputeOptions) (any, error){
			"SecureDot":       func(o securemat.ComputeOptions) (any, error) { return eng.SecureDot(enc, keys, w, o) },
			"SecureDotRows":   func(o securemat.ComputeOptions) (any, error) { return eng.SecureDotRows(encT, keys, w, o) },
			"SecureDotSparse": func(o securemat.ComputeOptions) (any, error) { return eng.SecureDotSparse(encS, sparseKeys, w, o) },
			"SecureDotTopK":   func(o securemat.ComputeOptions) (any, error) { return eng.SecureDotTopK(encS, sparseKeys, w, 3, o) },
			"SecureElementwise": func(o securemat.ComputeOptions) (any, error) {
				return eng.SecureElementwise(encE, elemKeys, febo.OpSub, y, o)
			},
		}
		want := plainDot(w, x)
		for name, run := range paths {
			ref, err := run(securemat.ComputeOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s, %dx%d, one worker: %v", name, rows, cols, err)
			}
			if z, ok := ref.([][]int64); ok && name != "SecureElementwise" && !matEqual(z, want) {
				t.Fatalf("%s, %dx%d, one worker: differs from the plaintext product", name, rows, cols)
			}
			for _, workers := range []int{2, 3, 7} {
				got, err := run(securemat.ComputeOptions{Parallelism: workers})
				if err != nil || !reflect.DeepEqual(got, ref) {
					t.Errorf("%s, %dx%d, %d workers: %v, %v; one worker gave %v", name, rows, cols, workers, got, err, ref)
				}
			}
		}
	}
}

// TestMalformedViewsAreShapeErrors hands every secure-evaluation entry point
// views that disagree with themselves. Callers assemble views by hand and the
// evaluators index by what a view declares, on worker goroutines when
// Parallelism ≥ 2, so each defect must come back as ErrShape from the one
// validation in front of the evaluator — not as a panic no recover reaches.
func TestMalformedViewsAreShapeErrors(t *testing.T) {
	_, eng := newFixture(t, 100_000)
	rng := rand.New(rand.NewSource(21))
	const rows, cols = 10, 3
	x := sparseMatrix(rng, rows, cols, 0.2)
	x[0][0], x[1][0] = 3, -4 // every defect below edits column 0's support
	w := randMatrix(rng, 4, rows, -5, 5)
	wT := randMatrix(rng, 4, cols, -5, 5)
	dense, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeysUncached(w)
	if err != nil {
		t.Fatal(err)
	}
	keysT, err := eng.DotKeysUncached(wT)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := eng.EncryptSparse(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sparseKeys, err := eng.SparseDotKeys(sparse, w)
	if err != nil {
		t.Fatal(err)
	}
	elemKeys, err := eng.ElementwiseKeys(dense, febo.OpAdd, x)
	if err != nil {
		t.Fatal(err)
	}

	// Each defect edits a private copy of one well-formed operand.
	type operands struct {
		dense      securemat.EncryptedMatrix
		keys       []*feip.FunctionKey
		sparse     securemat.SparseEncryptedMatrix
		sparseKeys [][]*feip.FunctionKey
		elemKeys   [][]*febo.FunctionKey
	}
	fresh := func() *operands {
		o := &operands{dense: *dense, sparse: *sparse}
		o.dense.ColCts = append([]*feip.Ciphertext(nil), dense.ColCts...)
		o.dense.RowCts = append([]*feip.Ciphertext(nil), dense.RowCts...)
		o.dense.Elems = append([][]*febo.Ciphertext(nil), dense.Elems...)
		o.keys = append([]*feip.FunctionKey(nil), keys...)
		o.sparse.ColCts = append([]*feip.SparseCiphertext(nil), sparse.ColCts...)
		o.sparseKeys = append([][]*feip.FunctionKey(nil), sparseKeys...)
		o.elemKeys = append([][]*febo.FunctionKey(nil), elemKeys...)
		return o
	}
	// editColumn0 replaces sparse column 0 with an edited copy.
	editColumn0 := func(o *operands, edit func(ct *feip.SparseCiphertext)) {
		ct := *o.sparse.ColCts[0]
		ct.Idx = append([]int(nil), ct.Idx...)
		edit(&ct)
		o.sparse.ColCts[0] = &ct
	}

	type entry func(o *operands, opts securemat.ComputeOptions) error
	secureDot := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.SecureDot(&o.dense, o.keys, w, opts)
		return err
	}
	secureDotRows := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.SecureDotRows(&o.dense, keysT, wT, opts)
		return err
	}
	secureDotSparse := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.SecureDotSparse(&o.sparse, o.sparseKeys, w, opts)
		return err
	}
	secureDotTopK := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.SecureDotTopK(&o.sparse, o.sparseKeys, w, 2, opts)
		return err
	}
	secureElementwise := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.SecureElementwise(&o.dense, o.elemKeys, febo.OpAdd, x, opts)
		return err
	}
	dotTopK := func(o *operands, opts securemat.ComputeOptions) error {
		_, err := eng.DotTopK(&o.sparse, w, 2, opts)
		return err
	}
	sparseDotKeys := func(o *operands, _ securemat.ComputeOptions) error {
		_, err := eng.SparseDotKeys(&o.sparse, w)
		return err
	}
	sparseEntries := map[string]entry{"SecureDotSparse": secureDotSparse, "SecureDotTopK": secureDotTopK}
	// A defect of the view itself also reaches the entry points that derive
	// their own keys, which index the weights by support before any
	// evaluator runs.
	sparseViewEntries := map[string]entry{"SecureDotSparse": secureDotSparse, "SecureDotTopK": secureDotTopK,
		"DotTopK": dotTopK, "SparseDotKeys": sparseDotKeys}

	type defect struct {
		name    string
		entries map[string]entry
		breakIt func(o *operands)
	}
	defects := []defect{
		{"index at Rows", sparseViewEntries, func(o *operands) {
			editColumn0(o, func(ct *feip.SparseCiphertext) { ct.Idx[len(ct.Idx)-1] = rows })
		}},
		{"support not increasing", sparseViewEntries, func(o *operands) {
			editColumn0(o, func(ct *feip.SparseCiphertext) { ct.Idx[1] = ct.Idx[0] })
		}},
		{"more indices than coordinates", sparseViewEntries, func(o *operands) {
			editColumn0(o, func(ct *feip.SparseCiphertext) { ct.Ct = ct.Ct[:len(ct.Ct)-1] })
		}},
		{"nil column", sparseViewEntries, func(o *operands) { o.sparse.ColCts[1] = nil }},
		{"fewer columns than Cols", sparseViewEntries, func(o *operands) { o.sparse.ColCts = o.sparse.ColCts[:cols-1] }},
		{"more columns than Cols", sparseViewEntries, func(o *operands) {
			o.sparse.ColCts = append(o.sparse.ColCts, o.sparse.ColCts[0])
			o.sparseKeys = append(o.sparseKeys, o.sparseKeys[0])
		}},
		{"short key slice", sparseEntries, func(o *operands) { o.sparseKeys[2] = o.sparseKeys[2][:3] }},
		{"nil key", sparseEntries, func(o *operands) {
			o.sparseKeys[0] = append([]*feip.FunctionKey(nil), o.sparseKeys[0]...)
			o.sparseKeys[0][1] = nil
		}},
		{"nil column", map[string]entry{"SecureDot": secureDot}, func(o *operands) { o.dense.ColCts[1] = nil }},
		{"fewer columns than Cols", map[string]entry{"SecureDot": secureDot}, func(o *operands) {
			o.dense.ColCts = o.dense.ColCts[:cols-1]
		}},
		{"column of the wrong dimension", map[string]entry{"SecureDot": secureDot}, func(o *operands) {
			o.dense.ColCts[0] = o.dense.RowCts[0]
		}},
		{"nil key", map[string]entry{"SecureDot": secureDot}, func(o *operands) { o.keys[2] = nil }},
		{"nil row", map[string]entry{"SecureDotRows": secureDotRows}, func(o *operands) { o.dense.RowCts[3] = nil }},
		{"more rows than Rows", map[string]entry{"SecureDotRows": secureDotRows}, func(o *operands) {
			o.dense.RowCts = append(o.dense.RowCts, o.dense.RowCts[0])
		}},
		{"ragged key row", map[string]entry{"SecureElementwise": secureElementwise}, func(o *operands) {
			o.elemKeys[rows-1] = o.elemKeys[rows-1][:cols-1]
		}},
		{"fewer element rows than Rows", map[string]entry{"SecureElementwise": secureElementwise}, func(o *operands) {
			o.dense.Elems = o.dense.Elems[:rows-1]
		}},
		{"ragged element row", map[string]entry{"SecureElementwise": secureElementwise}, func(o *operands) {
			o.dense.Elems[0] = o.dense.Elems[0][:cols-1]
		}},
	}
	for _, par := range []int{1, 2} {
		opts := securemat.ComputeOptions{Parallelism: par}
		for name, run := range map[string]entry{"SecureDot": secureDot, "SecureDotRows": secureDotRows,
			"SecureDotSparse": secureDotSparse, "SecureDotTopK": secureDotTopK, "DotTopK": dotTopK,
			"SparseDotKeys": sparseDotKeys, "SecureElementwise": secureElementwise} {
			if err := run(fresh(), opts); err != nil {
				t.Fatalf("par=%d: well-formed %s: %v", par, name, err)
			}
		}
		for _, d := range defects {
			for name, run := range d.entries {
				o := fresh()
				d.breakIt(o)
				if err := run(o, opts); !errors.Is(err, securemat.ErrShape) {
					t.Errorf("par=%d %s, %s: err = %v, want ErrShape", par, name, d.name, err)
				}
			}
		}
	}
}
