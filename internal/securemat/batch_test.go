package securemat_test

// Tests for the chunked batched-decryption pipeline: the Montgomery's-trick
// batch inversion and per-worker scratch must be invisible — every
// parallelism setting produces the plaintext result, and errors surface
// with their cell coordinates from any chunk.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// A matrix large enough for many chunks across several workers, decrypted
// at every parallelism level, must match the plaintext product exactly.
func TestBatchedDecryptMatchesPlaintextAcrossParallelism(t *testing.T) {
	_, eng := newFixture(t, 20*100*100+1)
	rng := rand.New(rand.NewSource(42))
	const inner, cols, wRows = 20, 37, 11 // wRows*cols = 407 cells: many chunks
	x := randMatrix(rng, inner, cols, -9, 9)
	w := randMatrix(rng, wRows, inner, -9, 9)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	want := plainDot(w, x)
	for _, par := range []int{1, 2, 3, 8, 0} {
		z, err := eng.SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if !matEqual(z, want) {
			t.Fatalf("par=%d: batched decrypt diverges from plaintext", par)
		}
	}
}

// Element-wise decrypt through the pipeline: negative values, zeros, and
// results at the solver bound survive the batch inversion.
func TestBatchedElementwiseEdgeValues(t *testing.T) {
	_, eng := newFixture(t, 200)
	x := [][]int64{{-100, 0, 100}, {1, -1, 99}}
	y := [][]int64{{-100, 0, 100}, {-1, 1, 101}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.ElementwiseKeys(enc, securemat.ElementwiseAdd, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		z, err := eng.SecureElementwise(enc, keys, securemat.ElementwiseAdd, y,
			securemat.ComputeOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		want := [][]int64{{-200, 0, 200}, {0, 0, 200}}
		if !matEqual(z, want) {
			t.Fatalf("par=%d: z = %v, want %v", par, z, want)
		}
	}
}

// A cell whose result overflows the solver bound must fail with that
// cell's coordinates, sequentially and in parallel.
func TestBatchedDecryptReportsFailingCell(t *testing.T) {
	_, eng := newFixture(t, 1)
	tiny, err := dlog.NewSolver(group.TestParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	x := [][]int64{{1, 1, 1, 9}} // last column overflows bound 3
	w := [][]int64{{1}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		_, err := eng.WithSolver(tiny).SecureDot(enc, keys, w, securemat.ComputeOptions{Parallelism: par})
		if !errors.Is(err, dlog.ErrNotFound) {
			t.Fatalf("par=%d: err = %v, want ErrNotFound", par, err)
		}
		if !strings.Contains(err.Error(), "cell (0,3)") {
			t.Fatalf("par=%d: err %q does not name the failing cell", par, err)
		}
	}
}

// Two cells fail in the same product, far enough apart to sit in different
// chunks.
// The error must not depend on which worker got to its failure first: the
// lowest failing cell is the one named, typed dlog.ErrNotFound, at every
// worker count and on every run.
func TestSimultaneousFailuresReportTheLowestCell(t *testing.T) {
	_, eng := newFixture(t, 1)
	tiny, err := dlog.NewSolver(group.TestParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	small := eng.WithSolver(tiny)
	one := func(n int, hot ...int) [][]int64 { // a row of n ones, nines at hot
		row := make([]int64, n)
		for j := range row {
			row[j] = 1
		}
		for _, j := range hot {
			row[j] = 9
		}
		return [][]int64{row}
	}
	// Many one-cell columns: cells 20 and 50 overflow, chunks of 16.
	wide := one(64, 20, 50)
	encWide, err := eng.Encrypt(wide, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w1 := [][]int64{{1}}
	keysWide, err := eng.DotKeys(w1)
	if err != nil {
		t.Fatal(err)
	}
	zeros := [][]int64{make([]int64, 64)}
	elemKeys, err := eng.ElementwiseKeys(encWide, securemat.ElementwiseAdd, zeros)
	if err != nil {
		t.Fatal(err)
	}
	products := []struct {
		name, cell string
		run        func(opts securemat.ComputeOptions) error
	}{
		{"SecureDot over 64 columns", "cell (0,20)", func(o securemat.ComputeOptions) error {
			_, err := small.SecureDot(encWide, keysWide, w1, o)
			return err
		}},
		{"SecureElementwise over 64 cells", "cell (0,20)", func(o securemat.ComputeOptions) error {
			_, err := small.SecureElementwise(encWide, elemKeys, securemat.ElementwiseAdd, zeros, o)
			return err
		}},
	}
	for _, p := range products {
		for _, par := range []int{1, 2, 3} {
			for round := 0; round < 20; round++ {
				err := p.run(securemat.ComputeOptions{Parallelism: par})
				if !errors.Is(err, dlog.ErrNotFound) || !strings.Contains(err.Error(), p.cell) {
					t.Fatalf("%s, par=%d, round %d: err = %v, want ErrNotFound naming %s", p.name, par, round, err, p.cell)
				}
			}
		}
	}
}

// A parts-stage error (division decrypt with y = 0) must carry cell
// coordinates too — it fails before the batch inversion runs.
func TestBatchedDecryptPartsStageError(t *testing.T) {
	_, eng := newFixture(t, 100)
	x := [][]int64{{8, 6}}
	y := [][]int64{{2, 3}}
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := eng.ElementwiseKeys(enc, securemat.ElementwiseDiv, y)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]int64{{2, 0}} // zero divisor at decrypt time
	if _, err := eng.SecureElementwise(enc, keys, securemat.ElementwiseDiv, bad,
		securemat.ComputeOptions{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "cell (0,1)") {
		t.Fatalf("err = %v, want parts error naming cell (0,1)", err)
	}
}

// The evaluator's steady state allocates per call and per chunk of cells,
// never per cell: the numerators of a column are one multi-exponentiation
// over machine integers on worker scratch. At the train_mlp shape (8 units
// over 196 features, batch 8) twice the columns — 64 cells against 128, the
// same four chunks either way — must therefore cost SecureDot and
// SecureDotRows the same number of objects; the result matrix is two
// allocations at any size. Under the race detector the calls still run but
// the counts are not compared (raceEnabled).
func TestSecureDotAllocationsDoNotGrowWithCells(t *testing.T) {
	const features, units, batch = 196, 8, 8
	_, eng := newFixture(t, features*17*100)
	rng := rand.New(rand.NewSource(23))
	opts := securemat.ComputeOptions{Parallelism: 1}
	// dot evaluates W (units × features) over n sample columns; dotRows
	// evaluates dZ (units × batch) over the row ciphertexts of n features.
	dot := func(n int) float64 {
		w := randMatrix(rng, units, features, -17, 17)
		enc, err := eng.Encrypt(randMatrix(rng, features, n, -100, 100), securemat.EncryptOptions{SkipElems: true})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := eng.DotKeysUncached(w)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.SecureDot(enc, keys, w, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	dotRows := func(n int) float64 {
		d := randMatrix(rng, units, batch, -17, 17)
		enc, err := eng.Encrypt(randMatrix(rng, n, batch, -100, 100), securemat.EncryptOptions{SkipElems: true, WithRows: true})
		if err != nil {
			t.Fatal(err)
		}
		keys, err := eng.DotKeysUncached(d)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.SecureDotRows(enc, keys, d, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, run := range map[string]func(int) float64{"SecureDot": dot, "SecureDotRows": dotRows} {
		at8, at16 := run(8), run(16)
		if raceEnabled {
			t.Logf("%s: %.0f objects at 8 columns, %.0f at 16, not compared under the race detector", name, at8, at16)
			continue
		}
		// The chunk's one modular inversion is math/big's, whose object
		// count varies by an allocation or two with the operand.
		if at16 > at8+8 {
			t.Errorf("%s: %.0f objects at 8 columns, %.0f at 16: allocations grow with the cells", name, at8, at16)
		}
		t.Logf("%s: %.0f objects at 8 columns, %.0f at 16", name, at8, at16)
	}
}

// A product over no columns is empty, not an error and not a division by
// zero while sizing chunks: r rows of W over an η × 0 matrix give r × 0, from
// every full-solve entry point, sequentially and on the worker pool. Nothing
// encrypts such a matrix, but a decoded frame may declare one.
func TestSecureDotOverZeroColumnsIsEmpty(t *testing.T) {
	const eta, units, batch = 6, 3, 4
	_, eng := newFixture(t, 1000)
	rng := rand.New(rand.NewSource(24))
	w := randMatrix(rng, units, eta, -5, 5)
	keys, err := eng.DotKeysUncached(w)
	if err != nil {
		t.Fatal(err)
	}
	d := randMatrix(rng, units, batch, -5, 5)
	keysD, err := eng.DotKeysUncached(d)
	if err != nil {
		t.Fatal(err)
	}
	noColumns := &securemat.EncryptedMatrix{Rows: eta, Cols: 0, ColCts: []*feip.Ciphertext{}}
	noRows := &securemat.EncryptedMatrix{Rows: 0, Cols: batch, ColCts: []*feip.Ciphertext{}, RowCts: []*feip.Ciphertext{}}
	noSparse := &securemat.SparseEncryptedMatrix{Rows: eta, Cols: 0}
	for _, par := range []int{1, 2} {
		opts := securemat.ComputeOptions{Parallelism: par}
		products := map[string]func() ([][]int64, error){
			"SecureDot":       func() ([][]int64, error) { return eng.SecureDot(noColumns, keys, w, opts) },
			"SecureDotRows":   func() ([][]int64, error) { return eng.SecureDotRows(noRows, keysD, d, opts) },
			"SecureDotSparse": func() ([][]int64, error) { return eng.SecureDotSparse(noSparse, nil, w, opts) },
		}
		for name, run := range products {
			z, err := run()
			if err != nil {
				t.Errorf("par=%d %s over zero columns: %v", par, name, err)
				continue
			}
			if len(z) != units {
				t.Errorf("par=%d %s: %d result rows, want %d", par, name, len(z), units)
			}
			for i, row := range z {
				if len(row) != 0 {
					t.Errorf("par=%d %s: row %d has %d cells, want none", par, name, i, len(row))
				}
			}
		}
	}
}
