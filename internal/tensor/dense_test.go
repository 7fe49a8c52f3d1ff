package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAccessors(t *testing.T) {
	d, err := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 2 || d.Cols != 3 {
		t.Fatalf("shape %dx%d", d.Rows, d.Cols)
	}
	if d.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", d.At(1, 2))
	}
	d.Set(0, 0, 9)
	if d.At(0, 0) != 9 {
		t.Error("Set failed")
	}
	if got := d.Row(1); got[0] != 4 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
	if got := d.Col(1); got[0] != 2 || got[1] != 5 {
		t.Errorf("Col(1) = %v", got)
	}
	rows := d.Rows2D()
	rows[0][0] = 999
	if d.At(0, 0) == 999 {
		t.Error("Rows2D must copy")
	}
}

func TestFromRowsRejectsBadInput(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("empty row should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input should fail")
	}
}

func TestMatMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !AlmostEqual(c, want, 1e-12) {
		t.Errorf("MatMul = %v", c.Rows2D())
	}
	if _, err := MatMul(a, NewDense(3, 2)); err == nil {
		t.Error("mismatched MatMul should fail")
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewDense(4, 3)
	b := NewDense(4, 5)
	c := NewDense(3, 5)
	a.RandInit(rng, 1)
	b.RandInit(rng, 1)
	c.RandInit(rng, 1)

	// MatMulT1(a, b) == MatMul(aᵀ, b)
	got, err := MatMulT1(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MatMul(a.Transpose(), b)
	if !AlmostEqual(got, want, 1e-12) {
		t.Error("MatMulT1 mismatch")
	}

	// MatMulT2(a, c) == MatMul(a, cᵀ): a is 4x3, cᵀ is ... c is 3x5 so cᵀ is 5x3 — mismatch.
	// Use shapes that work: MatMulT2(x [4x3], y [5x3]) = x·yᵀ [4x5].
	y := NewDense(5, 3)
	y.RandInit(rng, 1)
	got2, err := MatMulT2(a, y)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := MatMul(a, y.Transpose())
	if !AlmostEqual(got2, want2, 1e-12) {
		t.Error("MatMulT2 mismatch")
	}

	if _, err := MatMulT1(NewDense(2, 2), NewDense(3, 2)); err == nil {
		t.Error("mismatched MatMulT1 should fail")
	}
	if _, err := MatMulT2(NewDense(2, 2), NewDense(2, 3)); err == nil {
		t.Error("mismatched MatMulT2 should fail")
	}
}

func TestAddSubHadamard(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if diff.At(0, 0) != 9 {
		t.Error("Sub wrong")
	}
	had, err := Hadamard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if had.At(1, 0) != 90 {
		t.Error("Hadamard wrong")
	}
	bad := NewDense(3, 3)
	if _, err := Sub(a, bad); err == nil {
		t.Error("mismatched Sub should fail")
	}
	if _, err := Hadamard(a, bad); err == nil {
		t.Error("mismatched Hadamard should fail")
	}
}

func TestInPlaceOps(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{10, 20}})
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 22 {
		t.Error("AddInPlace wrong")
	}
	if err := a.AxpyInPlace(-0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 6 {
		t.Errorf("AxpyInPlace: got %v want 6", a.At(0, 0))
	}
	bad := NewDense(2, 2)
	if err := a.AddInPlace(bad); err == nil {
		t.Error("mismatched AddInPlace should fail")
	}
	if err := a.AxpyInPlace(1, bad); err == nil {
		t.Error("mismatched AxpyInPlace should fail")
	}
}

func TestTransposeApplyScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Error("Transpose wrong")
	}
	sq := a.Apply(func(v float64) float64 { return v * v })
	if sq.At(1, 2) != 36 {
		t.Error("Apply wrong")
	}
	sc := a.Scale(2)
	if sc.At(0, 1) != 4 || a.At(0, 1) != 2 {
		t.Error("Scale must not mutate receiver")
	}
}

func TestBiasBroadcastAndSum(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if err := a.AddColVector([]float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 12 || a.At(1, 0) != 23 {
		t.Errorf("AddColVector: %v", a.Rows2D())
	}
	sums := a.SumCols()
	if sums[0] != 11+12 || sums[1] != 23+24 {
		t.Errorf("SumCols = %v", sums)
	}
	if err := a.AddColVector([]float64{1}); err == nil {
		t.Error("wrong-length bias should fail")
	}
}

func TestMaxAbsAndArgMax(t *testing.T) {
	a, _ := FromRows([][]float64{{-5, 2}, {3, -1}})
	if a.ArgMaxCol(0) != 1 {
		t.Error("ArgMaxCol(0) wrong")
	}
	if a.ArgMaxCol(1) != 0 {
		t.Error("ArgMaxCol(1) wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone must deep-copy")
	}
}

func TestFillZero(t *testing.T) {
	a := NewDense(2, 2)
	a.Fill(7)
	if a.At(1, 1) != 7 {
		t.Error("Fill failed")
	}
	a.Zero()
	if a.At(0, 0) != 0 {
		t.Error("Zero failed")
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(0, 1) should panic")
		}
	}()
	NewDense(0, 1)
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewDense(3, 4)
		b := NewDense(4, 2)
		a.RandInit(rng, 1)
		b.RandInit(rng, 1)
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		btat, err := MatMul(b.Transpose(), a.Transpose())
		if err != nil {
			return false
		}
		return AlmostEqual(ab.Transpose(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqualShapes(t *testing.T) {
	if AlmostEqual(NewDense(1, 2), NewDense(2, 1), 1) {
		t.Error("different shapes should not be equal")
	}
	a := NewDense(1, 1)
	b := NewDense(1, 1)
	b.Set(0, 0, 0.5)
	if AlmostEqual(a, b, 0.4) {
		t.Error("difference above tolerance should fail")
	}
	if !AlmostEqual(a, b, 0.6) {
		t.Error("difference below tolerance should pass")
	}
}

func TestRandInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(10, 10)
	d.RandInit(rng, 0.5)
	for _, v := range d.Data {
		if math.Abs(v) > 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5]", v)
		}
	}
}

// FromRows builds a Dense from row slices; rows must be rectangular.
func FromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrShape)
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.Cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), d.Cols)
		}
		copy(d.Data[i*d.Cols:(i+1)*d.Cols], r)
	}
	return d, nil
}

// AlmostEqual reports element-wise equality within tol.
func AlmostEqual(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
