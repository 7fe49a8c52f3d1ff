// Package tensor provides the dense numeric arrays used by the neural
// network substrate: 2-D matrices (Dense) and 3-D feature volumes (Volume)
// with the convolution plumbing (padding, im2col/col2im, pooling) that
// LeNet-5 needs.
//
// The layout convention follows the paper's formulas: activations flow
// through the network as (features × batch) matrices, so the first layer
// computes A = g(W·X + b) with X holding one sample per column — the same
// orientation the secure matrix computation encrypts.
//
// The package is deliberately dependency-free and float64-only; the
// fixed-point bridge to the crypto layer lives in internal/fixedpoint.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrShape reports incompatible dimensions.
var ErrShape = errors.New("tensor: shape mismatch")

// Dense is a row-major 2-D matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid dense shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Cols+j] = v }

// Row returns a copy of row i.
func (d *Dense) Row(i int) []float64 {
	out := make([]float64, d.Cols)
	copy(out, d.Data[i*d.Cols:(i+1)*d.Cols])
	return out
}

// Col returns a copy of column j.
func (d *Dense) Col(j int) []float64 {
	out := make([]float64, d.Rows)
	for i := 0; i < d.Rows; i++ {
		out[i] = d.At(i, j)
	}
	return out
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// Rows2D returns the matrix as row slices (copies).
func (d *Dense) Rows2D() [][]float64 {
	out := make([][]float64, d.Rows)
	for i := range out {
		out[i] = d.Row(i)
	}
	return out
}

// Fill sets every element to v.
func (d *Dense) Fill(v float64) {
	for i := range d.Data {
		d.Data[i] = v
	}
}

// Zero resets all elements.
func (d *Dense) Zero() { d.Fill(0) }

// MatMul computes a·b.
func MatMul(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MatMulT1 computes aᵀ·b.
func MatMulT1(a, b *Dense) (*Dense, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)ᵀ · %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewDense(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MatMulT2 computes a·bᵀ.
func MatMulT2(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: %dx%d · (%dx%d)ᵀ", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var acc float64
			for k, av := range arow {
				acc += av * brow[k]
			}
			out.Data[i*out.Cols+j] = acc
		}
	}
	return out, nil
}

// Sub computes a − b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: %dx%d - %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// Hadamard computes the element-wise product a ∘ b.
func Hadamard(a, b *Dense) (*Dense, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("%w: %dx%d ∘ %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out, nil
}

// Scale multiplies every element by s, returning a new matrix.
func (d *Dense) Scale(s float64) *Dense {
	out := d.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// AddInPlace accumulates b into d.
func (d *Dense) AddInPlace(b *Dense) error {
	if d.Rows != b.Rows || d.Cols != b.Cols {
		return fmt.Errorf("%w: %dx%d += %dx%d", ErrShape, d.Rows, d.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		d.Data[i] += v
	}
	return nil
}

// AxpyInPlace computes d += alpha*b (the SGD update kernel).
func (d *Dense) AxpyInPlace(alpha float64, b *Dense) error {
	if d.Rows != b.Rows || d.Cols != b.Cols {
		return fmt.Errorf("%w: axpy %dx%d += %dx%d", ErrShape, d.Rows, d.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		d.Data[i] += alpha * v
	}
	return nil
}

// Apply returns f applied element-wise.
func (d *Dense) Apply(f func(float64) float64) *Dense {
	out := NewDense(d.Rows, d.Cols)
	for i, v := range d.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddColVector adds the column vector v (length Rows) to every column:
// the bias broadcast of W·X + b.
func (d *Dense) AddColVector(v []float64) error {
	if len(v) != d.Rows {
		return fmt.Errorf("%w: vector length %d, rows %d", ErrShape, len(v), d.Rows)
	}
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*d.Cols : (i+1)*d.Cols]
		for j := range row {
			row[j] += v[i]
		}
	}
	return nil
}

// SumCols returns the vector of row sums (length Rows): the bias gradient
// reduction of dZ across the batch.
func (d *Dense) SumCols() []float64 {
	out := make([]float64, d.Rows)
	for i := 0; i < d.Rows; i++ {
		var acc float64
		for _, v := range d.Data[i*d.Cols : (i+1)*d.Cols] {
			acc += v
		}
		out[i] = acc
	}
	return out
}

// RandInit fills d with uniform values in [-scale, scale] from rng;
// the Xavier-style initialisation used by the models.
func (d *Dense) RandInit(rng *rand.Rand, scale float64) {
	for i := range d.Data {
		d.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// ArgMaxCol returns the row index of the maximum in column j: class
// prediction from a (classes × batch) output matrix.
func (d *Dense) ArgMaxCol(j int) int {
	best, bestV := 0, math.Inf(-1)
	for i := 0; i < d.Rows; i++ {
		if v := d.At(i, j); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// String summarises the shape (never dumps contents).
func (d *Dense) String() string { return fmt.Sprintf("Dense(%dx%d)", d.Rows, d.Cols) }
