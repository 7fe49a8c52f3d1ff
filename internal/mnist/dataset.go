// Package mnist supplies the image-classification workload of the paper's
// evaluation (§IV-B3: LeNet-5 / CryptoCNN on MNIST).
//
// Two sources are supported:
//
//   - the real MNIST IDX files (idx.go) when present on disk — the exact
//     dataset the paper trains on;
//   - a deterministic synthetic digit generator (synthetic.go) used when
//     the dataset is unavailable (this reproduction runs offline). The
//     generator renders seven-segment digit skeletons with per-sample
//     affine jitter and pixel noise, giving a 10-class 28×28 problem with
//     the same interface and the same role in the experiments: both the
//     plaintext baseline and CryptoCNN train on identical data, so the
//     accuracy-parity and overhead measurements are preserved — they
//     compare the two twins with each other, never with the paper's
//     absolute MNIST accuracy.
package mnist

import (
	"errors"
	"fmt"
	"math/rand"

	"cryptonn/internal/nn"
	"cryptonn/internal/tensor"
)

// Side and Classes mirror the MNIST geometry.
const (
	Side    = 28
	Pixels  = Side * Side
	Classes = 10
)

// ErrFormat reports a malformed IDX file or inconsistent dataset.
var ErrFormat = errors.New("mnist: invalid format")

// Dataset is a set of 28×28 grayscale images with integer labels. Images
// are stored as a (784 × N) matrix with one flattened image per column,
// pixel values in [0, 1] — the orientation the network and the secure
// matrix encryption both consume.
type Dataset struct {
	Images *tensor.Dense
	Labels []int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Labels) }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.Images == nil || d.Images.Rows != Pixels {
		return fmt.Errorf("%w: images must have %d rows", ErrFormat, Pixels)
	}
	if d.Images.Cols != len(d.Labels) {
		return fmt.Errorf("%w: %d images, %d labels", ErrFormat, d.Images.Cols, len(d.Labels))
	}
	for i, l := range d.Labels {
		if l < 0 || l >= Classes {
			return fmt.Errorf("%w: label %d at index %d", ErrFormat, l, i)
		}
	}
	return nil
}

// OneHot returns the (Classes × N) one-hot label matrix.
func (d *Dataset) OneHot() *tensor.Dense {
	y := tensor.NewDense(Classes, d.N())
	for j, l := range d.Labels {
		y.Set(l, j, 1)
	}
	return y
}

// Batch returns the half-open sample range [from, to) as an image matrix
// and one-hot label matrix.
func (d *Dataset) Batch(from, to int) (*tensor.Dense, *tensor.Dense, error) {
	if from < 0 || to > d.N() || from >= to {
		return nil, nil, fmt.Errorf("%w: batch [%d,%d) of %d samples", ErrFormat, from, to, d.N())
	}
	n := to - from
	x := tensor.NewDense(Pixels, n)
	y := tensor.NewDense(Classes, n)
	for j := 0; j < n; j++ {
		for i := 0; i < Pixels; i++ {
			x.Set(i, j, d.Images.At(i, from+j))
		}
		y.Set(d.Labels[from+j], j, 1)
	}
	return x, y, nil
}

// Shuffle permutes samples in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(d.N(), func(a, b int) {
		d.Labels[a], d.Labels[b] = d.Labels[b], d.Labels[a]
		for i := 0; i < Pixels; i++ {
			va, vb := d.Images.At(i, a), d.Images.At(i, b)
			d.Images.Set(i, a, vb)
			d.Images.Set(i, b, va)
		}
	})
}

// Subset returns the first n samples as a shallow-copied dataset.
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n <= 0 || n > d.N() {
		return nil, fmt.Errorf("%w: subset of %d from %d samples", ErrFormat, n, d.N())
	}
	x := tensor.NewDense(Pixels, n)
	labels := make([]int, n)
	for j := 0; j < n; j++ {
		labels[j] = d.Labels[j]
		for i := 0; i < Pixels; i++ {
			x.Set(i, j, d.Images.At(i, j))
		}
	}
	return &Dataset{Images: x, Labels: labels}, nil
}

// PoolColumns average-pools every column of x, read as a flattened
// side×side image, by factor f: the image is cut into f×f blocks and each
// becomes their mean. It is how the experiments and clients shrink the
// 28×28 geometry (side Side) to fewer features; f ≤ 1 returns x itself.
func PoolColumns(x *tensor.Dense, side, f int) *tensor.Dense {
	if f <= 1 {
		return x
	}
	out := side / f
	pooled := tensor.NewDense(out*out, x.Cols)
	inv := 1 / float64(f*f)
	for c := 0; c < x.Cols; c++ {
		for oy := 0; oy < out; oy++ {
			for ox := 0; ox < out; ox++ {
				var sum float64
				for dy := 0; dy < f; dy++ {
					for dx := 0; dx < f; dx++ {
						sum += x.At((oy*f+dy)*side+(ox*f+dx), c)
					}
				}
				pooled.Set(oy*out+ox, c, sum*inv)
			}
		}
	}
	return pooled
}

// Compile-time guard: dataset geometry matches the network builders.
var _ = [1]struct{}{}[Pixels-nn.MNISTInputSize]
