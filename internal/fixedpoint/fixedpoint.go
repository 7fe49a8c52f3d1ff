// Package fixedpoint converts between float64 model values and the signed
// integers the functional encryption layer operates on.
//
// The paper (§IV-B3): "since the underlying functional encryption does not
// support floating point number computation ... we only keep two-decimal
// places approximately and then transfer the floating point number to the
// integer". A codec keeping 2 digits (factor 100) reproduces that setting.
//
// Products of two scaled values carry the square of the factor; Codec
// tracks that so secure dot-products (scale f²) and element-wise sums
// (scale f) can both be decoded correctly. Encoding saturates neither
// silently nor by panicking: out-of-range values return errors, which the
// training loop surfaces as fixed-point overflow.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

// DefaultDigits is the paper's "two-decimal places" precision.
const DefaultDigits = 2

// ErrOverflow reports a value that cannot be represented within the codec's
// integer range.
var ErrOverflow = errors.New("fixedpoint: value out of range")

// Codec scales floats by 10^digits into int64 and back.
type Codec struct {
	factor int64
	// maxAbs bounds |encoded| to keep products of two encoded values well
	// inside int64 (and inside discrete-log solver ranges).
	maxAbs int64
}

// New creates a codec keeping the given number of decimal digits. Digits
// must be in [0, 9]; beyond that, products of encoded values overflow
// int64 for realistic magnitudes.
func New(digits int) (*Codec, error) {
	if digits < 0 || digits > 9 {
		return nil, fmt.Errorf("fixedpoint: digits must be in [0,9], got %d", digits)
	}
	factor := int64(1)
	for i := 0; i < digits; i++ {
		factor *= 10
	}
	return &Codec{
		factor: factor,
		maxAbs: int64(1) << 30, // |a·b| ≤ 2^60 < int64 max
	}, nil
}

// Default returns the paper's two-decimal codec.
func Default() *Codec {
	c, err := New(DefaultDigits)
	if err != nil {
		panic(err) // unreachable: constant argument is valid
	}
	return c
}

// Factor returns the scale factor 10^digits.
func (c *Codec) Factor() int64 { return c.factor }

// Encode maps v to round(v·factor). It fails on NaN, ±Inf and magnitudes
// that would overflow the safe range.
func (c *Codec) Encode(v float64) (int64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: %v", ErrOverflow, v)
	}
	scaled := math.Round(v * float64(c.factor))
	if scaled > float64(c.maxAbs) || scaled < -float64(c.maxAbs) {
		return 0, fmt.Errorf("%w: %v at scale %d", ErrOverflow, v, c.factor)
	}
	return int64(scaled), nil
}

// Decode maps an encoded integer back to a float at the base scale.
func (c *Codec) Decode(x int64) float64 { return float64(x) / float64(c.factor) }

// DecodeProduct decodes a value carrying the square scale, i.e. the result
// of multiplying (or inner-producting) two encoded operands.
func (c *Codec) DecodeProduct(x int64) float64 {
	return float64(x) / float64(c.factor) / float64(c.factor)
}

// EncodeVec encodes a float vector.
func (c *Codec) EncodeVec(v []float64) ([]int64, error) {
	out := make([]int64, len(v))
	for i, f := range v {
		x, err := c.Encode(f)
		if err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
		out[i] = x
	}
	return out, nil
}

// EncodeMat encodes a float matrix.
func (c *Codec) EncodeMat(m [][]float64) ([][]int64, error) {
	out := make([][]int64, len(m))
	for i, row := range m {
		enc, err := c.EncodeVec(row)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = enc
	}
	return out, nil
}
