package mnist

import (
	"fmt"
	"math"
	"math/rand"

	"cryptonn/internal/tensor"
)

// Synthetic digit generation.
//
// Each class is a seven-segment digit skeleton (the unambiguous standard
// display encoding) rendered as anti-aliased strokes onto a 28×28 canvas,
// then perturbed per sample with a random affine transform (translation,
// scale, rotation, shear) and additive pixel noise. The generator is fully
// deterministic given (n, seed).
//
// This is the offline substitute for MNIST (the repo runs without network
// access, so the IDX files are optional — see the package comment): a 10-class
// 28×28 grayscale problem that a LeNet-style network learns well but not
// trivially, which is all the paper's experiments require — they compare a
// plaintext model against the same model trained through the secure steps
// on identical data.

// segment is a stroke between two points in the unit digit box.
type segment struct{ x0, y0, x1, y1 float64 }

// Seven-segment geometry in a unit box: x ∈ [0,1], y ∈ [0,1] top-down.
var segments = map[rune]segment{
	'a': {0, 0, 1, 0},     // top
	'b': {1, 0, 1, 0.5},   // top right
	'c': {1, 0.5, 1, 1},   // bottom right
	'd': {0, 1, 1, 1},     // bottom
	'e': {0, 0.5, 0, 1},   // bottom left
	'f': {0, 0, 0, 0.5},   // top left
	'g': {0, 0.5, 1, 0.5}, // middle
}

// digitSegments is the standard seven-segment encoding of 0–9.
var digitSegments = [Classes]string{
	0: "abcdef",
	1: "bc",
	2: "abged",
	3: "abgcd",
	4: "fgbc",
	5: "afgcd",
	6: "afgedc",
	7: "abc",
	8: "abcdefg",
	9: "abcfgd",
}

// renderParams is the per-sample jitter.
type renderParams struct {
	dx, dy     float64 // translation in pixels
	scale      float64
	rot        float64 // radians
	shear      float64
	thickness  float64 // stroke sigma in pixels
	noiseSigma float64
}

func randomParams(rng *rand.Rand) renderParams {
	return renderParams{
		dx:         (rng.Float64()*2 - 1) * 2.0,
		dy:         (rng.Float64()*2 - 1) * 2.0,
		scale:      0.85 + rng.Float64()*0.3,
		rot:        (rng.Float64()*2 - 1) * 0.18,
		shear:      (rng.Float64()*2 - 1) * 0.15,
		thickness:  0.8 + rng.Float64()*0.5,
		noiseSigma: 0.04,
	}
}

// distToSegment returns the distance from point (px, py) to segment s.
func distToSegment(px, py float64, s segment) float64 {
	vx, vy := s.x1-s.x0, s.y1-s.y0
	wx, wy := px-s.x0, py-s.y0
	c1 := vx*wx + vy*wy
	if c1 <= 0 {
		return math.Hypot(px-s.x0, py-s.y0)
	}
	c2 := vx*vx + vy*vy
	if c2 <= c1 {
		return math.Hypot(px-s.x1, py-s.y1)
	}
	t := c1 / c2
	return math.Hypot(px-(s.x0+t*vx), py-(s.y0+t*vy))
}

// renderDigit draws one jittered digit into a 784-length buffer.
func renderDigit(digit int, p renderParams, rng *rand.Rand, out []float64) {
	// Digit box inside the canvas: width 12px, height 18px, centered.
	const boxW, boxH = 12.0, 18.0
	cx, cy := float64(Side)/2, float64(Side)/2
	cos, sin := math.Cos(p.rot), math.Sin(p.rot)

	// Transform each segment's endpoints from unit box to canvas.
	segs := make([]segment, 0, 7)
	for _, r := range digitSegments[digit] {
		s := segments[r]
		tr := func(x, y float64) (float64, float64) {
			// unit -> centered box
			bx := (x - 0.5) * boxW * p.scale
			by := (y - 0.5) * boxH * p.scale
			// shear then rotate
			bx += p.shear * by
			rx := bx*cos - by*sin
			ry := bx*sin + by*cos
			return cx + rx + p.dx, cy + ry + p.dy
		}
		x0, y0 := tr(s.x0, s.y0)
		x1, y1 := tr(s.x1, s.y1)
		segs = append(segs, segment{x0, y0, x1, y1})
	}

	inv2s2 := 1 / (2 * p.thickness * p.thickness)
	for i := 0; i < Side; i++ {
		for j := 0; j < Side; j++ {
			px, py := float64(j), float64(i)
			var best float64
			for _, s := range segs {
				d := distToSegment(px, py, s)
				v := math.Exp(-d * d * inv2s2)
				if v > best {
					best = v
				}
			}
			v := best + rng.NormFloat64()*p.noiseSigma
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[i*Side+j] = v
		}
	}
}

// Synthetic generates n deterministic pseudo-MNIST samples from seed, with
// a balanced class distribution (shuffled).
func Synthetic(n int, seed int64) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: sample count %d", ErrFormat, n)
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Images: tensor.NewDense(Pixels, n), Labels: make([]int, n)}
	buf := make([]float64, Pixels)
	for j := 0; j < n; j++ {
		digit := j % Classes
		renderDigit(digit, randomParams(rng), rng, buf)
		for i, v := range buf {
			d.Images.Set(i, j, v)
		}
		d.Labels[j] = digit
	}
	d.Shuffle(rng)
	return d, nil
}
