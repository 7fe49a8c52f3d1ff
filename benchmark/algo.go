package main

import (
	"fmt"

	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
	"cryptonn/internal/tensor"
)

// Algorithm 2 and Algorithm 3 written against the three secure results a
// training step needs, in the order core.Trainer asks for them. The same
// skeleton runs twice:
//
//   - with plainOps it is the plaintext fixed-point twin, the oracle a real
//     TrainBatch must match weight for weight;
//   - with engineOps (shadow.go) it is the shadow step: the public
//     securemat/feip calls TrainBatch makes, each under its own span.
//
// The float arithmetic around the secure results repeats core.Trainer's
// expression by expression, so equal integers give bit-equal weights.

// stepConfig is the part of core.Config the skeleton needs.
type stepConfig struct {
	codec     *fixedpoint.Codec
	maxWeight float64
	gradScale float64
}

func (c stepConfig) core() core.Config {
	return core.Config{Codec: c.codec, MaxWeight: c.maxWeight, GradScale: c.gradScale}
}

// secureOps is what a dense-first-layer step asks of the secure engine.
type secureOps interface {
	dot(sc *scope, w [][]int64) ([][]int64, error)     // W·X
	sub(sc *scope, p [][]int64) ([][]int64, error)     // Y − P
	dotRows(sc *scope, d [][]int64) ([][]int64, error) // dZ·Xᵀ
}

// convOps is what a convolutional-first-layer step asks of it.
type convOps interface {
	// conv returns z[s][f][w] = ⟨filter_f, window_{s,w}⟩.
	conv(sc *scope, w [][]int64) ([][][]int64, error)
	sub(sc *scope, p [][]int64) ([][]int64, error)
	// convGrad returns g[s][f][a] = ⟨vecs[s][f], position_{s,a}⟩.
	convGrad(sc *scope, vecs [][][]int64) ([][][]int64, error)
}

func clampEncode(codec *fixedpoint.Codec, m *tensor.Dense, limit float64) ([][]int64, error) {
	clamped := m.Apply(func(v float64) float64 {
		if v > limit {
			return limit
		}
		if v < -limit {
			return -limit
		}
		return v
	})
	return codec.EncodeMat(clamped.Rows2D())
}

func denseFromInt(m [][]int64, decode func(int64) float64) *tensor.Dense {
	out := tensor.NewDense(len(m), len(m[0]))
	for i, row := range m {
		for j, v := range row {
			out.Set(i, j, decode(v))
		}
	}
	return out
}

// timed runs fn under a child span of sc.
func timed(sc *scope, name string, fn func() error) error {
	c := sc.child(name)
	err := fn()
	c.end()
	return err
}

// softmaxHead is core.Trainer.headGradient for the softmax head without the
// optional secure loss: the gradient at the model output from P − Y.
func softmaxHead(sc *scope, cfg stepConfig, n int, out *tensor.Dense, sub func(*scope, [][]int64) ([][]int64, error)) (*tensor.Dense, error) {
	var pInt [][]int64
	err := timed(sc, "core.encode_p", func() (err error) {
		pInt, err = cfg.codec.EncodeMat(nn.Softmax(out).Rows2D())
		return err
	})
	if err != nil {
		return nil, err
	}
	diffInt, err := sub(sc, pInt)
	if err != nil {
		return nil, err
	}
	diff := denseFromInt(diffInt, func(v int64) float64 { return -cfg.codec.Decode(v) })
	return diff.Scale(1 / float64(n)), nil
}

// mlpStep is one iteration of Algorithm 2 on model for a batch of n samples.
func mlpStep(sc *scope, model *nn.Model, ops secureOps, n int, opt nn.Optimizer, cfg stepConfig) error {
	layer0, ok := model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return fmt.Errorf("first layer is %s, not dense", model.Layers[0].Name())
	}
	model.ZeroGrad()

	var wInt [][]int64
	err := timed(sc, "core.encode_w", func() (err error) {
		wInt, err = clampEncode(cfg.codec, layer0.W, cfg.maxWeight)
		return err
	})
	if err != nil {
		return err
	}
	zInt, err := ops.dot(sc, wInt)
	if err != nil {
		return err
	}
	var out *tensor.Dense
	err = timed(sc, "nn.forward", func() (err error) {
		z := denseFromInt(zInt, cfg.codec.DecodeProduct)
		if err = z.AddColVector(layer0.B.Data); err != nil {
			return err
		}
		out, err = model.ForwardFrom(1, z)
		return err
	})
	if err != nil {
		return err
	}

	gradOut, err := softmaxHead(sc, cfg, n, out, ops.sub)
	if err != nil {
		return err
	}

	var dZ *tensor.Dense
	var dzInt [][]int64
	err = timed(sc, "nn.backward", func() (err error) {
		dZ, err = model.BackwardTo(1, gradOut)
		return err
	})
	if err != nil {
		return err
	}
	err = timed(sc, "core.encode_dz", func() (err error) {
		dzInt, err = clampEncode(cfg.codec, dZ.Scale(cfg.gradScale), cfg.maxWeight*cfg.gradScale)
		return err
	})
	if err != nil {
		return err
	}
	gInt, err := ops.dotRows(sc, dzInt)
	if err != nil {
		return err
	}
	return timed(sc, "nn.apply_step", func() error {
		dW := denseFromInt(gInt, func(v int64) float64 { return cfg.codec.DecodeProduct(v) / cfg.gradScale })
		if err := layer0.GradW.AddInPlace(dW); err != nil {
			return err
		}
		for i, v := range dZ.SumCols() {
			layer0.GradB.Data[i] += v
		}
		return model.ApplyStep(opt)
	})
}

// convStep is one CryptoCNN iteration (Algorithm 3 forward, secure label
// evaluation, secure filter gradient) on model for a batch of n samples.
func convStep(sc *scope, model *nn.Model, ops convOps, n int, opt nn.Optimizer, cfg stepConfig) error {
	layer0, ok := model.Layers[0].(*nn.ConvLayer)
	if !ok {
		return fmt.Errorf("first layer is %s, not convolutional", model.Layers[0].Name())
	}
	numWindows := layer0.OutH * layer0.OutW
	windowLen := layer0.InC * layer0.K * layer0.K
	model.ZeroGrad()

	var wInt [][]int64
	err := timed(sc, "core.encode_w", func() (err error) {
		wInt, err = clampEncode(cfg.codec, layer0.W, cfg.maxWeight)
		return err
	})
	if err != nil {
		return err
	}
	cells, err := ops.conv(sc, wInt)
	if err != nil {
		return err
	}
	var out *tensor.Dense
	err = timed(sc, "nn.forward", func() (err error) {
		z := tensor.NewDense(layer0.OutSize(), n)
		for s := 0; s < n; s++ {
			for f := 0; f < layer0.Filters; f++ {
				for w := 0; w < numWindows; w++ {
					z.Set(f*numWindows+w, s, cfg.codec.DecodeProduct(cells[s][f][w])+layer0.B.Data[f])
				}
			}
		}
		out, err = model.ForwardFrom(1, z)
		return err
	})
	if err != nil {
		return err
	}

	gradOut, err := softmaxHead(sc, cfg, n, out, ops.sub)
	if err != nil {
		return err
	}

	var dZ *tensor.Dense
	err = timed(sc, "nn.backward", func() (err error) {
		dZ, err = model.BackwardTo(1, gradOut)
		return err
	})
	if err != nil {
		return err
	}
	vecs := make([][][]int64, n)
	err = timed(sc, "core.encode_dz", func() error {
		for s := 0; s < n; s++ {
			vecs[s] = make([][]int64, layer0.Filters)
			for f := 0; f < layer0.Filters; f++ {
				row := make([]float64, numWindows)
				for w := 0; w < numWindows; w++ {
					row[w] = dZ.At(f*numWindows+w, s) * cfg.gradScale
				}
				vec, err := cfg.codec.EncodeVec(row)
				if err != nil {
					return err
				}
				vecs[s][f] = vec
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	grads, err := ops.convGrad(sc, vecs)
	if err != nil {
		return err
	}
	return timed(sc, "nn.apply_step", func() error {
		for s := 0; s < n; s++ {
			scratch := tensor.NewDense(layer0.Filters, windowLen)
			for f := 0; f < layer0.Filters; f++ {
				for a := 0; a < windowLen; a++ {
					scratch.Set(f, a, cfg.codec.DecodeProduct(grads[s][f][a])/cfg.gradScale)
				}
			}
			if err := layer0.GradW.AddInPlace(scratch); err != nil {
				return err
			}
		}
		for s := 0; s < n; s++ {
			for f := 0; f < layer0.Filters; f++ {
				var acc float64
				for w := 0; w < numWindows; w++ {
					acc += dZ.At(f*numWindows+w, s)
				}
				layer0.GradB.Data[f] += acc
			}
		}
		return model.ApplyStep(opt)
	})
}

// plainOps answers the secure results from the plaintext integers: the
// oracle side of the skeleton. For a dense batch x is features×n and y is
// classes×n; for a convolutional batch windows[s] is the encoded im2col
// matrix of sample s (windowLen × numWindows).
type plainOps struct {
	x, y    [][]int64
	windows [][][]int64
}

func (p plainOps) dot(_ *scope, w [][]int64) ([][]int64, error) { return matMulInt(w, p.x), nil }
func (p plainOps) sub(_ *scope, q [][]int64) ([][]int64, error) { return subInt(p.y, q), nil }
func (p plainOps) dotRows(_ *scope, d [][]int64) ([][]int64, error) {
	return matMulT2Int(d, p.x), nil
}

func (p plainOps) conv(_ *scope, w [][]int64) ([][][]int64, error) {
	out := make([][][]int64, len(p.windows))
	for s, col := range p.windows {
		out[s] = matMulInt(w, col) // filters × numWindows
	}
	return out, nil
}

func (p plainOps) convGrad(_ *scope, vecs [][][]int64) ([][][]int64, error) {
	out := make([][][]int64, len(p.windows))
	for s, col := range p.windows {
		out[s] = matMulT2Int(vecs[s], col) // filters × windowLen
	}
	return out, nil
}
