package core

import (
	"fmt"
	"slices"

	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// Secure convolution (Algorithm 3) and the CryptoCNN training step
// (§III-E): the first convolutional layer's forward pass and filter
// gradient are computed over the encrypted sliding windows; everything
// downstream is the ordinary plaintext network.

// checkConvBatch verifies the encrypted batch was pre-processed for the
// model's first convolutional layer (the client must learn the padding
// strategy and filter size from the server, Algorithm 3 line 11) and that
// its ciphertext slices have the shape its header declares — the batch may
// come off a socket.
func checkConvBatch(l *nn.ConvLayer, enc *EncryptedConvBatch) error {
	if l.InC != enc.C || l.InH != enc.H || l.InW != enc.W ||
		l.K != enc.K || l.Stride != enc.Stride || l.Pad != enc.Pad ||
		l.OutH != enc.OutH || l.OutW != enc.OutW {
		return fmt.Errorf("core: conv geometry mismatch: layer %s vs batch %dx%dx%d k%d s%d p%d out %dx%d",
			l.Name(), enc.C, enc.H, enc.W, enc.K, enc.Stride, enc.Pad, enc.OutH, enc.OutW)
	}
	if len(enc.Windows) != enc.N || len(enc.Positions) != enc.N {
		return fmt.Errorf("%w: conv batch of %d samples carries %d window and %d position lists",
			securemat.ErrShape, enc.N, len(enc.Windows), len(enc.Positions))
	}
	for s := range enc.Windows {
		if len(enc.Windows[s]) != enc.NumWindows() || len(enc.Positions[s]) != enc.WindowLen() {
			return fmt.Errorf("%w: conv sample %d has %d windows and %d position rows, want %d and %d",
				securemat.ErrShape, s, len(enc.Windows[s]), len(enc.Positions[s]), enc.NumWindows(), enc.WindowLen())
		}
	}
	return checkLabels(enc.Y, enc.Classes, enc.N)
}

// secureConvForward computes the first layer's output over encrypted
// windows: Z[f][w] = ⟨filter_f, window_w⟩ + b_f for every sample
// (Algorithm 3 lines 2–8). Algorithm 3 is Algorithm 1 applied to im2col
// windows, so the whole batch is one secure matrix product: the windows of
// every sample are the columns, the filters (one key each, lines 17–20)
// the rows.
func (t *Trainer) secureConvForward(layer0 *nn.ConvLayer, enc *EncryptedConvBatch) (*tensor.Dense, error) {
	wInt, err := ClampEncode(t.cfg.Codec, layer0.W, t.cfg.MaxWeight)
	if err != nil {
		return nil, fmt.Errorf("core: encoding filters: %w", err)
	}
	numWindows := enc.NumWindows()
	windows := &securemat.EncryptedMatrix{
		Rows: enc.WindowLen(), Cols: enc.N * numWindows,
		ColCts: slices.Concat(enc.Windows...),
	}
	zInt, err := t.Engine.Dot(windows, wInt, securemat.ComputeOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: secure conv forward (cell column = sample·%d + window): %w", numWindows, err)
	}
	out := tensor.NewDense(layer0.OutSize(), enc.N)
	for f, row := range zInt {
		for col, v := range row {
			s, w := col/numWindows, col%numWindows
			out.Set(f*numWindows+w, s, t.cfg.Codec.DecodeProduct(v)+layer0.B.Data[f])
		}
	}
	return out, nil
}

// secureConvGradAccum accumulates the filter gradient dW[f][a] =
// Σ_s ⟨dZ_{s,f}, positions_{s,a}⟩ over the row-oriented window
// ciphertexts: the keys for every (sample, filter) row of dZ come from one
// request, and each sample is then one dZ_s·Xᵀ over its im2col matrix,
// summed into GradW in sample order.
func (t *Trainer) secureConvGradAccum(layer0 *nn.ConvLayer, enc *EncryptedConvBatch, dZ *tensor.Dense) error {
	numWindows, filters := enc.NumWindows(), layer0.Filters
	// Row s·filters+f is sample s's dZ over filter f's windows.
	dzInt := make([][]int64, 0, enc.N*filters)
	row := make([]float64, numWindows)
	for s := 0; s < enc.N; s++ {
		for f := 0; f < filters; f++ {
			for w := range row {
				row[w] = dZ.At(f*numWindows+w, s) * t.cfg.GradScale
			}
			vec, err := t.cfg.Codec.EncodeVec(row)
			if err != nil {
				return fmt.Errorf("core: encoding dZ (s=%d,f=%d): %w", s, f, err)
			}
			dzInt = append(dzInt, vec)
		}
	}
	keys, err := t.Engine.DotKeys(dzInt)
	if err != nil {
		return fmt.Errorf("core: secure conv gradient keys: %w", err)
	}
	for s := 0; s < enc.N; s++ {
		sample := &securemat.EncryptedMatrix{
			Rows: enc.WindowLen(), Cols: numWindows,
			ColCts: enc.Windows[s], RowCts: enc.Positions[s],
		}
		lo, hi := s*filters, (s+1)*filters
		gInt, err := t.Engine.SecureDotRows(sample, keys[lo:hi], dzInt[lo:hi], securemat.ComputeOptions{})
		if err != nil {
			return fmt.Errorf("core: secure conv gradient, sample %d: %w", s, err)
		}
		dW := denseFromInt(gInt, func(v int64) float64 {
			return t.cfg.Codec.DecodeProduct(v) / t.cfg.GradScale
		})
		if err := layer0.GradW.AddInPlace(dW); err != nil {
			return err
		}
	}
	return nil
}

// db for conv: Σ over windows and samples of dZ.
func convBiasGrad(layer0 *nn.ConvLayer, enc *EncryptedConvBatch, dZ *tensor.Dense) {
	numWindows := enc.NumWindows()
	for s := 0; s < enc.N; s++ {
		for f := 0; f < layer0.Filters; f++ {
			var acc float64
			for w := 0; w < numWindows; w++ {
				acc += dZ.At(f*numWindows+w, s)
			}
			layer0.GradB.Data[f] += acc
		}
	}
}

// TrainConvBatch runs one CryptoCNN iteration: secure convolution forward,
// plaintext middle, secure label evaluation, plaintext back-propagation to
// the first layer, secure filter gradient.
func (t *Trainer) TrainConvBatch(enc *EncryptedConvBatch, opt nn.Optimizer) (*Result, error) {
	layer0, ok := t.Model.Layers[0].(*nn.ConvLayer)
	if !ok {
		return nil, fmt.Errorf("core: first layer is %s; use TrainBatch for dense models", t.Model.Layers[0].Name())
	}
	if err := checkConvBatch(layer0, enc); err != nil {
		return nil, err
	}
	if err := t.ensureSolver(enc.N); err != nil {
		return nil, err
	}
	t.Model.ZeroGrad()

	z, err := t.secureConvForward(layer0, enc)
	if err != nil {
		return nil, err
	}
	out, err := t.Model.ForwardFrom(1, z)
	if err != nil {
		return nil, err
	}

	ebatch := &EncryptedBatch{Y: enc.Y, Classes: enc.Classes, N: enc.N}
	loss, gradOut, probs, err := t.headGradient(ebatch, out)
	if err != nil {
		return nil, err
	}

	dZ0, err := t.Model.BackwardTo(1, gradOut)
	if err != nil {
		return nil, err
	}
	if err := t.secureConvGradAccum(layer0, enc, dZ0); err != nil {
		return nil, err
	}
	convBiasGrad(layer0, enc, dZ0)

	if err := t.Model.ApplyStep(opt); err != nil {
		return nil, err
	}
	return &Result{Loss: loss, MaskedPreds: argmaxCols(probs), Output: out}, nil
}
