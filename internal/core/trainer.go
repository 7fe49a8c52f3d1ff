package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
	"cryptonn/internal/par"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// Config tunes the server-side trainer.
type Config struct {
	// Codec is the fixed-point codec; nil selects the paper's two-decimal
	// default. It must match the clients' codec.
	Codec *fixedpoint.Codec
	// MaxWeight clamps weight magnitudes entering the secure encodings so
	// results stay within the discrete-log bound. Zero selects 8.
	MaxWeight float64
	// GradScale is an extra fixed-point pre-multiplier applied to output
	// gradients before the secure dW step, preserving precision of small
	// gradients; the exact factor divides back out after decryption. Zero
	// selects 100.
	GradScale float64
}

// LogPClamp bounds −log p in the cross-entropy loss: probabilities below
// e^{−LogPClamp} are floored there before encoding.
const LogPClamp = 20

func (c *Config) fillDefaults() {
	if c.Codec == nil {
		c.Codec = fixedpoint.Default()
	}
	if c.MaxWeight == 0 {
		c.MaxWeight = 8
	}
	if c.GradScale == 0 {
		c.GradScale = 100
	}
}

// Trainer runs CryptoNN training (Algorithm 2) on the server: it owns the
// plaintext model parameters, consumes encrypted batches, and touches
// inputs and labels only through the secure compute engine.
type Trainer struct {
	Model *nn.Model
	// Engine is the secure compute session: it carries the key-service
	// connection, the resolved public keys and the discrete-log solver
	// every secure step uses. A step whose results the solver does not
	// cover replaces Engine with a view that has a larger one (see
	// ensureSolver).
	Engine *securemat.Engine
	cfg    Config
	// w0 is the dense first layer's clamp-encoded weights Predict's
	// forward product reuses, w0Keys their function keys and w0Src the W
	// contents they encode: serving asks with one W round after round
	// (servingWeights). Training steps change W on every step and keep
	// neither encoding nor keys.
	w0     [][]int64
	w0Keys []*feip.FunctionKey
	w0Src  []float64
}

// Result reports one training (or inference) step.
type Result struct {
	// Loss is the batch loss, taken from the decrypted Y − P (see
	// crossEntropy); NaN for a prediction, which has no labels.
	Loss float64
	// MaskedPreds are arg-max predictions in the label-mapped space; only
	// clients holding the LabelMap can translate them to true classes.
	MaskedPreds []int
	// Output is the model's output activation/logit matrix.
	Output *tensor.Dense
}

// NewTrainer assembles a trainer around a secure compute session. The
// engine needs no discrete-log solver: each step sizes one from the model's
// first layer, cfg and the batch, and keeps the engine's own when that one
// already covers the step.
func NewTrainer(model *nn.Model, engine *securemat.Engine, cfg Config) (*Trainer, error) {
	if model == nil || engine == nil {
		return nil, errors.New("core: nil model or engine")
	}
	cfg.fillDefaults()
	return &Trainer{Model: model, Engine: engine, cfg: cfg}, nil
}

// SolverBound returns a discrete-log bound sufficient for CryptoNN
// training with the given codec: inner products of length dim with one
// operand bounded by maxA and the other by maxB (pre-encoding magnitudes),
// with headroom for the gradient pre-multiplier. Head-room is free in
// time — a look-up costs about 2·|value|/√bound multiplications, whatever
// the bound — and costs √bound table entries of memory, so one generous
// bound serves forward and gradient alike. A product beyond the int64
// range saturates at math.MaxInt64, which dlog.NewSolver rejects with an
// error naming the bound. The trainer takes its bound from here
// (stepBound); the function is exported for the benchmark, which sizes its
// engines up front.
func SolverBound(codec *fixedpoint.Codec, dim int, maxA, maxB, gradScale float64) int64 {
	if codec == nil {
		codec = fixedpoint.Default()
	}
	if gradScale < 1 {
		gradScale = 100
	}
	f := float64(codec.Factor())
	perTerm := (maxA * f) * (maxB * f)
	b := math.Ceil(float64(dim)*perTerm*gradScale) + 1
	// float64(MaxInt64) is 2^63, the first float whose conversion is out of
	// range; the negated comparison also catches NaN.
	if !(b < math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(b)
}

// stepBound returns the FEIP dimension of the first layer's forward
// product and the discrete-log bound of one secure step: the forward
// product alone for a prediction (n = 0), and for a training step over n
// samples also the first-layer gradient, an inner product over the batch
// for a dense first layer and per sample (a bound that does not grow with
// n) for a convolutional one, the only other kind it may be.
func (t *Trainer) stepBound(n int) (int, int64) {
	c := t.cfg
	var eta, gradDim int
	switch l := t.Model.Layers[0].(type) {
	case *nn.DenseLayer:
		eta, gradDim = l.In, n
	case *nn.ConvLayer:
		eta, gradDim = l.InC*l.K*l.K, l.InC*l.InH*l.InW
	}
	bound := SolverBound(c.Codec, eta, 1, c.MaxWeight, 1)
	if n > 0 {
		bound = max(bound, SolverBound(c.Codec, gradDim, 1, c.MaxWeight, c.GradScale))
	}
	return eta, bound
}

// ensureSolver gives the engine a solver that covers stepBound(n). The
// bound only grows with n, so an engine sized up front, or one that already
// ran a step at least as large, keeps its solver and nothing is built.
// Otherwise the group comes from the first layer's FEIP public key, which
// the step fetches anyway.
func (t *Trainer) ensureSolver(n int) error {
	eta, bound := t.stepBound(n)
	if s := t.Engine.Solver(); s != nil && s.Bound() >= bound {
		return nil
	}
	mpk, err := t.Engine.FEIPPublic(eta)
	if err != nil {
		return fmt.Errorf("core: sizing the dlog solver: %w", err)
	}
	solver, err := dlog.NewSolver(mpk.Params, bound)
	if err != nil {
		return fmt.Errorf("core: sizing the dlog solver: %w", err)
	}
	// The view shares the key service, so the kept w0Keys stay valid.
	t.Engine = t.Engine.WithSolver(solver)
	return nil
}

// PredictEngine returns the trainer's engine with a solver that covers a
// prediction step, for a caller that evaluates the first layer itself (the
// service's top-k path). Later steps may replace t.Engine; the returned
// view stays valid.
func (t *Trainer) PredictEngine() (*securemat.Engine, error) {
	if err := t.ensureSolver(0); err != nil {
		return nil, err
	}
	return t.Engine, nil
}

// ClampEncode clamps every entry of m to [−limit, limit] and encodes it at
// codec's scale, one int64 row per row of m. It is the one transform a
// weight-like operand takes before it meets the secure engine: the first
// layer's weights (dense or convolutional) and dZ before the gradient
// product in the trainer, the top-k serving matrix in internal/service.
// Rows are independent, so they encode on every core: a top-k head is
// millions of weights (512 × 10 000 in the benchmark's serve_topk).
func ClampEncode(codec *fixedpoint.Codec, m *tensor.Dense, limit float64) ([][]int64, error) {
	out := make([][]int64, m.Rows)
	err := par.ForEachChunk(m.Rows, 1, 0, par.NoScratch, func(i, _ int, _ struct{}) error {
		row := make([]int64, m.Cols)
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			x, err := codec.Encode(min(max(v, -limit), limit))
			if err != nil {
				return fmt.Errorf("row %d: index %d: %w", i, j, err)
			}
			row[j] = x
		}
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forwardWeights returns ClampEncode(W) at MaxWeight for the dense first
// layer's forward product, with the function keys of its rows.
func (t *Trainer) forwardWeights(w *tensor.Dense) ([][]int64, []*feip.FunctionKey, error) {
	wInt, err := ClampEncode(t.cfg.Codec, w, t.cfg.MaxWeight)
	if err != nil {
		return nil, nil, fmt.Errorf("core: encoding W: %w", err)
	}
	keys, err := t.Engine.DotKeys(wInt)
	if err != nil {
		return nil, nil, fmt.Errorf("core: secure feed-forward keys: %w", err)
	}
	return wInt, keys, nil
}

// servingWeights is forwardWeights for Predict, encoding and deriving only
// when W's contents differ from those the kept encoding and keys were built
// from. An exact comparison of W costs microseconds against the
// milliseconds of the product, so every serving round after the first
// skips the encoding, its allocations and the key request, and an in-place
// edit of W is seen like a new matrix. The returned rows and keys are the
// trainer's: read-only.
func (t *Trainer) servingWeights(w *tensor.Dense) ([][]int64, []*feip.FunctionKey, error) {
	if len(t.w0) == w.Rows && slices.Equal(t.w0Src, w.Data) {
		return t.w0, t.w0Keys, nil
	}
	wInt, keys, err := t.forwardWeights(w)
	if err != nil {
		return nil, nil, err
	}
	t.w0, t.w0Keys, t.w0Src = wInt, keys, append(t.w0Src[:0], w.Data...)
	return wInt, keys, nil
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

// secureFeedForward runs the dense first layer over ciphertexts:
// Z = decode(f(Wf·Xf)) + b, with wInt W's clamp-encoding and keys its rows'
// function keys.
func (t *Trainer) secureFeedForward(layer0 *nn.DenseLayer, wInt [][]int64, keys []*feip.FunctionKey, enc *EncryptedBatch) (*tensor.Dense, error) {
	zInt, err := t.Engine.SecureDot(enc.X, keys, wInt, securemat.ComputeOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: secure feed-forward: %w", err)
	}
	z := denseFromInt(zInt, t.cfg.Codec.DecodeProduct)
	if err := z.AddColVector(layer0.B.Data); err != nil {
		return nil, err
	}
	return z, nil
}

// secureOutputDiff computes P − Y over the encrypted label matrix via
// element-wise FEBO subtraction: the scheme yields Y − P, which is negated
// after decoding. Adding P's encoding back gives Y's, returned as well.
func (t *Trainer) secureOutputDiff(enc *EncryptedBatch, p *tensor.Dense) (*tensor.Dense, [][]int64, error) {
	pInt, err := t.cfg.Codec.EncodeMat(p.Rows2D())
	if err != nil {
		return nil, nil, fmt.Errorf("core: encoding P: %w", err)
	}
	diffInt, err := t.Engine.Elementwise(enc.Y, febo.OpSub, pInt, securemat.ComputeOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("core: secure evaluation: %w", err)
	}
	for i, row := range diffInt {
		for j, v := range row {
			pInt[i][j] += v // Y's encoding from here on
		}
	}
	// diffInt = Y − P at base scale; negate to get P − Y.
	return denseFromInt(diffInt, func(v int64) float64 { return -t.cfg.Codec.Decode(v) }), pInt, nil
}

// crossEntropy computes L = −(1/m)Σ_j DecodeProduct(⟨y_j, encode(log p_j)⟩),
// the value §III-E2 evaluates under FEIP over column-encrypted labels, from
// Y's encoding, which secureOutputDiff recovers from the decrypted Y − P.
func (t *Trainer) crossEntropy(yInt [][]int64, p *tensor.Dense) (float64, error) {
	floor := math.Exp(-LogPClamp)
	logP := p.Apply(func(v float64) float64 { return math.Log(math.Max(v, floor)) })
	logPInt, err := t.cfg.Codec.EncodeMat(logP.Rows2D())
	if err != nil {
		return 0, fmt.Errorf("core: encoding log p: %w", err)
	}
	var total float64
	for j := 0; j < p.Cols; j++ {
		var ip int64
		for i, row := range yInt {
			ip += row[j] * logPInt[i][j]
		}
		total += t.cfg.Codec.DecodeProduct(ip)
	}
	return -total / float64(p.Cols), nil
}

// secureFirstLayerGrad computes dW = dZ·Xᵀ over the row-oriented
// ciphertexts and accumulates it (plus the plaintext bias gradient) into
// layer0.
func (t *Trainer) secureFirstLayerGrad(layer0 *nn.DenseLayer, enc *EncryptedBatch, dZ *tensor.Dense) error {
	scaled := dZ.Scale(t.cfg.GradScale)
	dzInt, err := ClampEncode(t.cfg.Codec, scaled, t.cfg.MaxWeight*t.cfg.GradScale)
	if err != nil {
		return fmt.Errorf("core: encoding dZ: %w", err)
	}
	keys, err := t.Engine.DotKeys(dzInt)
	if err != nil {
		return fmt.Errorf("core: secure gradient keys: %w", err)
	}
	gInt, err := t.Engine.SecureDotRows(enc.X, keys, dzInt, securemat.ComputeOptions{})
	if err != nil {
		return fmt.Errorf("core: secure gradient: %w", err)
	}
	dW := denseFromInt(gInt, func(v int64) float64 {
		return t.cfg.Codec.DecodeProduct(v) / t.cfg.GradScale
	})
	if err := layer0.GradW.AddInPlace(dW); err != nil {
		return err
	}
	for i, v := range dZ.SumCols() {
		layer0.GradB.Data[i] += v
	}
	return nil
}

// headGradient turns model output and the securely computed P − Y into
// (loss, gradient at the model output). It dispatches on the model's loss.
func (t *Trainer) headGradient(enc *EncryptedBatch, out *tensor.Dense) (float64, *tensor.Dense, *tensor.Dense, error) {
	m := float64(enc.N)
	switch t.Model.Loss.(type) {
	case nn.SoftmaxCrossEntropy:
		p := nn.Softmax(out)
		diff, yInt, err := t.secureOutputDiff(enc, p) // P − Y
		if err != nil {
			return 0, nil, nil, err
		}
		loss, err := t.crossEntropy(yInt, p)
		if err != nil {
			return 0, nil, nil, err
		}
		return loss, diff.Scale(1 / m), p, nil
	case nn.MSE:
		diff, _, err := t.secureOutputDiff(enc, out) // Ŷ − Y
		if err != nil {
			return 0, nil, nil, err
		}
		var loss float64
		for _, v := range diff.Data {
			loss += v * v
		}
		return loss / (2 * m), diff.Scale(1 / m), out, nil
	default:
		return 0, nil, nil, fmt.Errorf("core: unsupported loss %q for secure evaluation", t.Model.Loss.Name())
	}
}

// checkDenseBatch is checkConvBatch's twin for a dense first layer: X must
// hold the layer's inputs for N samples with its row ciphertexts, and Y's
// elements must cover classes × N. It runs before any key is requested —
// the batch may come off a socket, and a short Y would otherwise surface
// only after the secure forward product and the plaintext pass.
func checkDenseBatch(l *nn.DenseLayer, enc *EncryptedBatch) error {
	if enc.Features != l.In {
		return fmt.Errorf("core: batch has %d features, layer expects %d", enc.Features, l.In)
	}
	if x := enc.X; x == nil || x.Rows != l.In || x.Cols != enc.N || len(x.RowCts) != x.Rows {
		return fmt.Errorf("%w: batch inputs are not %d features × %d samples with row ciphertexts", securemat.ErrShape, l.In, enc.N)
	}
	return checkLabels(enc.Y, enc.Classes, enc.N)
}

// checkLabels verifies that the label matrix's FEBO elements cover
// classes × n.
func checkLabels(y *securemat.EncryptedMatrix, classes, n int) error {
	if y == nil || y.Rows != classes || y.Cols != n || len(y.Elems) != classes ||
		slices.ContainsFunc(y.Elems, func(row []*febo.Ciphertext) bool { return len(row) != n }) {
		return fmt.Errorf("%w: batch labels do not cover %d classes × %d samples", securemat.ErrShape, classes, n)
	}
	return nil
}

// TrainBatch runs one CryptoNN iteration (Algorithm 2) on an encrypted
// batch for a model whose first layer is fully connected.
func (t *Trainer) TrainBatch(enc *EncryptedBatch, opt nn.Optimizer) (*Result, error) {
	layer0, ok := t.Model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return nil, fmt.Errorf("core: first layer is %s; use TrainConvBatch for convolutional models", t.Model.Layers[0].Name())
	}
	if err := checkDenseBatch(layer0, enc); err != nil {
		return nil, err
	}
	if err := t.ensureSolver(enc.N); err != nil {
		return nil, err
	}
	t.Model.ZeroGrad()

	// Lines 4–5: secure feed-forward, then line 6: normal feed-forward.
	// The step changes W, so neither its encoding nor its keys are kept
	// for the next one.
	wInt, keys, err := t.forwardWeights(layer0.W)
	if err != nil {
		return nil, err
	}
	z, err := t.secureFeedForward(layer0, wInt, keys, enc)
	if err != nil {
		return nil, err
	}
	out, err := t.Model.ForwardFrom(1, z)
	if err != nil {
		return nil, err
	}

	// Lines 7–9: secure back-propagation / evaluation.
	loss, gradOut, probs, err := t.headGradient(enc, out)
	if err != nil {
		return nil, err
	}

	// Line 10: normal back-propagation down to layer 1 ...
	dZ0, err := t.Model.BackwardTo(1, gradOut)
	if err != nil {
		return nil, err
	}
	// ... plus the secure first-layer gradient dZ·Xᵀ over X's row
	// encryption, which Algorithm 2 leaves unspecified (package comment).
	if err := t.secureFirstLayerGrad(layer0, enc, dZ0); err != nil {
		return nil, err
	}

	// Line 11: parameter update.
	if err := t.Model.ApplyStep(opt); err != nil {
		return nil, err
	}
	return &Result{Loss: loss, MaskedPreds: argmaxCols(probs), Output: out}, nil
}

// Predict runs only the secure feed-forward plus the normal forward pass:
// FE-based prediction over encrypted input (§III-D "Prediction").
func (t *Trainer) Predict(enc *EncryptedBatch) (*Result, error) {
	layer0, ok := t.Model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return nil, fmt.Errorf("core: first layer is %s; FE prediction needs a dense first layer", t.Model.Layers[0].Name())
	}
	if enc == nil || enc.X == nil {
		return nil, fmt.Errorf("%w: empty prediction batch", securemat.ErrShape)
	}
	if enc.Features != layer0.In {
		return nil, fmt.Errorf("core: batch has %d features, layer expects %d", enc.Features, layer0.In)
	}
	if err := t.ensureSolver(0); err != nil {
		return nil, err
	}
	wInt, keys, err := t.servingWeights(layer0.W)
	if err != nil {
		return nil, err
	}
	z, err := t.secureFeedForward(layer0, wInt, keys, enc)
	if err != nil {
		return nil, err
	}
	out, err := t.Model.ForwardFrom(1, z)
	if err != nil {
		return nil, err
	}
	return &Result{Loss: math.NaN(), MaskedPreds: argmaxCols(out), Output: out}, nil
}

func argmaxCols(m *tensor.Dense) []int {
	preds := make([]int, m.Cols)
	for j := 0; j < m.Cols; j++ {
		preds[j] = m.ArgMaxCol(j)
	}
	return preds
}
