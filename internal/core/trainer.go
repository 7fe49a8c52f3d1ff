package core

import (
	"errors"
	"fmt"
	"math"

	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
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
	// ComputeLoss enables the secure cross-entropy evaluation
	// L = −⟨y, log p⟩ via FEIP (one key per sample per batch). When false,
	// the softmax-head loss is reported as NaN; the MSE head always
	// reports a loss (its value falls out of the secure gradient).
	ComputeLoss bool
}

// LogPClamp bounds −log p in the secure loss computation: probabilities
// below e^{−LogPClamp} are floored there before encoding.
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
	// connection, the resolved public keys, the dot-key cache and the
	// discrete-log solver every secure step uses.
	Engine *securemat.Engine
	cfg    Config
}

// Result reports one training (or inference) step.
type Result struct {
	// Loss is the batch loss (NaN when not computed; see
	// Config.ComputeLoss).
	Loss float64
	// MaskedPreds are arg-max predictions in the label-mapped space; only
	// clients holding the LabelMap can translate them to true classes.
	MaskedPreds []int
	// Output is the model's output activation/logit matrix.
	Output *tensor.Dense
}

// NewTrainer assembles a trainer around a secure compute session. The
// engine must carry a discrete-log solver whose bound dominates every
// secure result; SolverBound helps pick one.
func NewTrainer(model *nn.Model, engine *securemat.Engine, cfg Config) (*Trainer, error) {
	if model == nil || engine == nil {
		return nil, errors.New("core: nil model or engine")
	}
	if engine.Solver() == nil {
		return nil, errors.New("core: engine has no dlog solver")
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
// error naming the bound.
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

// clampEncode encodes a float matrix with magnitude clamping at limit.
func (t *Trainer) clampEncode(m *tensor.Dense, limit float64) ([][]int64, error) {
	clamped := m.Apply(func(v float64) float64 {
		if v > limit {
			return limit
		}
		if v < -limit {
			return -limit
		}
		return v
	})
	return t.cfg.Codec.EncodeMat(clamped.Rows2D())
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
// Z = decode(f(Wf·Xf)) + b.
func (t *Trainer) secureFeedForward(layer0 *nn.DenseLayer, enc *EncryptedBatch) (*tensor.Dense, error) {
	wInt, err := t.clampEncode(layer0.W, t.cfg.MaxWeight)
	if err != nil {
		return nil, fmt.Errorf("core: encoding W: %w", err)
	}
	zInt, err := t.Engine.Dot(enc.X, wInt, securemat.ComputeOptions{})
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
// after decoding.
func (t *Trainer) secureOutputDiff(enc *EncryptedBatch, p *tensor.Dense) (*tensor.Dense, error) {
	pInt, err := t.cfg.Codec.EncodeMat(p.Rows2D())
	if err != nil {
		return nil, fmt.Errorf("core: encoding P: %w", err)
	}
	diffInt, err := t.Engine.Elementwise(enc.Y, securemat.ElementwiseSub, pInt, securemat.ComputeOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: secure evaluation: %w", err)
	}
	// diffInt = Y − P at base scale; negate to get P − Y.
	return denseFromInt(diffInt, func(v int64) float64 { return -t.cfg.Codec.Decode(v) }), nil
}

// secureCrossEntropy computes L = −(1/m)Σ_j ⟨y_j, log p_j⟩ via FEIP over
// the encrypted label columns (§III-E2): the keys for every sample's log p
// come from one request, and sample j is then a 1×1 secure product of its
// log-p row with its label column.
func (t *Trainer) secureCrossEntropy(enc *EncryptedBatch, p *tensor.Dense) (float64, error) {
	if len(enc.Y.ColCts) != enc.N {
		return 0, fmt.Errorf("%w: %d label columns for %d samples", securemat.ErrShape, len(enc.Y.ColCts), enc.N)
	}
	floor := math.Exp(-LogPClamp)
	logP := p.Apply(func(v float64) float64 { return math.Log(math.Max(v, floor)) })
	logPInt, err := t.cfg.Codec.EncodeMat(logP.Transpose().Rows2D())
	if err != nil {
		return 0, fmt.Errorf("core: encoding log p: %w", err)
	}
	keys, err := t.Engine.DotKeysUncached(logPInt)
	if err != nil {
		return 0, fmt.Errorf("core: secure loss keys: %w", err)
	}
	var total float64
	for j := 0; j < enc.N; j++ {
		label := &securemat.EncryptedMatrix{Rows: enc.Classes, Cols: 1, ColCts: enc.Y.ColCts[j : j+1]}
		ip, err := t.Engine.SecureDot(label, keys[j:j+1], logPInt[j:j+1], securemat.ComputeOptions{})
		if err != nil {
			return 0, fmt.Errorf("core: secure loss, sample %d: %w", j, err)
		}
		total += t.cfg.Codec.DecodeProduct(ip[0][0])
	}
	return -total / float64(enc.N), nil
}

// secureFirstLayerGrad computes dW = dZ·Xᵀ over the row-oriented
// ciphertexts and accumulates it (plus the plaintext bias gradient) into
// layer0.
func (t *Trainer) secureFirstLayerGrad(layer0 *nn.DenseLayer, enc *EncryptedBatch, dZ *tensor.Dense) error {
	scaled := dZ.Scale(t.cfg.GradScale)
	dzInt, err := t.clampEncode(scaled, t.cfg.MaxWeight*t.cfg.GradScale)
	if err != nil {
		return fmt.Errorf("core: encoding dZ: %w", err)
	}
	// dZ is unique per batch by construction — derive its keys outside the
	// session cache so gradient traffic cannot evict a serving model's W.
	keys, err := t.Engine.DotKeysUncached(dzInt)
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
		diff, err := t.secureOutputDiff(enc, p) // P − Y
		if err != nil {
			return 0, nil, nil, err
		}
		loss := math.NaN()
		if t.cfg.ComputeLoss {
			loss, err = t.secureCrossEntropy(enc, p)
			if err != nil {
				return 0, nil, nil, err
			}
		}
		return loss, diff.Scale(1 / m), p, nil
	case nn.MSE:
		diff, err := t.secureOutputDiff(enc, out) // Ŷ − Y
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

// TrainBatch runs one CryptoNN iteration (Algorithm 2) on an encrypted
// batch for a model whose first layer is fully connected.
func (t *Trainer) TrainBatch(enc *EncryptedBatch, opt nn.Optimizer) (*Result, error) {
	layer0, ok := t.Model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return nil, fmt.Errorf("core: first layer is %s; use TrainConvBatch for convolutional models", t.Model.Layers[0].Name())
	}
	if enc.Features != layer0.In {
		return nil, fmt.Errorf("core: batch has %d features, layer expects %d", enc.Features, layer0.In)
	}
	t.Model.ZeroGrad()

	// Lines 4–5: secure feed-forward, then line 6: normal feed-forward.
	z, err := t.secureFeedForward(layer0, enc)
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
	if enc.Features != layer0.In {
		return nil, fmt.Errorf("core: batch has %d features, layer expects %d", enc.Features, layer0.In)
	}
	z, err := t.secureFeedForward(layer0, enc)
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
