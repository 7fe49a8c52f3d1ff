package nn

import (
	"errors"
	"fmt"

	"cryptonn/internal/tensor"
)

// Model is an ordered layer stack with a loss criterion.
type Model struct {
	Layers []Layer
	Loss   Loss
}

// NewModel validates layer wiring for the given input feature count and
// returns the assembled model.
func NewModel(inputSize int, loss Loss, layers ...Layer) (*Model, error) {
	if loss == nil {
		return nil, errors.New("nn: nil loss")
	}
	if len(layers) == 0 {
		return nil, errors.New("nn: empty layer stack")
	}
	size := inputSize
	for _, l := range layers {
		next, err := l.OutputSize(size)
		if err != nil {
			return nil, fmt.Errorf("nn: wiring: %w", err)
		}
		size = next
	}
	return &Model{Layers: layers, Loss: loss}, nil
}

// Forward runs the full feed-forward pass.
func (m *Model) Forward(x *tensor.Dense) (*tensor.Dense, error) {
	cur := x
	for _, l := range m.Layers {
		next, err := l.Forward(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// ForwardFrom runs the feed-forward pass starting at layer index from,
// consuming an activation produced upstream. The CryptoNN trainer uses it
// to continue after the secure feed-forward step replaced layer 0.
func (m *Model) ForwardFrom(from int, x *tensor.Dense) (*tensor.Dense, error) {
	if from < 0 || from > len(m.Layers) {
		return nil, fmt.Errorf("nn: layer index %d out of range", from)
	}
	cur := x
	for _, l := range m.Layers[from:] {
		next, err := l.Forward(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// Backward propagates an output gradient through every layer, returning
// the input gradient.
func (m *Model) Backward(grad *tensor.Dense) (*tensor.Dense, error) {
	return m.BackwardTo(0, grad)
}

// BackwardTo propagates the gradient down to (and including) layer index
// to, returning d(loss)/d(activation entering layer to). The CryptoNN
// trainer stops at layer 1 and handles layer 0's gradient securely.
func (m *Model) BackwardTo(to int, grad *tensor.Dense) (*tensor.Dense, error) {
	if to < 0 || to > len(m.Layers) {
		return nil, fmt.Errorf("nn: layer index %d out of range", to)
	}
	cur := grad
	for i := len(m.Layers) - 1; i >= to; i-- {
		next, err := m.Layers[i].Backward(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// Params collects every trainable parameter in layer order.
func (m *Model) Params() []Param {
	var out []Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// gradLayer is implemented by layers owning parameter state.
type gradLayer interface {
	ZeroGrad()
}

// ZeroGrad clears accumulated gradients on every parameterised layer.
func (m *Model) ZeroGrad() {
	for _, l := range m.Layers {
		if g, ok := l.(gradLayer); ok {
			g.ZeroGrad()
		}
	}
}

// step applies the optimizer to every parameter.
func (m *Model) step(opt Optimizer) error {
	return opt.Step(m.Params())
}

// TrainBatch runs one forward/backward/update cycle on a batch and returns
// the loss.
func (m *Model) TrainBatch(x, y *tensor.Dense, opt Optimizer) (float64, error) {
	m.ZeroGrad()
	out, err := m.Forward(x)
	if err != nil {
		return 0, err
	}
	loss, grad, err := m.Loss.Forward(out, y)
	if err != nil {
		return 0, err
	}
	if _, err := m.Backward(grad); err != nil {
		return 0, err
	}
	if err := m.step(opt); err != nil {
		return 0, err
	}
	return loss, nil
}

// ApplyStep exposes the optimizer application for trainers that drive the
// forward/backward passes themselves (the CryptoNN framework).
func (m *Model) ApplyStep(opt Optimizer) error { return m.step(opt) }

// Predict returns the arg-max class per column of the model output.
func (m *Model) Predict(x *tensor.Dense) ([]int, error) {
	out, err := m.Forward(x)
	if err != nil {
		return nil, err
	}
	preds := make([]int, out.Cols)
	for j := 0; j < out.Cols; j++ {
		preds[j] = out.ArgMaxCol(j)
	}
	return preds, nil
}

// Accuracy computes arg-max accuracy against one-hot targets.
func (m *Model) Accuracy(x, y *tensor.Dense) (float64, error) {
	preds, err := m.Predict(x)
	if err != nil {
		return 0, err
	}
	if y.Cols != len(preds) {
		return 0, fmt.Errorf("%w: %d predictions, %d targets", ErrShape, len(preds), y.Cols)
	}
	correct := 0
	for j, p := range preds {
		if y.ArgMaxCol(j) == p {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}
