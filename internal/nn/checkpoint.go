package nn

// Model checkpointing: Save serializes a model's architecture and
// parameters to a gob stream; Load reconstructs it. The trained CryptoNN
// model is plaintext on the server (the paper's design), so persisting it
// is ordinary serialization — no key material is involved.
//
// The format is a versioned header plus one spec per layer. Layers are
// rebuilt through their constructors on load, then the saved weights are
// copied in, so wiring validation runs again and function-valued fields
// (activations) never need to be encoded.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// ErrCheckpointShape reports a checkpoint layer with a non-positive
// dimension, or with saved parameters whose lengths its geometry does not
// give. Load returns it before allocating anything sized by the file.
var ErrCheckpointShape = errors.New("nn: checkpoint layer shape")

// layerSpec is the serialized form of one layer.
type layerSpec struct {
	// Kind is one of "dense", "conv", "avgpool", "sigmoid", "tanh",
	// "relu".
	Kind string
	// Dense / conv geometry (meaningful per kind).
	In, Out                 int
	InC, InH, InW           int
	Filters, K, Stride, Pad int
	// W and B are the parameters, row-major (dense and conv only).
	W, B []float64
}

// checkpoint is the serialized form of a model.
type checkpoint struct {
	Version   int
	InputSize int
	Loss      string
	Layers    []layerSpec
}

// Save writes the model to w. Gradients and forward caches are not
// saved — a loaded model starts cold.
func Save(w io.Writer, m *Model) error {
	if m == nil || len(m.Layers) == 0 {
		return errors.New("nn: cannot save empty model")
	}
	inputSize, err := modelInputSize(m)
	if err != nil {
		return err
	}
	cp := checkpoint{
		Version:   checkpointVersion,
		InputSize: inputSize,
		Loss:      m.Loss.Name(),
	}
	for _, l := range m.Layers {
		spec, err := specFor(l)
		if err != nil {
			return err
		}
		cp.Layers = append(cp.Layers, spec)
	}
	if err := gob.NewEncoder(w).Encode(&cp); err != nil {
		return fmt.Errorf("nn: encoding checkpoint: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("nn: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	var loss Loss
	switch cp.Loss {
	case SoftmaxCrossEntropy{}.Name():
		loss = SoftmaxCrossEntropy{}
	case MSE{}.Name():
		loss = MSE{}
	default:
		return nil, fmt.Errorf("nn: unknown loss %q in checkpoint", cp.Loss)
	}
	layers := make([]Layer, 0, len(cp.Layers))
	for i, spec := range cp.Layers {
		l, err := layerFrom(spec)
		if err != nil {
			return nil, fmt.Errorf("nn: checkpoint layer %d: %w", i, err)
		}
		layers = append(layers, l)
	}
	return NewModel(cp.InputSize, loss, layers...)
}

// modelInputSize recovers the model's input feature count from its first
// parameterized layer.
func modelInputSize(m *Model) (int, error) {
	switch l := m.Layers[0].(type) {
	case *DenseLayer:
		return l.In, nil
	case *ConvLayer:
		return l.InSize(), nil
	case *AvgPoolLayer:
		return l.InSize(), nil
	default:
		return 0, fmt.Errorf("nn: cannot infer input size from first layer %s", m.Layers[0].Name())
	}
}

func specFor(l Layer) (layerSpec, error) {
	switch v := l.(type) {
	case *DenseLayer:
		return layerSpec{
			Kind: "dense", In: v.In, Out: v.Out,
			W: append([]float64(nil), v.W.Data...),
			B: append([]float64(nil), v.B.Data...),
		}, nil
	case *ConvLayer:
		return layerSpec{
			Kind: "conv",
			InC:  v.InC, InH: v.InH, InW: v.InW,
			Filters: v.Filters, K: v.K, Stride: v.Stride, Pad: v.Pad,
			W: append([]float64(nil), v.W.Data...),
			B: append([]float64(nil), v.B.Data...),
		}, nil
	case *AvgPoolLayer:
		return layerSpec{
			Kind: "avgpool",
			InC:  v.C, InH: v.H, InW: v.W,
			K: v.K, Stride: v.Stride,
		}, nil
	case *Activation:
		switch v.name {
		case "sigmoid", "tanh", "relu":
			return layerSpec{Kind: v.name}, nil
		default:
			return layerSpec{}, fmt.Errorf("nn: cannot checkpoint activation %q", v.name)
		}
	default:
		return layerSpec{}, fmt.Errorf("nn: cannot checkpoint layer %s", l.Name())
	}
}

func layerFrom(spec layerSpec) (Layer, error) {
	// Fresh layers are built with a throwaway deterministic rng; the
	// saved weights overwrite the initialisation.
	rng := rand.New(rand.NewSource(1))
	switch spec.Kind {
	case "dense":
		if err := checkParams(spec, spec.Out, spec.In); err != nil {
			return nil, err
		}
		l := NewDense(spec.In, spec.Out, rng)
		copy(l.W.Data, spec.W)
		copy(l.B.Data, spec.B)
		return l, nil
	case "conv":
		if err := checkParams(spec, spec.Filters, spec.InC, spec.K, spec.K); err != nil {
			return nil, err
		}
		l, err := NewConv(spec.InC, spec.InH, spec.InW, spec.Filters, spec.K, spec.Stride, spec.Pad, rng)
		if err != nil {
			return nil, err
		}
		copy(l.W.Data, spec.W)
		copy(l.B.Data, spec.B)
		return l, nil
	case "avgpool":
		return NewAvgPool(spec.InC, spec.InH, spec.InW, spec.K, spec.Stride)
	case "sigmoid":
		return NewSigmoid(), nil
	case "tanh":
		return NewTanh(), nil
	case "relu":
		return NewReLU(), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer kind %q", spec.Kind)
	}
}

// checkParams validates a parameterized layer's saved parameters against
// its geometry before the layer is built: out rows of Π in weights each,
// and out biases. Dividing len(W) by each dimension in turn checks the
// product without computing it, so no dimension can overflow it.
func checkParams(spec layerSpec, out int, in ...int) error {
	n := len(spec.W)
	for _, d := range append([]int{out}, in...) {
		if d <= 0 {
			return fmt.Errorf("%w: %s layer has dimension %d", ErrCheckpointShape, spec.Kind, d)
		}
		if n%d != 0 {
			n = 0
			break
		}
		n /= d
	}
	if n != 1 {
		return fmt.Errorf("%w: %s layer of %d outputs carries %d weights", ErrCheckpointShape, spec.Kind, out, len(spec.W))
	}
	if len(spec.B) != out {
		return fmt.Errorf("%w: %s layer of %d outputs carries %d biases", ErrCheckpointShape, spec.Kind, out, len(spec.B))
	}
	return nil
}
