package nn

import (
	"fmt"
	"math/rand"
)

// LeNet-5 geometry constants (LeCun et al. 1998, as instantiated by the
// paper's CryptoCNN case study §III-E: C1 conv → S2 avg-pool → C3 conv →
// S4 avg-pool → C5 fully connected → F6 → 10-way softmax output).
const (
	// MNISTImageSide is the input image side length.
	MNISTImageSide = 28
	// MNISTClasses is the number of output classes.
	MNISTClasses = 10
	// MNISTInputSize is the flattened input feature count.
	MNISTInputSize = MNISTImageSide * MNISTImageSide
)

// NewLeNetSmall builds a reduced LeNet-style network for fast tests and
// scaled-down experiments: one conv block then two dense layers, on the
// same 28×28 input geometry.
func NewLeNetSmall(rng *rand.Rand) (*Model, error) {
	c1, err := NewConv(1, 28, 28, 4, 5, 1, 2, rng) // 4×28×28
	if err != nil {
		return nil, fmt.Errorf("nn: small C1: %w", err)
	}
	s2, err := NewAvgPool(4, 28, 28, 2, 2) // 4×14×14
	if err != nil {
		return nil, fmt.Errorf("nn: small S2: %w", err)
	}
	return NewModel(MNISTInputSize, SoftmaxCrossEntropy{},
		c1, NewTanh(),
		s2,
		NewDense(4*14*14, 32, rng), NewTanh(),
		NewDense(32, MNISTClasses, rng),
	)
}

// NewConvNetSmall builds a compact convolutional network for side×side
// single-channel inputs: one 3×3 conv block (stride 1, pad 1, so the
// spatial size is preserved), 2× average pooling, then two dense layers.
// It is the CryptoCNN test architecture for down-scaled experiment runs
// on small machines; NewLeNetSmall keeps the paper's 28×28 geometry.
func NewConvNetSmall(side, filters int, rng *rand.Rand) (*Model, error) {
	if side < 4 || side%2 != 0 {
		return nil, fmt.Errorf("nn: conv-net side %d must be even and ≥ 4", side)
	}
	if filters < 1 {
		return nil, fmt.Errorf("nn: conv-net needs ≥ 1 filter, got %d", filters)
	}
	c1, err := NewConv(1, side, side, filters, 3, 1, 1, rng) // filters×side×side
	if err != nil {
		return nil, fmt.Errorf("nn: conv-net C1: %w", err)
	}
	s2, err := NewAvgPool(filters, side, side, 2, 2) // filters×side/2×side/2
	if err != nil {
		return nil, fmt.Errorf("nn: conv-net S2: %w", err)
	}
	half := side / 2
	return NewModel(side*side, SoftmaxCrossEntropy{},
		c1, NewTanh(),
		s2,
		NewDense(filters*half*half, 16, rng), NewTanh(),
		NewDense(16, MNISTClasses, rng),
	)
}

// NewMLP builds a plain multi-layer perceptron with sigmoid activations
// and the requested hidden sizes, ending in a linear layer of outSize
// units. It is the model of the paper's §III-D binary-classification
// walkthrough when used with MSE loss, and a lighter MNIST model with
// softmax cross-entropy.
func NewMLP(inSize, outSize int, hidden []int, loss Loss, rng *rand.Rand) (*Model, error) {
	var layers []Layer
	prev := inSize
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), NewSigmoid())
		prev = h
	}
	layers = append(layers, NewDense(prev, outSize, rng))
	return NewModel(inSize, loss, layers...)
}

// NewBinaryClassifier builds the exact model of §III-D: one sigmoid output
// unit trained with half squared error A = θ(W·X + b), E = ½Σ(ŷ−y)².
func NewBinaryClassifier(inSize int, hidden int, rng *rand.Rand) (*Model, error) {
	return NewModel(inSize, MSE{},
		NewDense(inSize, hidden, rng), NewSigmoid(),
		NewDense(hidden, 1, rng), NewSigmoid(),
	)
}
