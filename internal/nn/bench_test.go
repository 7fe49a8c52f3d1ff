package nn

import (
	"math/rand"
	"testing"

	"cryptonn/internal/tensor"
)

// Plaintext model costs — the baseline column of Table III. The per-batch
// crypto overhead factor is the repository benchmark's
// core.secure_over_plain row (benchmark/README.md), or Table III's
// overhead line from cryptonn-bench -exp table3.

func benchBatch(in, classes, n int, seed int64) (*tensor.Dense, *tensor.Dense) {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.NewDense(in, n)
	x.RandInit(rng, 1)
	y := tensor.NewDense(classes, n)
	for j := 0; j < n; j++ {
		y.Set(j%classes, j, 1)
	}
	return x, y
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLP(784, 10, []int{32}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := benchBatch(784, 10, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewMLP(784, 10, []int{32}, SoftmaxCrossEntropy{}, rng)
	if err != nil {
		b.Fatal(err)
	}
	x, y := benchBatch(784, 10, 64, 2)
	opt, err := NewSGD(0.3, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainBatch(x, y, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeNet5Forward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewLeNet5(rng)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := benchBatch(MNISTInputSize, MNISTClasses, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeNet5TrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewLeNet5(rng)
	if err != nil {
		b.Fatal(err)
	}
	x, y := benchBatch(MNISTInputSize, MNISTClasses, 8, 2)
	opt, err := NewSGD(0.1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.TrainBatch(x, y, opt); err != nil {
			b.Fatal(err)
		}
	}
}
