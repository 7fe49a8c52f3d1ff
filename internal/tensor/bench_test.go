package tensor

import (
	"math/rand"
	"testing"
)

func benchDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(rows, cols)
	d.RandInit(rng, 1)
	return d
}

func BenchmarkMatMul(b *testing.B) {
	a := benchDense(32, 784, 1)
	x := benchDense(784, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(a, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	dz := benchDense(32, 64, 1)
	x := benchDense(784, 64, 2) // dW = dZ·Xᵀ
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulT2(dz, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIm2Col(b *testing.B) {
	vol, err := VolumeFromFlat(benchDense(1*28*28, 1, 3).Col(0), 1, 28, 28)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Im2Col(vol, 5, 5, 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHadamard(b *testing.B) {
	x := benchDense(256, 64, 1)
	y := benchDense(256, 64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hadamard(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
