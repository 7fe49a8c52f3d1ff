package thresh

import (
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// dleqBenchBatch is a partial-key batch of the paper's shape: one
// training step's FEBO commitments at the deployed 256-bit parameter.
const dleqBenchBatch = 80

// BenchmarkProveEqBatch prices one node's batched Chaum–Pedersen proof
// over 80 (commitment, partial key) pairs.
func BenchmarkProveEqBatch(b *testing.B) {
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	secret, pub, bases, outs := dleqBatch(b, params, dleqBenchBatch, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProveEqBatch(params, secret, pub, bases, outs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyEqBatch prices the quorum client's check of that proof:
// 80 output membership tests, two folds and the four exponentiations.
func BenchmarkVerifyEqBatch(b *testing.B) {
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	secret, pub, bases, outs := dleqBatch(b, params, dleqBenchBatch, rand.New(rand.NewSource(1)))
	proof, err := ProveEqBatch(params, secret, pub, bases, outs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyEqBatch(params, pub, bases, outs, proof); err != nil {
			b.Fatal(err)
		}
	}
}
