package thresh

import (
	"fmt"
	"math/big"
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

// BenchmarkCombineElementsBatch prices the quorum client's combination of
// one training step's 80 FEBO partials from T = 3 nodes at 256 bits, on the
// happy-path quorum {1, 2, 3} (integer coefficients 3, −3, 1; D = 1) and on
// {2, 4, 5} (numerators 10, −15, 8 over D = 3, so one more exponentiation
// per value).
func BenchmarkCombineElementsBatch(b *testing.B) {
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(3))
	secret, err := params.RandScalar(rnd)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := Split(params, secret, 3, 5, rnd)
	if err != nil {
		b.Fatal(err)
	}
	cmts := make([]*big.Int, dleqBenchBatch)
	for v := range cmts {
		e, err := params.RandScalar(rnd)
		if err != nil {
			b.Fatal(err)
		}
		cmts[v] = params.PowG(e)
	}
	for _, xs := range [][]int64{{1, 2, 3}, {2, 4, 5}} {
		parts := make([][]*big.Int, len(xs))
		for j, x := range xs {
			parts[j] = make([]*big.Int, len(cmts))
			for v, c := range cmts {
				parts[j][v] = params.Exp(c, shares[x-1].V)
			}
		}
		b.Run(fmt.Sprintf("quorum=%v", xs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CombineElementsBatch(params, xs, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
