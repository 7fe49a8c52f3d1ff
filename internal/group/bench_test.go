package group_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"cryptonn/internal/group"
)

// Modular exponentiation is the atom every FE operation reduces to; the
// per-bits sweep is the security-parameter cost curve (cryptonn-bench
// -exp fig3 -bits B shows the same curve on whole secure operations).

func BenchmarkExp(b *testing.B) {
	for _, bits := range group.EmbeddedSizes() {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			params, err := group.Embedded(bits)
			if err != nil {
				b.Fatal(err)
			}
			exp, err := params.RandScalar(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				params.PowG(exp)
			}
		})
	}
}

// BenchmarkFixedBasePow pits the generator comb (PowG on a full-width
// exponent) against the generic square-and-multiply it replaces. The
// naive/comb ratio is the engine's speedup.
func BenchmarkFixedBasePow(b *testing.B) {
	for _, bits := range group.EmbeddedSizes() {
		params, err := group.Embedded(bits)
		if err != nil {
			b.Fatal(err)
		}
		exp, err := params.RandScalar(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("bits=%d/naive", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = params.Exp(params.G, exp)
			}
		})
		params.PowG(exp) // build outside the timed loop
		b.Run(fmt.Sprintf("bits=%d/comb", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = params.PowG(exp)
			}
		})
	}
}

// BenchmarkPowGInt64 exercises the dense small-exponent slab, the g^{x_i}
// path of every plaintext encoding.
func BenchmarkPowGInt64(b *testing.B) {
	params := group.TestParams()
	params.PowGInt64(0) // build the slab outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.PowGInt64(int64(i%2001 - 1000))
	}
}

// BenchmarkExpMont prices one variable-base exponentiation at the paper's
// 256 bits by a full-width exponent: a node's cmt^{s_j}, the DLEQ prover's
// B^{s_j} and the threshold combination's D⁻¹ step each cost one.
func BenchmarkExpMont(b *testing.B) {
	params := group.PaperParams()
	rng := rand.New(rand.NewSource(5))
	mc := params.Mont()
	base, dst := mc.Elem(), mc.Elem()
	mc.ToMont(base, params.Exp(params.G, new(big.Int).Rand(rng, params.Q)))
	exp := new(big.Int).Rand(rng, params.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.ExpMont(dst, base, exp)
	}
}

// BenchmarkMultiExpSparse sweeps the density axis of the ICD workload: a
// wide exponent vector (η=10000 bag-of-words row) where only density·η
// coordinates are non-zero. The sparse coordinate-form walk should scale
// with nnz; the dense walk at the same density pays the η-wide zero scan
// and is included as the reference.
func BenchmarkMultiExpSparse(b *testing.B) {
	params := group.TestParams()
	const eta = 10000
	bases := make([]*big.Int, eta)
	for i := range bases {
		bases[i] = params.PowGInt64(int64(3*i + 7))
	}
	rng := rand.New(rand.NewSource(99))
	for _, density := range []float64{0.001, 0.01, 0.1} {
		var idx []int
		var vals []int64
		dense := make([]int64, eta)
		for i := 0; i < eta; i++ {
			if rng.Float64() < density {
				v := rng.Int63n(21) - 10
				if v == 0 {
					v = 1
				}
				dense[i] = v
				idx = append(idx, i)
				vals = append(vals, v)
			}
		}
		mc := params.Mont()
		pos, neg := mc.Elem(), mc.Elem()
		var scratch []uint64
		b.Run(fmt.Sprintf("density=%g/sparse", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scratch = params.MultiExpInt64SparseMontParts(pos, neg, bases, idx, vals, scratch)
			}
		})
		b.Run(fmt.Sprintf("density=%g/dense", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scratch = params.MultiExpInt64MontParts(pos, neg, bases, dense, scratch)
			}
		})
	}
}

func BenchmarkMul(b *testing.B) {
	params := group.TestParams()
	x := params.PowGInt64(12345)
	y := params.PowGInt64(67890)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.Mul(x, y)
	}
}

func BenchmarkInv(b *testing.B) {
	params := group.TestParams()
	x := params.PowGInt64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params.Inv(x)
	}
}

// BenchmarkIsElement prices the membership check where it runs — once per
// FEBO key at the authority, per commitment in a partial-key batch, per DLEQ
// output, per coordinate of a decoded public key — over 64 distinct inputs,
// half of them members and half non-residues (P − member), at every
// embedded width.
func BenchmarkIsElement(b *testing.B) {
	for _, bits := range []int{64, 256, 512} {
		params, err := group.Embedded(bits)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		xs := make([]*big.Int, 64)
		for i := range xs {
			xs[i] = params.Exp(params.G, new(big.Int).Rand(rng, params.Q))
			if i%2 == 1 {
				xs[i].Sub(params.P, xs[i])
			}
		}
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if params.IsElement(xs[i%64]) != (i%2 == 0) {
					b.Fatalf("input %d misclassified", i%64)
				}
			}
		})
	}
}

func BenchmarkRandScalar(b *testing.B) {
	params := group.TestParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := params.RandScalar(nil); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink *big.Int

func BenchmarkReduceScalar(b *testing.B) {
	params := group.TestParams()
	v := new(big.Int).Lsh(big.NewInt(1), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = params.ReduceScalar(v)
	}
}
