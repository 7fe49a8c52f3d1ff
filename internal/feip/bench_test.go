package feip_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
)

// The FEIP primitive costs underlying every CryptoNN secure feed-forward:
// one Encrypt per input column (client), one KeyDerive per weight row
// (authority), one Decrypt per output cell (server). The per-dimension
// sweep shows the η+1-exponentiation scaling of §II-B.

func benchVectors(eta int, seed int64) (x, y []int64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([]int64, eta)
	y = make([]int64, eta)
	for i := 0; i < eta; i++ {
		x[i] = rng.Int63n(21) - 10
		y[i] = rng.Int63n(21) - 10
	}
	return x, y
}

func BenchmarkEncrypt(b *testing.B) {
	for _, eta := range []int{10, 100, 784} {
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			params := group.TestParams()
			mpk, _, err := feip.Setup(params, eta, nil)
			if err != nil {
				b.Fatal(err)
			}
			x, _ := benchVectors(eta, 1)
			// Table build is one-time cost with its own benchmark story
			// (group.BenchmarkPrecompute); this one measures the per-op path.
			mpk.Precompute()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := feip.Encrypt(mpk, x, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncryptSparse is the headline sparse-engine measurement: a
// bag-of-words vector at ICD scale (η=10000) across the density axis, on
// the paper's 256-bit group. The sparse coordinate form pays nnz+1 comb
// evaluations; the dense path at the same η is the reference and pays
// η+1 regardless of content (its zero-skip guard only saves the payload
// multiplication). The acceptance target is ≥8× at 1% density.
func BenchmarkEncryptSparse(b *testing.B) {
	const eta = 10000
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	mpk, _, err := feip.Setup(params, eta, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	mpk.Precompute()
	for _, density := range []float64{0.001, 0.01, 0.1} {
		rng := rand.New(rand.NewSource(int64(density * 1e6)))
		x := make([]int64, eta)
		var idx []int
		var vals []int64
		for i := range x {
			if rng.Float64() < density {
				x[i] = rng.Int63n(21) - 10
				if x[i] == 0 {
					x[i] = 1
				}
				idx, vals = append(idx, i), append(vals, x[i])
			}
		}
		var sc feip.EncryptScratch
		b.Run(fmt.Sprintf("density=%g/sparse", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := feip.EncryptSparseWithScratch(mpk, idx, vals, rng, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("density=%g/dense", density), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := feip.Encrypt(mpk, x, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKeyDerive(b *testing.B) {
	for _, eta := range []int{10, 100, 784} {
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			params := group.TestParams()
			_, msk, err := feip.Setup(params, eta, nil)
			if err != nil {
				b.Fatal(err)
			}
			_, y := benchVectors(eta, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := feip.KeyDerive(params, msk, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecrypt(b *testing.B) {
	for _, eta := range []int{10, 100, 784} {
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			params := group.TestParams()
			mpk, msk, err := feip.Setup(params, eta, nil)
			if err != nil {
				b.Fatal(err)
			}
			x, y := benchVectors(eta, 3)
			ct, err := feip.Encrypt(mpk, x, nil)
			if err != nil {
				b.Fatal(err)
			}
			fk, err := feip.KeyDerive(params, msk, y)
			if err != nil {
				b.Fatal(err)
			}
			solver, err := dlog.NewSolver(params, int64(eta)*100+1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := feip.Decrypt(mpk, ct, fk, y, solver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncryptParallel pins multi-core encryption scaling: many
// goroutines encrypting under one shared master public key (the immutable
// fixed-base tables are the shared state). On a single-vCPU box this
// tracks BenchmarkEncrypt; on a multi-core box the per-op time should
// divide by the core count.
func BenchmarkEncryptParallel(b *testing.B) {
	const eta = 784
	params := group.TestParams()
	mpk, _, err := feip.Setup(params, eta, nil)
	if err != nil {
		b.Fatal(err)
	}
	mpk.Precompute()
	x, _ := benchVectors(eta, 1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := feip.Encrypt(mpk, x, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
