package securemat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cryptonn/internal/securemat"
)

// Algorithm 1 stage costs at the secure-matrix level; the seq/par pair is
// the paper's "P" comparison, and the per-stage split mirrors the Fig. 5
// panels.

func BenchmarkSecureDotStage(b *testing.B) {
	const (
		length = 50
		count  = 40
	)
	_, eng := newFixture(b, int64(length)*100+1)
	rng := rand.New(rand.NewSource(5))
	x := randMatrix(rng, length, count, 1, 10)
	w := randMatrix(rng, 1, length, 1, 10)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		b.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("keyderive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.DotKeys(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("compute/par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureDot(enc, keys, w,
					securemat.ComputeOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchedDecrypt measures the chunked batched-decryption pipeline
// (per-worker scratch + Montgomery's-trick denominator inversion) over a
// full secure matrix product, across worker counts — the paper's parallel
// "P" curves at the securemat level.
func BenchmarkBatchedDecrypt(b *testing.B) {
	const (
		inner = 32
		cols  = 32
		wRows = 4
	)
	_, eng := newFixture(b, int64(inner)*100+1)
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, inner, cols, -9, 9)
	w := randMatrix(rng, wRows, inner, -9, 9)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		b.Fatal(err)
	}
	keys, err := eng.DotKeys(w)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureDot(enc, keys, w,
					securemat.ComputeOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSecureElementwiseStage(b *testing.B) {
	const size = 100
	_, eng := newFixture(b, 101*101)
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 1, size, -100, 100)
	y := randMatrix(rng, 1, size, -100, 100)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []securemat.Function{securemat.ElementwiseAdd, securemat.ElementwiseMul} {
		keys, err := eng.ElementwiseKeys(enc, f, y)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureElementwise(enc, keys, f, y,
					securemat.ComputeOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSecureElementwise measures the full in-domain element-wise
// pipeline at η-scale (a 28×28 matrix, the paper's MNIST feature count)
// across worker counts — the counterpart of BenchmarkBatchedDecrypt for
// the FEBO path. allocs/op is the headline: the Montgomery pipeline keeps
// per-cell numerators out of big.Int entirely.
func BenchmarkSecureElementwise(b *testing.B) {
	const (
		rows = 28
		cols = 28
	)
	_, eng := newFixture(b, 101*101)
	rng := rand.New(rand.NewSource(23))
	x := randMatrix(rng, rows, cols, -100, 100)
	y := randMatrix(rng, rows, cols, -100, 100)
	enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []securemat.Function{securemat.ElementwiseAdd, securemat.ElementwiseMul} {
		keys, err := eng.ElementwiseKeys(enc, f, y)
		if err != nil {
			b.Fatal(err)
		}
		for _, par := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/par=%d", f, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.SecureElementwise(enc, keys, f, y,
						securemat.ComputeOptions{Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEngineDotKeyCache pins the session key cache: a hit must cost
// one matrix comparison, orders of magnitude under the derivation an
// uncached call pays every time.
func BenchmarkEngineDotKeyCache(b *testing.B) {
	const rows, inner = 8, 64
	auth, _ := newFixture(b, 1)
	rng := rand.New(rand.NewSource(29))
	w := randMatrix(rng, rows, inner, -9, 9)
	b.Run("hit", func(b *testing.B) {
		eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.DotKeys(w); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DotKeys(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DotKeysUncached(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncryptParallel measures the chunked parallel client-side
// pre-processing (columns + dual rows + elements) across worker counts —
// the encryption-side counterpart of BenchmarkBatchedDecrypt's "P" curves.
func BenchmarkEncryptParallel(b *testing.B) {
	const (
		rows = 32
		cols = 32
	)
	_, eng := newFixture(b, int64(rows)*100+1)
	rng := rand.New(rand.NewSource(17))
	x := randMatrix(rng, rows, cols, -9, 9)
	// Warm the key-service tables so every variant measures steady state.
	if _, err := eng.Encrypt(x, securemat.EncryptOptions{WithRows: true}); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Encrypt(x, securemat.EncryptOptions{
					WithRows:    true,
					Parallelism: par,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
