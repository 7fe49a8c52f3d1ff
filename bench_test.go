// Package cryptonn's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation section (§IV-B).
//
//	BenchmarkFig3*   element-wise addition, panels a–d
//	BenchmarkFig4*   element-wise multiplication, panels a–d
//	BenchmarkFig5*   dot-product, panels a–d
//	BenchmarkFig6*   one secure vs plaintext training step (the unit of
//	                 the accuracy/time curves)
//	BenchmarkTable3* one full epoch, secure vs plaintext
//	BenchmarkComm    §IV-B2 per-iteration key traffic (reported as
//	                 scalars/op and keys/op metrics)
//
// The benchmarks measure the same code paths cmd/cryptonn-bench times,
// but under testing.B so -benchmem allocation profiles are available.
// Sizes are scaled for a laptop; EXPERIMENTS.md maps them back to the
// paper's sweeps.
package cryptonn

import (
	"fmt"
	"math/rand"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/experiments"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// benchAuthority builds an in-process authority over the embedded 64-bit
// test group (the paper's 256-bit setting is reachable via
// group.Embedded(group.PaperBits) but multiplies every exponentiation
// cost without changing any shape).
func benchAuthority(b *testing.B) *authority.Authority {
	b.Helper()
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	return auth
}

func benchSolver(b *testing.B, bound int64) *dlog.Solver {
	b.Helper()
	solver, err := dlog.NewSolver(group.TestParams(), bound)
	if err != nil {
		b.Fatal(err)
	}
	return solver
}

// benchEngine builds a secure compute session over a fresh authority.
func benchEngine(b *testing.B, solver *dlog.Solver) *securemat.Engine {
	b.Helper()
	eng, err := securemat.NewEngine(benchAuthority(b), securemat.EngineOptions{Solver: solver})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func randMat(rng *rand.Rand, rows, cols int, lo, hi int64) [][]int64 {
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			m[i][j] = lo + rng.Int63n(hi-lo+1)
		}
	}
	return m
}

// --- Fig. 3 / Fig. 4: element-wise micro-benchmarks -------------------

// elementwisePanels runs the four panels of Fig. 3 (add) or Fig. 4 (mul)
// at a fixed element count for each value range of the figure legends.
func elementwisePanels(b *testing.B, f securemat.Function) {
	const size = 200 // elements per op (the paper's x-axis, scaled)
	ranges := []experiments.ValueRange{{Lo: -10, Hi: 10}, {Lo: -100, Hi: 100}, {Lo: -1000, Hi: 1000}}
	for _, r := range ranges {
		bound := 2 * r.Hi
		if f == securemat.ElementwiseMul {
			bound = r.Hi*r.Hi + 1
		}
		eng := benchEngine(b, benchSolver(b, bound))
		rng := rand.New(rand.NewSource(7))
		x := randMat(rng, 1, size, r.Lo, r.Hi)
		y := randMat(rng, 1, size, r.Lo, r.Hi)

		enc, err := eng.Encrypt(x, securemat.EncryptOptions{})
		if err != nil {
			b.Fatal(err)
		}
		keys, err := eng.ElementwiseKeys(enc, f, y)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("a_encrypt/range=%s", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Encrypt(x, securemat.EncryptOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("b_keyderive/range=%s", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ElementwiseKeys(enc, f, y); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("c_compute_seq/range=%s", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureElementwise(enc, keys, f, y,
					securemat.ComputeOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("d_compute_par/range=%s", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureElementwise(enc, keys, f, y,
					securemat.ComputeOptions{Parallelism: 0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3 regenerates the element-wise addition panels (Fig. 3a–d).
func BenchmarkFig3(b *testing.B) { elementwisePanels(b, securemat.ElementwiseAdd) }

// BenchmarkFig4 regenerates the element-wise multiplication panels
// (Fig. 4a–d). Multiplication's discrete-log range grows with the square
// of the value range — the reason the paper's Fig. 4c is minutes where
// Fig. 3c is seconds.
func BenchmarkFig4(b *testing.B) { elementwisePanels(b, securemat.ElementwiseMul) }

// BenchmarkFig5 regenerates the dot-product panels (Fig. 5a–d) for the
// paper's vector lengths l ∈ {10, 100} and value ranges.
func BenchmarkFig5(b *testing.B) {
	const count = 50 // vectors per op
	type cfg struct {
		l int
		r experiments.ValueRange
	}
	cases := []cfg{
		{10, experiments.ValueRange{Lo: 1, Hi: 10}},
		{10, experiments.ValueRange{Lo: 1, Hi: 100}},
		{100, experiments.ValueRange{Lo: 1, Hi: 10}},
		{100, experiments.ValueRange{Lo: 1, Hi: 100}},
	}
	for _, c := range cases {
		eng := benchEngine(b, benchSolver(b, int64(c.l)*c.r.Hi*c.r.Hi+1))
		rng := rand.New(rand.NewSource(11))
		x := randMat(rng, c.l, count, c.r.Lo, c.r.Hi)
		w := randMat(rng, 1, c.l, c.r.Lo, c.r.Hi)

		enc, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true})
		if err != nil {
			b.Fatal(err)
		}
		keys, err := eng.DotKeys(w)
		if err != nil {
			b.Fatal(err)
		}
		suffix := fmt.Sprintf("l=%d/v=%s", c.l, c.r)

		b.Run("a_encrypt/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Encrypt(x, securemat.EncryptOptions{SkipElems: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("b_keyderive/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.DotKeysUncached(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("c_compute_seq/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureDot(enc, keys, w,
					securemat.ComputeOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("d_compute_par/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.SecureDot(enc, keys, w,
					securemat.ComputeOptions{Parallelism: 0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 6 / Table III: training-step benchmarks ---------------------

// trainFixture builds matched plaintext/secure training state at the
// down-scaled MNIST geometry (7×7 inputs, 8 hidden units, batch 10).
type trainFixture struct {
	plain   *nn.Model
	trainer *core.Trainer
	x, y    *tensor.Dense
	enc     *core.EncryptedBatch
	opt     nn.Optimizer
}

func newTrainFixture(b *testing.B) *trainFixture {
	b.Helper()
	const (
		features = 49
		hidden   = 8
		batch    = 10
	)
	codec := fixedpoint.Default()
	mk := func(seed int64) *nn.Model {
		m, err := nn.NewMLP(features, mnist.Classes, []int{hidden}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	bound := max(core.SolverBound(codec, features, 1, 4, 1),
		core.SolverBound(codec, batch, 1, 4, 100))
	eng := benchEngine(b, benchSolver(b, bound))
	trainer, err := core.NewTrainer(mk(3), eng, core.Config{Codec: codec, MaxWeight: 4, GradScale: 100})
	if err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient(eng, codec, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	x := tensor.NewDense(features, batch)
	y := tensor.NewDense(mnist.Classes, batch)
	for j := 0; j < batch; j++ {
		for i := 0; i < features; i++ {
			x.Set(i, j, rng.Float64())
		}
		y.Set(j%mnist.Classes, j, 1)
	}
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := nn.NewSGD(0.3, 0)
	if err != nil {
		b.Fatal(err)
	}
	return &trainFixture{plain: mk(3), trainer: trainer, x: x, y: y, enc: enc, opt: opt}
}

// BenchmarkFig6SecureStep times one CryptoNN training step — the unit
// whose accumulation over 2 epochs is Table III's 57-hour column and
// whose per-batch accuracy traces Fig. 6's CryptoCNN curve.
func BenchmarkFig6SecureStep(b *testing.B) {
	f := newTrainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.trainer.TrainBatch(f.enc, f.opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PlainStep times the plaintext twin's step (the LeNet-5
// baseline curve of Fig. 6 / the 4-hour column of Table III).
func BenchmarkFig6PlainStep(b *testing.B) {
	f := newTrainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.plain.TrainBatch(f.x, f.y, f.opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ClientEncrypt times the client-side pre-processing
// (encryption) per batch — the cost the paper's training-time comparison
// folds into the client.
func BenchmarkFig6ClientEncrypt(b *testing.B) {
	client, err := core.NewClient(benchEngine(b, nil), fixedpoint.Default(), nil)
	if err != nil {
		b.Fatal(err)
	}
	f := newTrainFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.EncryptBatch(f.x, f.y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Epoch times one full epoch (4 batches) for both models,
// reporting the secure/plain pair that forms Table III's training-time
// ratio.
func BenchmarkTable3Epoch(b *testing.B) {
	const batches = 4
	b.Run("secure", func(b *testing.B) {
		f := newTrainFixture(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batches; k++ {
				if _, err := f.trainer.TrainBatch(f.enc, f.opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("plain", func(b *testing.B) {
		f := newTrainFixture(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batches; k++ {
				if _, err := f.plain.TrainBatch(f.x, f.y, f.opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkComm measures the §IV-B2 per-iteration key traffic: it runs
// one CryptoNN iteration per op and reports the authority's issuance
// counters as custom metrics (scalars/iter = the paper's k×n upload,
// ip-keys/iter and bo-keys/iter = the derived-key downloads).
func BenchmarkComm(b *testing.B) {
	res, err := experiments.CommOverhead(experiments.CommConfig{
		Features: 20, HiddenUnits: 8, Batch: 6, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CommOverhead(experiments.CommConfig{
			Features: 20, HiddenUnits: 8, Batch: 6, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PredictedScalars), "fwd-scalars/iter")
	b.ReportMetric(float64(res.TotalIPKeys), "ip-keys/iter")
	b.ReportMetric(float64(res.TotalBOKeys), "bo-keys/iter")
}
