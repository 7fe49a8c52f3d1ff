package service

// BenchmarkServeCoalesced pins the prediction-serving throughput story:
// the same in-process authority, model, and pre-encrypted client batches
// are served once with merging switched off (a one-sample cap makes every
// request its own evaluation: each pays the full per-evaluation fixed
// cost, one after the other) and once through the coalescing dispatcher
// sized to the offered load (MaxCoalescedSamples = clients × batch), both
// on the greedy merge policy every binary runs. Load is a
// pipelined closed loop over loopback TCP: every client streams
// back-to-back requests on its own connection, exactly like
// cmd/cryptonn-loadgen.
//
// The custom samples/sec metric is the headline number; samples/eval
// shows how wide the dispatcher actually merged. On a single-CPU box
// the win is the amortized per-evaluation fixed cost only; on a
// multi-core box the merged evaluations additionally spread across the
// engine's decryption workers while one-sample evaluations cannot (they
// run one at a time on the dispatch loop), so the gap widens — re-measure
// there, like the BenchmarkLookupParallel scaling note in ROADMAP.md.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

// benchBatch encrypts a deterministic prediction batch (column
// orientation only — what the serving path reads).
func benchBatch(b *testing.B, eng *securemat.Engine, features, classes, n int, seed int64) *core.EncryptedBatch {
	b.Helper()
	codec := fixedpoint.Default()
	x := make([][]float64, features)
	for i := range x {
		x[i] = make([]float64, n)
		for j := range x[i] {
			x[i][j] = float64((i*31+j*17+int(seed))%100) / 100
		}
	}
	xi, err := codec.EncodeMat(x)
	if err != nil {
		b.Fatal(err)
	}
	encX, err := eng.Encrypt(xi, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		b.Fatal(err)
	}
	return &core.EncryptedBatch{X: encX, Features: features, Classes: classes, N: n}
}

func BenchmarkServeCoalesced(b *testing.B) {
	const (
		features = 16
		classes  = 10
	)
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(auth, Config{
		Features: features,
		Classes:  classes,
		Hidden:   []int{16},
		Seed:     11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ceng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Serving answers with the model's current (initial) weights — the
	// benchmark measures the serving path, not training. One warm-up
	// call builds the cached prediction trainer outside the timing.
	if _, err := srv.Predict(benchBatch(b, ceng, features, classes, 1, 99)); err != nil {
		b.Fatal(err)
	}

	sweep := []struct{ clients, batch int }{
		{1, 1}, {4, 1}, {8, 1}, {4, 4},
	}
	for _, cs := range sweep {
		// One pre-encrypted batch per client, reused every request.
		batches := make([]*core.EncryptedBatch, cs.clients)
		for c := range batches {
			batches[c] = benchBatch(b, ceng, features, classes, cs.batch, int64(c))
		}
		for _, coalesced := range []bool{false, true} {
			mode, width := "serial", 1
			if coalesced {
				mode, width = "coalesced", cs.clients*cs.batch
			}
			b.Run(fmt.Sprintf("%s/clients=%d/batch=%d", mode, cs.clients, cs.batch), func(b *testing.B) {
				ps, err := wire.NewCoalescingPredictionServer(srv.Predict, nil, wire.DispatcherOptions{MaxCoalescedSamples: width})
				if err != nil {
					b.Fatal(err)
				}
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				served := make(chan error, 1)
				go func() { served <- ps.Serve(ctx, l) }()
				conns := make([]*wire.ClientConn, cs.clients)
				for c := range conns {
					if conns[c], err = wire.Dial(l.Addr().String()); err != nil {
						b.Fatal(err)
					}
				}
				defer func() {
					for _, conn := range conns {
						_ = conn.Close()
					}
					cancel()
					<-served
				}()

				b.ResetTimer()
				var wg sync.WaitGroup
				errs := make([]error, cs.clients)
				for c := 0; c < cs.clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							preds, err := conns[c].Predict(ctx, batches[c], 0)
							if err == nil && len(preds) != cs.batch {
								err = fmt.Errorf("%d predictions for %d samples", len(preds), cs.batch)
							}
							if err != nil {
								errs[c] = fmt.Errorf("request %d: %w", i, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				samples := float64(b.N) * float64(cs.clients*cs.batch)
				b.ReportMetric(samples/b.Elapsed().Seconds(), "samples/sec")
				if st := ps.Stats(); st.Evals > 0 {
					b.ReportMetric(float64(st.Samples)/float64(st.Evals), "samples/eval")
				}
			})
		}
	}
}
