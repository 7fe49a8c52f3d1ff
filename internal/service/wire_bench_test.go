package service

// BenchmarkServeWire pins the wire throughput story at connection scale:
// an in-process authority, model, and pre-encrypted batches are served
// through the coalescing dispatcher over loopback TCP at each connection
// count. Every connection is a real ClientConn issuing back-to-back
// prediction requests, exactly like cmd/cryptonn-loadgen.
//
// The model is deliberately tiny (16 features, one 4-unit hidden
// layer): with a realistic model the coalesced homomorphic evaluation
// dominates the wall clock and hides the wire cost entirely — this
// benchmark isolates the wire, the eval cost has its own benchmarks
// (BenchmarkServeCoalesced, securemat).
//
// The samples/sec metric is the headline number. At conns=1024 this
// doubles as the "thousands of concurrent clients" acceptance point —
// the fd budget is ~2 per connection, so `ulimit -n` must exceed ~2100
// (the CI runners and the dev image both do).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

func BenchmarkServeWire(b *testing.B) {
	const (
		features  = 16
		classes   = 10
		batchPool = 8
	)
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(auth, Config{
		Features:    features,
		Classes:     classes,
		Hidden:      []int{4},
		Parallelism: 1,
		Seed:        11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ceng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm-up builds the cached prediction trainer outside the timing.
	if _, err := srv.Predict(benchBatch(b, ceng, features, classes, 1, 99)); err != nil {
		b.Fatal(err)
	}
	// A fixed pool of single-sample batches shared read-only across
	// connections — encryption stays out of the measurement and out of
	// the setup time even at a thousand connections.
	batches := make([]*core.EncryptedBatch, batchPool)
	for c := range batches {
		batches[c] = benchBatch(b, ceng, features, classes, 1, int64(c))
	}

	for _, conns := range []int{16, 256, 1024} {
		// The codec=binary segment keeps the ledger rows of earlier snapshots comparable.
		b.Run(fmt.Sprintf("codec=binary/conns=%d", conns), func(b *testing.B) {
			ps, err := wire.NewCoalescingPredictionServer(srv.Predict, nil, wire.DispatcherOptions{
				MaxCoalescedSamples: 256,
				MaxQueue:            2 * conns,
			})
			if err != nil {
				b.Fatal(err)
			}
			addr, stop := serveBench(b, ps)
			defer stop()
			ccs := make([]*wire.ClientConn, conns)
			for c := range ccs {
				if ccs[c], err = wire.Dial(addr); err != nil {
					b.Fatalf("conn %d: %v", c, err)
				}
				defer ccs[c].Close()
			}

			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, conns)
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					enc := batches[c%len(batches)]
					for i := 0; i < b.N; i++ {
						backoff := time.Millisecond
						for {
							preds, err := ccs[c].Predict(nil, enc, 0)
							if errors.Is(err, wire.ErrBusy) {
								time.Sleep(backoff)
								backoff = min(2*backoff, 50*time.Millisecond)
								continue
							}
							if err == nil && len(preds) != enc.N {
								err = fmt.Errorf("%d predictions for %d samples", len(preds), enc.N)
							}
							if err != nil {
								errs[c] = fmt.Errorf("request %d: %w", i, err)
								return
							}
							break
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
			samples := float64(b.N) * float64(conns)
			b.ReportMetric(samples/b.Elapsed().Seconds(), "samples/sec")
			if st := ps.Stats(); st.Evals > 0 {
				b.ReportMetric(float64(st.Samples)/float64(st.Evals), "samples/eval")
			}
		})
	}
}

// BenchmarkServeWirePipeline is BenchmarkServeWire's multiplexing
// sibling: a fixed, small connection count with depth concurrent
// requests in flight per connection, sweeping depth 1/8/32. Replies are
// demultiplexed by request id, so one TCP connection can carry a whole
// client process's concurrency — this pins how much of the conns=N
// throughput a multiplexing client recovers without paying N sockets.
func BenchmarkServeWirePipeline(b *testing.B) {
	const (
		features  = 16
		classes   = 10
		batchPool = 8
		conns     = 16
	)
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(auth, Config{
		Features:    features,
		Classes:     classes,
		Hidden:      []int{4},
		Parallelism: 1,
		Seed:        11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ceng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Predict(benchBatch(b, ceng, features, classes, 1, 99)); err != nil {
		b.Fatal(err)
	}
	batches := make([]*core.EncryptedBatch, batchPool)
	for c := range batches {
		batches[c] = benchBatch(b, ceng, features, classes, 1, int64(c))
	}

	for _, depth := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			ps, err := wire.NewCoalescingPredictionServer(srv.Predict, nil, wire.DispatcherOptions{
				MaxCoalescedSamples: 256,
				MaxQueue:            2 * conns * depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			addr, stop := serveBench(b, ps)
			defer stop()
			ccs := make([]*wire.ClientConn, conns)
			for c := range ccs {
				if ccs[c], err = wire.Dial(addr); err != nil {
					b.Fatalf("conn %d: %v", c, err)
				}
				defer ccs[c].Close()
			}

			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, conns*depth)
			for c := 0; c < conns; c++ {
				for d := 0; d < depth; d++ {
					wg.Add(1)
					go func(w int, cc *wire.ClientConn) {
						defer wg.Done()
						enc := batches[w%len(batches)]
						for i := 0; i < b.N; i++ {
							backoff := time.Millisecond
							for {
								preds, err := cc.Predict(nil, enc, 0)
								if errors.Is(err, wire.ErrBusy) {
									time.Sleep(backoff)
									backoff = min(2*backoff, 50*time.Millisecond)
									continue
								}
								if err == nil && len(preds) != enc.N {
									err = fmt.Errorf("%d predictions for %d samples", len(preds), enc.N)
								}
								if err != nil {
									errs[w] = fmt.Errorf("request %d: %w", i, err)
									return
								}
								break
							}
						}
					}(c*depth+d, ccs[c])
				}
			}
			wg.Wait()
			b.StopTimer()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			samples := float64(b.N) * float64(conns) * float64(depth)
			b.ReportMetric(samples/b.Elapsed().Seconds(), "samples/sec")
			if st := ps.Stats(); st.Evals > 0 {
				b.ReportMetric(float64(st.Samples)/float64(st.Evals), "samples/eval")
			}
		})
	}
}

// serveBench boots ps on a loopback listener and returns its address and
// a stop function.
func serveBench(b *testing.B, ps *wire.PredictionServer) (string, func()) {
	b.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ps.Serve(context.Background(), l)
	}()
	return l.Addr().String(), func() {
		_ = ps.Close()
		<-served
	}
}
