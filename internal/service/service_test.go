package service

import (
	"context"
	"log"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// newClientEngine wraps a key service in an encrypt-only secure compute
// session, as test clients need.
func newClientEngine(ks securemat.KeyService) (*securemat.Engine, error) {
	return securemat.NewEngine(ks, securemat.EngineOptions{})
}

// testAuthority spins up an in-process authority plus its TCP front-end
// and returns a connected key service.
func testAuthority(t *testing.T) (*authority.Authority, *wire.RemoteKeyService) {
	t.Helper()
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewAuthorityServer(auth, log.New(os.Stderr, "auth: ", 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	ks, err := wire.DialKeyService(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ks.Close() })
	return auth, ks
}

// tinyBatch builds a deterministic (features × n) input and one-hot label
// pair for the given class count.
func tinyBatch(features, classes, n int) (*tensor.Dense, *tensor.Dense) {
	x := tensor.NewDense(features, n)
	y := tensor.NewDense(classes, n)
	for j := 0; j < n; j++ {
		for i := 0; i < features; i++ {
			x.Set(i, j, float64((i*7+j*3)%10)/10)
		}
		y.Set(j%classes, j, 1)
	}
	return x, y
}

func TestConfigValidation(t *testing.T) {
	_, ks := testAuthority(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero features", Config{Classes: 2}},
		{"zero classes", Config{Features: 4}},
		{"negative epochs", Config{Features: 4, Classes: 2, Epochs: -1}},
		{"negative expect", Config{Features: 4, Classes: 2, Expect: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(ks, tc.cfg); err == nil {
				t.Errorf("New(%+v) succeeded, want error", tc.cfg)
			}
		})
	}
	if _, err := New(nil, Config{Features: 4, Classes: 2}); err == nil {
		t.Error("New with nil key service succeeded")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{Features: 4, Classes: 2}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Epochs != 2 || cfg.LR != 0.3 || cfg.Expect != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if len(cfg.Hidden) != 1 || cfg.Hidden[0] != 32 {
		t.Errorf("hidden default = %v, want [32]", cfg.Hidden)
	}
	if cfg.Logger == nil {
		t.Error("logger default missing")
	}
}

// TestEndToEndTwoClients runs the full Fig. 1 pipeline over loopback TCP:
// two distributed clients encrypt disjoint shards under the same
// authority, submit them to the training service, and the service trains
// a model whose loss decreases — without ever seeing plaintext data.
func TestEndToEndTwoClients(t *testing.T) {
	_, ks := testAuthority(t)

	const (
		features = 8
		classes  = 2
		batchN   = 6
	)
	srv, err := New(ks, Config{
		Features: features,
		Classes:  classes,
		Hidden:   []int{6},
		Epochs:   4,
		Expect:   2,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	type runResult struct {
		report *Report
		err    error
	}
	resCh := make(chan runResult, 1)
	go func() {
		rep, err := srv.Run(ctx, l)
		resCh <- runResult{rep, err}
	}()

	// Two clients submit one encrypted batch each, concurrently.
	var wg sync.WaitGroup
	clientErr := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			eng, err := newClientEngine(ks)
			if err != nil {
				clientErr <- err
				return
			}
			client, err := core.NewClient(eng, fixedpoint.Default(), nil)
			if err != nil {
				clientErr <- err
				return
			}
			x, y := tinyBatch(features, classes, batchN)
			enc, err := client.EncryptBatch(x, y)
			if err != nil {
				clientErr <- err
				return
			}
			conn, err := wire.Dial(addr)
			if err != nil {
				clientErr <- err
				return
			}
			defer conn.Close()
			clientErr <- conn.SubmitBatches([]*core.EncryptedBatch{enc})
		}(c)
	}
	wg.Wait()
	for c := 0; c < 2; c++ {
		if err := <-clientErr; err != nil {
			t.Fatalf("client submit: %v", err)
		}
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	rep := res.report
	if rep.Batches != 2 {
		t.Errorf("Batches = %d, want 2", rep.Batches)
	}
	if rep.Clients != 2 {
		t.Errorf("Clients = %d, want 2", rep.Clients)
	}
	if len(rep.EpochLoss) != 4 {
		t.Fatalf("EpochLoss count = %d, want 4", len(rep.EpochLoss))
	}
	first, last := rep.EpochLoss[0], rep.EpochLoss[len(rep.EpochLoss)-1]
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Fatal("loss not computed")
	}
	if last >= first {
		t.Errorf("loss did not decrease: %.4f → %.4f", first, last)
	}
	if rep.TrainTime <= 0 {
		t.Error("train time not measured")
	}
}

// TestRunMixedBatchSizes: two submissions of 4 and then 16 samples train
// with no out-of-bound discrete log, so the trainer grows its solver when
// the larger batch arrives, and ends on the bound the 16-sample gradient
// needs.
func TestRunMixedBatchSizes(t *testing.T) {
	_, ks := testAuthority(t)
	const features, classes = 5, 2
	srv, err := New(ks, Config{Features: features, Classes: classes, Hidden: []int{3},
		Epochs: 2, Expect: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type runResult struct {
		report *Report
		err    error
	}
	resCh := make(chan runResult, 1)
	go func() {
		rep, err := srv.Run(ctx, l)
		resCh <- runResult{rep, err}
	}()

	eng, err := newClientEngine(ks)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 16} {
		enc, err := client.EncryptBatch(tinyBatch(features, classes, n))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := wire.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.SubmitBatches([]*core.EncryptedBatch{enc}); err != nil {
			t.Fatalf("submitting %d samples: %v", n, err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	res := <-resCh
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	if res.report.Batches != 2 {
		t.Errorf("Batches = %d, want 2", res.report.Batches)
	}
	if oob := srv.engine.DlogStats().OutOfBound; oob != 0 {
		t.Errorf("%d discrete logs fell outside the solver bound", oob)
	}
	want := max(core.SolverBound(codec, features, 1, maxWeight, 1),
		core.SolverBound(codec, 16, 1, maxWeight, 100),
		core.SolverBound(codec, 1, 1, 25, 1))
	if got := srv.trainer.Engine.Solver().Bound(); got != want {
		t.Errorf("solver bound after training = %d, want %d", got, want)
	}
}

// TestTrainInProcess exercises Train directly (no sockets) and checks the
// FE-based prediction path.
func TestTrainInProcess(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	const (
		features = 6
		classes  = 3
	)
	srv, err := New(auth, Config{
		Features: features,
		Classes:  classes,
		Hidden:   []int{5},
		Epochs:   3,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := tinyBatch(features, classes, 9)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.train(context.Background(), []*core.EncryptedBatch{enc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 1 || len(rep.EpochLoss) != 3 {
		t.Errorf("report = %+v", rep)
	}
	// The loss comes with every step: each epoch reports a finite one.
	for i, l := range rep.EpochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Errorf("epoch %d loss = %v, want a finite value", i, l)
		}
	}

	preds, err := srv.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 9 {
		t.Fatalf("got %d predictions, want 9", len(preds))
	}
	for i, p := range preds {
		if p < 0 || p >= classes {
			t.Errorf("prediction %d = %d out of range", i, p)
		}
	}
}

// TestTrainRejectsMismatchedBatch checks shape validation against the
// configured model.
func TestTrainRejectsMismatchedBatch(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(auth, Config{Features: 10, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := tinyBatch(4, 2, 3) // wrong feature count
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.train(context.Background(), []*core.EncryptedBatch{enc}); err == nil {
		t.Error("mismatched batch accepted")
	}
}

// TestRunCancelledWhileCollecting verifies the collect phase honours
// context cancellation instead of hanging forever.
func TestRunCancelledWhileCollecting(t *testing.T) {
	_, ks := testAuthority(t)
	srv, err := New(ks, Config{Features: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx, l)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Run returned nil after cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestTrainNoBatches checks the empty-submission error path.
func TestTrainNoBatches(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(auth, Config{Features: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.train(context.Background(), nil); err == nil {
		t.Error("training with no batches succeeded")
	}
}
