package service

import (
	"context"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// snapToCodec clamps the live model's first-layer weights to ±maxWeight
// and rounds them onto the codec grid, so the plaintext reference model
// ranks labels with exactly the values the fixed-point secure scorer
// sees. tinyBatch-style inputs (multiples of 0.1) are exact at the
// two-decimal default codec, so after snapping the two heads agree
// element for element, ties included (both break ties by lower index).
func snapToCodec(t *testing.T, m *nn.Model) *nn.DenseLayer {
	t.Helper()
	layer0, ok := m.Layers[0].(*nn.DenseLayer)
	if !ok {
		t.Fatalf("first layer is %T, want *nn.DenseLayer", m.Layers[0])
	}
	for i, v := range layer0.W.Data {
		v = math.Max(-maxWeight, math.Min(maxWeight, v))
		layer0.W.Data[i] = math.Round(v*100) / 100
	}
	for _, b := range layer0.B.Data {
		if b != 0 {
			t.Fatalf("linear model carries nonzero bias %v; Config.Linear must train bias-free", b)
		}
	}
	return layer0
}

// sparseTinyBatch builds a mostly-zero (features × n) prediction matrix
// with codec-exact values; column j has support size j+1.
func sparseTinyBatch(features, n int) *tensor.Dense {
	x := tensor.NewDense(features, n)
	for j := 0; j < n; j++ {
		for s := 0; s <= j; s++ {
			i := (s*5 + j) % features
			x.Set(i, j, float64((s+j*3)%9+1)/10)
		}
	}
	return x
}

// topKCols returns, for each column (sample) of out, the indices of its k
// largest entries in descending value order, ties broken by lower index —
// the contract of dlog.TopK, so the plaintext and secure heads compare
// element for element.
func topKCols(out *tensor.Dense, k int) [][]int {
	top := make([][]int, out.Cols)
	for j := range top {
		idx := make([]int, out.Rows)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return out.At(idx[a], j) > out.At(idx[b], j) })
		top[j] = idx[:k]
	}
	return top
}

// TestSparseTopKOverWire trains a linear server in process, serves it
// over loopback, and checks that a sparse client's top-k answers match
// the plaintext model's top-k ranking and the exact fixed-point logits —
// the end-to-end contract of the sparse serving path.
func TestSparseTopKOverWire(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	const (
		features = 8
		classes  = 5
		k        = 3
	)
	srv, err := New(auth, Config{
		Features: features,
		Classes:  classes,
		Linear:   true,
		Epochs:   2,
		Seed:     33,
	})
	if err != nil {
		t.Fatal(err)
	}
	ceng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(ceng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := tinyBatch(features, classes, 6)
	trainEnc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.train(context.Background(), []*core.EncryptedBatch{trainEnc}); err != nil {
		t.Fatal(err)
	}
	// Snap before the first top-k request: buildTopKServing encodes the
	// weights lazily, so the snapped values are what it will serve.
	layer0 := snapToCodec(t, srv.Model())

	px := sparseTinyBatch(features, 4)
	out, err := srv.Model().Forward(px)
	if err != nil {
		t.Fatal(err)
	}
	want := topKCols(out, k)
	sp, err := client.EncryptSparseBatch(px, classes)
	if err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.ServePredictions(ctx, l) }()

	cc, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hits, err := cc.PredictTopK(ctx, sp, k, time.Minute)
	if err != nil {
		t.Fatalf("PredictTopK over wire: %v", err)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}

	if len(hits) != px.Cols {
		t.Fatalf("got %d hit lists, want %d", len(hits), px.Cols)
	}
	codec := fixedpoint.Default()
	logit := func(label, j int) float64 {
		var acc float64
		for i := 0; i < features; i++ {
			acc += layer0.W.At(label, i) * px.At(i, j)
		}
		return acc
	}
	for j := range hits {
		if len(hits[j]) != k {
			t.Fatalf("sample %d: %d hits, want %d", j, len(hits[j]), k)
		}
		for r, h := range hits[j] {
			if h.Index != want[j][r] {
				t.Errorf("sample %d rank %d: wire label %d, plaintext label %d", j, r, h.Index, want[j][r])
			}
			if r > 0 && h.Value > hits[j][r-1].Value {
				t.Errorf("sample %d: values not descending at rank %d", j, r)
			}
			got := codec.DecodeProduct(h.Value)
			if ref := logit(h.Index, j); math.Abs(got-ref) > 1e-9 {
				t.Errorf("sample %d label %d: decoded logit %v, plaintext %v", j, h.Index, got, ref)
			}
		}
	}

	// In-process PredictTopK must agree with the wire path exactly.
	direct, err := srv.PredictTopK(sp, k)
	if err != nil {
		t.Fatal(err)
	}
	for j := range direct {
		for r := range direct[j] {
			if direct[j][r] != hits[j][r] {
				t.Errorf("sample %d rank %d: in-process %+v, wire %+v", j, r, direct[j][r], hits[j][r])
			}
		}
	}

	// Both requests derived masked keys on the coordinate-form path, one
	// per label row for each of three distinct supports: the samples of
	// support size 1 and 2 stay compact, the denser two are promoted to
	// full width and share one.
	if got, want := srv.engine.SparseStats().MaskedKeys, uint64(2*3*classes); got != want {
		t.Errorf("MaskedKeys = %d, want %d", got, want)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServePredictions: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServePredictions did not stop after cancellation")
	}
}

// TestTopKRequiresLinearModel pins the failure mode for non-linear
// servers: the in-process call errors, and over the wire the request
// fails per-request while dense prediction on the same connection keeps
// working.
func TestTopKRequiresLinearModel(t *testing.T) {
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
		Hidden:   []int{4},
		Epochs:   1,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ceng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(ceng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := tinyBatch(features, classes, 4)
	trainEnc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.train(context.Background(), []*core.EncryptedBatch{trainEnc}); err != nil {
		t.Fatal(err)
	}

	sp, err := client.EncryptSparseBatch(sparseTinyBatch(features, 2), classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.PredictTopK(sp, 2); err == nil {
		t.Fatal("PredictTopK on a hidden-layer model did not fail")
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.ServePredictions(ctx, l) }()

	cc, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.PredictTopK(ctx, sp, 2, time.Minute); err == nil {
		t.Error("top-k request against a hidden-layer server did not fail")
	}
	// Dense prediction still works on the same connection.
	px, py := tinyBatch(features, classes, 2)
	predEnc, err := client.EncryptBatch(px, py)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := cc.Predict(ctx, predEnc, time.Minute)
	if err != nil {
		t.Fatalf("dense Predict after failed top-k: %v", err)
	}
	if len(preds) != px.Cols {
		t.Fatalf("got %d predictions, want %d", len(preds), px.Cols)
	}
	if err := cc.Close(); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ServePredictions: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServePredictions did not stop after cancellation")
	}
}

// TestServingPathsShareOneSolver: Predict and PredictTopK on one linear
// server evaluate on the same *dlog.Solver, whichever is called first,
// whether the first calls race, and whether or not the server has trained:
// the server's one trainer sizes a feed-forward solver on the first serving
// call of an untrained server, keeps the larger training solver after
// training, and hands the same one to both paths rather than building two
// that merely have the same bound.
func TestServingPathsShareOneSolver(t *testing.T) {
	const (
		features = 6
		classes  = 3
	)
	for _, trained := range []bool{false, true} {
		for _, order := range []string{"predict first", "top-k first", "concurrent"} {
			auth, err := authority.New(group.TestParams(), authority.AllowAll())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(auth, Config{Features: features, Classes: classes, Linear: true, Epochs: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			ceng, err := newClientEngine(auth)
			if err != nil {
				t.Fatal(err)
			}
			client, err := core.NewClient(ceng, fixedpoint.Default(), nil)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := client.EncryptBatch(tinyBatch(features, classes, 2))
			if err != nil {
				t.Fatal(err)
			}
			sp, err := client.EncryptSparseBatch(sparseTinyBatch(features, 2), classes)
			if err != nil {
				t.Fatal(err)
			}
			// The bound the serving calls need; training takes a larger one.
			want := core.SolverBound(codec, features, 1, maxWeight, 1)
			if trained {
				if _, err := srv.train(context.Background(), []*core.EncryptedBatch{enc}); err != nil {
					t.Fatal(err)
				}
				want = max(want, core.SolverBound(codec, enc.N, 1, maxWeight, 100))
			}
			calls := []func() error{
				func() error { _, err := srv.Predict(enc); return err },
				func() error { _, err := srv.PredictTopK(sp, 2); return err },
			}
			switch order {
			case "top-k first":
				calls[0], calls[1] = calls[1], calls[0]
			case "concurrent":
				var wg sync.WaitGroup
				errs := make(chan error, 2*len(calls))
				for _, call := range append(calls, calls...) {
					wg.Add(1)
					go func() { defer wg.Done(); errs <- call() }()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := calls[0](); err != nil {
				t.Fatal(err)
			}
			eng := srv.trainer.Engine
			if err := calls[1](); err != nil {
				t.Fatal(err)
			}
			if s := eng.Solver(); s == nil || s.Bound() != want || srv.trainer.Engine != eng {
				t.Fatalf("trained=%v, %s: first call left engine %p (solver %v, want bound %d), second %p",
					trained, order, eng, s, want, srv.trainer.Engine)
			}
		}
	}
}

// TestTopKServesRetrainedWeights: the top-k weights are built on the first
// request and dropped whenever the server trains, so a request after a
// further training run scores the new W, value for value, not the one the
// first request encoded.
func TestTopKServesRetrainedWeights(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	const (
		features = 8
		classes  = 5
		k        = 3
	)
	srv, err := New(auth, Config{Features: features, Classes: classes, Linear: true, Epochs: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ceng, err := newClientEngine(auth)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(ceng, fixedpoint.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	px := sparseTinyBatch(features, 4)
	sp, err := client.EncryptSparseBatch(px, classes)
	if err != nil {
		t.Fatal(err)
	}
	// trainAndServe trains on one batch whose labels are shifted by shift,
	// snaps W to the codec grid and checks PredictTopK against the
	// plaintext model's logits.
	trainAndServe := func(shift int) [][]int64 {
		t.Helper()
		x, y := tinyBatch(features, classes, 6)
		for j := 0; j < y.Cols; j++ {
			for i := 0; i < classes; i++ {
				y.Set(i, j, 0)
			}
			y.Set((j+shift)%classes, j, 1)
		}
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.train(context.Background(), []*core.EncryptedBatch{enc}); err != nil {
			t.Fatal(err)
		}
		layer0 := snapToCodec(t, srv.Model())
		hits, err := srv.PredictTopK(sp, k)
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv.Model().Forward(px)
		if err != nil {
			t.Fatal(err)
		}
		want := topKCols(out, k)
		values := make([][]int64, len(hits))
		for j := range hits {
			for r, h := range hits[j] {
				var ref float64
				for i := 0; i < features; i++ {
					ref += layer0.W.At(h.Index, i) * px.At(i, j)
				}
				if h.Index != want[j][r] || math.Abs(fixedpoint.Default().DecodeProduct(h.Value)-ref) > 1e-9 {
					t.Errorf("shift %d sample %d rank %d: got label %d value %d, plaintext label %d logit %v",
						shift, j, r, h.Index, h.Value, want[j][r], ref)
				}
				values[j] = append(values[j], h.Value)
			}
		}
		return values
	}
	first := trainAndServe(0)
	second := trainAndServe(2)
	if slices.EqualFunc(first, second, slices.Equal) {
		t.Fatal("retraining left every top-k value unchanged; the test cannot tell stale weights from fresh ones")
	}
}
