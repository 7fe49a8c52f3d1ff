package wire

// Chaos test: a full CryptoNN training run backed by a 5-node threshold
// authority cluster over real TCP, with ⌊N−T⌋ = 2 nodes killed mid-run.
// The run must complete, and — because function keys are interchangeable
// regardless of which quorum derived them — the final model weights must
// be bit-identical to a run backed by a plain in-process authority with
// the same seeds.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// trainToy runs the reference training loop against the given key service
// and returns the final model.
func trainToy(t *testing.T, keys securemat.KeyService, onIteration func(it int)) *nn.Model {
	t.Helper()
	solver, err := dlog.NewSolver(group.TestParams(), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng = eng.WithSolver(solver)
	const seed = 42
	model, err := nn.NewMLP(4, 3, []int{6}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{ComputeLoss: true})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y := chaosBlobs(rand.New(rand.NewSource(7)), 4, 12)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.5, 0)
	for it := 0; it < 8; it++ {
		res, err := trainer.TrainBatch(enc, opt)
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if math.IsNaN(res.Loss) {
			t.Fatalf("iteration %d: NaN loss", it)
		}
		if onIteration != nil {
			onIteration(it)
		}
	}
	return model
}

func chaosBlobs(rng *rand.Rand, features, n int) (*tensor.Dense, *tensor.Dense) {
	x := tensor.NewDense(features, n)
	y := tensor.NewDense(3, n)
	centers := [][]float64{{0.8, 0.1}, {0.1, 0.8}, {0.8, 0.8}}
	for j := 0; j < n; j++ {
		c := j % 3
		for i := 0; i < features; i++ {
			x.Set(i, j, centers[c][i%2]+rng.NormFloat64()*0.08)
		}
		y.Set(c, j, 1)
	}
	return x, y
}

func TestChaosTrainingSurvivesNodeKills(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos training run in -short mode")
	}
	before := runtime.NumGoroutine()

	// Baseline: in-process single authority, same seeds.
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	baseline := trainToy(t, auth, nil)

	// Cluster run: N=5, T=3, kill two node servers after the second
	// iteration; the remaining three must carry the rest of the run.
	tc := startCluster(t, 3, 5, 99)
	tm := quickTimings
	tm.timeout = time.Second
	q, err := newQuorumKeyService(tc.dialers(), quickOpts(), tm)
	if err != nil {
		t.Fatalf("NewQuorumKeyService: %v", err)
	}
	killed := false
	secure := trainToy(t, q, func(it int) {
		if it == 1 && !killed {
			killed = true
			_ = tc.servers[1].Close()
			_ = tc.servers[4].Close()
		}
	})
	if !killed {
		t.Fatal("kill hook never ran")
	}

	// Function keys for the same function are identical whichever quorum
	// derives them, so both runs decrypt the same values and step the
	// same gradients: the weights must match bit for bit.
	if len(secure.Layers) != len(baseline.Layers) {
		t.Fatalf("layer count mismatch: %d vs %d", len(secure.Layers), len(baseline.Layers))
	}
	for li := range secure.Layers {
		sl, ok1 := secure.Layers[li].(*nn.DenseLayer)
		bl, ok2 := baseline.Layers[li].(*nn.DenseLayer)
		if !ok1 || !ok2 {
			continue
		}
		for name, pair := range map[string][2]*tensor.Dense{
			"W": {sl.W, bl.W},
			"B": {sl.B, bl.B},
		} {
			s, b := pair[0], pair[1]
			if s.Rows != b.Rows || s.Cols != b.Cols {
				t.Fatalf("layer %d %s: shape mismatch", li, name)
			}
			for i := 0; i < s.Rows; i++ {
				for j := 0; j < s.Cols; j++ {
					sv, bv := s.At(i, j), b.At(i, j)
					if sv != bv {
						t.Fatalf("layer %d %s[%d,%d]: quorum-trained %v != baseline %v", li, name, i, j, sv, bv)
					}
				}
			}
		}
	}

	if q.RoundTrips() == 0 {
		t.Error("quorum service recorded no round trips")
	}

	// Tear down and verify no goroutines leaked from the quorum client,
	// fault machinery, or node servers.
	if err := q.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	tc.stop()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
