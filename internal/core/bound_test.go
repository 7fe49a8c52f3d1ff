package core

import (
	"math/rand"
	"testing"

	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
)

// TestStepBoundMatchesCallerBounds pins the bound the trainer derives for
// itself to the bound each caller computed before the trainer sized its own
// solver, shape by shape, written out in those callers' terms.
func TestStepBoundMatchesCallerBounds(t *testing.T) {
	codec := fixedpoint.Default()
	sb := func(dim int, maxB, gradScale float64) int64 { return SolverBound(codec, dim, 1, maxB, gradScale) }
	rng := rand.New(rand.NewSource(1))
	mlp := func(in, hidden int) *nn.Model {
		m, err := nn.NewMLP(in, 10, []int{hidden}, nn.SoftmaxCrossEntropy{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cnn := func(side, filters int) *nn.Model {
		m, err := nn.NewConvNetSmall(side, filters, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		model   *nn.Model
		cfg     Config
		n       int // 0: a prediction step
		wantEta int
		want    int64
	}{
		// experiments.Train's scaled defaults: Pool 2, Hidden 16, batch 10;
		// the CNN run's batch is 8.
		{"experiments MLP default", mlp(196, 16), Config{MaxWeight: 4, GradScale: 100}, 10,
			196, max(sb(196, 4, 1), sb(10, 4, 100))},
		{"experiments CNN default", cnn(14, 2), Config{MaxWeight: 2, GradScale: 10}, 8,
			9, max(sb(1*3*3, 2, 1), sb(196, 2, 10))},
		// cryptonn-bench -paper: 784-32-10, batch 64.
		{"paper MLP", mlp(784, 32), Config{MaxWeight: 4, GradScale: 100}, 64,
			784, max(sb(784, 4, 1), sb(64, 4, 100))},
		// service.Server with cryptonn-server's defaults and a 16-sample
		// batch, and its serving engine (feed-forward only).
		{"service train", mlp(784, 32), Config{MaxWeight: 4}, 16,
			784, max(sb(784, 4, 1), sb(16, 4, 100))},
		{"service serve", mlp(784, 32), Config{MaxWeight: 4}, 0,
			784, sb(784, 4, 1)},
		// The benchmark's train_mlp and train_cnn steps.
		{"train_mlp", mlp(196, 8), Config{MaxWeight: 4, GradScale: 100}, 8,
			196, max(sb(196, 4, 1), sb(8, 4, 100))},
		{"train_cnn", cnn(14, 2), Config{MaxWeight: 2, GradScale: 10}, 3,
			9, max(sb(3*3, 2, 1), sb(196, 2, 10))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Trainer{Model: tc.model, cfg: tc.cfg}
			tr.cfg.fillDefaults()
			eta, got := tr.stepBound(tc.n)
			if eta != tc.wantEta || got != tc.want {
				t.Errorf("stepBound(%d) = (%d, %d), want (%d, %d)", tc.n, eta, got, tc.wantEta, tc.want)
			}
		})
	}
}
