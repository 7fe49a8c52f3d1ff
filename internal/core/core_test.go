package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// newFixture builds a secure compute session over an in-process authority
// with a solver at the given bound. The engine runs on GOMAXPROCS workers,
// so `make race -cpu 1,2,4` sees the trainer's secure steps on its parallel
// pipelines.
func newFixture(t testing.TB, bound int64) *securemat.Engine {
	t.Helper()
	return newFixtureAt(t, group.TestParams(), bound)
}

// newFixtureAt is newFixture over the group params.
func newFixtureAt(t testing.TB, params *group.Params, bound int64) *securemat.Engine {
	t.Helper()
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		t.Fatalf("authority.New: %v", err)
	}
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		t.Fatalf("dlog.NewSolver: %v", err)
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatalf("securemat.NewEngine: %v", err)
	}
	return eng.WithSolver(solver)
}

// blobData builds a linearly separable-ish 3-class toy problem.
func blobData(rng *rand.Rand, features, n int) (*tensor.Dense, *tensor.Dense, []int) {
	x := tensor.NewDense(features, n)
	y := tensor.NewDense(3, n)
	labels := make([]int, n)
	centers := [][]float64{{0.8, 0.1}, {0.1, 0.8}, {0.8, 0.8}}
	for j := 0; j < n; j++ {
		c := j % 3
		labels[j] = c
		for i := 0; i < features; i++ {
			base := centers[c][i%2]
			x.Set(i, j, base+rng.NormFloat64()*0.08)
		}
		y.Set(c, j, 1)
	}
	return x, y, labels
}

func TestLabelMap(t *testing.T) {
	m, err := core.NewLabelMap(10, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for l := 0; l < 10; l++ {
		masked, err := m.Apply(l)
		if err != nil {
			t.Fatal(err)
		}
		if seen[masked] {
			t.Fatal("not a permutation")
		}
		seen[masked] = true
		back, err := m.Invert(masked)
		if err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Fatalf("Invert(Apply(%d)) = %d", l, back)
		}
	}
	// Deterministic from the key.
	m2, err := core.NewLabelMap(10, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 10; l++ {
		a, _ := m.Apply(l)
		b, _ := m2.Apply(l)
		if a != b {
			t.Fatal("same key must derive the same permutation")
		}
	}
	// Different keys almost surely differ somewhere.
	m3, err := core.NewLabelMap(10, []byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for l := 0; l < 10; l++ {
		a, _ := m.Apply(l)
		b, _ := m3.Apply(l)
		if a != b {
			same = false
		}
	}
	if same {
		t.Error("different keys produced identical permutations")
	}
	if _, err := m.Apply(-1); !errors.Is(err, core.ErrLabelRange) {
		t.Error("negative label should fail")
	}
	if _, err := m.Invert(10); !errors.Is(err, core.ErrLabelRange) {
		t.Error("out-of-range inversion should fail")
	}
	if _, err := core.NewLabelMap(0, []byte("k")); err == nil {
		t.Error("zero classes should fail")
	}
	if _, err := core.NewLabelMap(3, nil); err == nil {
		t.Error("empty key should fail")
	}
	var all []int
	for l := 0; l < 3; l++ {
		masked, _ := m.Apply(l)
		all = append(all, masked)
	}
	back, err := m.InvertAll(all)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back {
		if v != i {
			t.Fatal("Apply/InvertAll round trip broken")
		}
	}
}

func TestEncryptBatchShapes(t *testing.T) {
	eng := newFixture(t, 1000)
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x, y, _ := blobData(rng, 4, 6)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Features != 4 || enc.Classes != 3 || enc.N != 6 {
		t.Errorf("dims %d/%d/%d", enc.Features, enc.Classes, enc.N)
	}
	if !enc.X.HasRows() {
		t.Error("X must be dual-encrypted")
	}
	if enc.X.HasElems() {
		t.Error("X should not carry FEBO elements")
	}
	if !enc.Y.HasElems() {
		t.Error("Y must carry FEBO elements")
	}
	// Mismatched columns.
	if _, err := client.EncryptBatch(x, tensor.NewDense(3, 2)); err == nil {
		t.Error("mismatched batch should fail")
	}
}

// TestEncryptPredictBatch pins the prediction request: column ciphertexts
// only, and the same predictions as a full training batch of the same
// inputs.
func TestEncryptPredictBatch(t *testing.T) {
	eng := newFixture(t, 50_000_000)
	rng := rand.New(rand.NewSource(3))
	model, err := nn.NewMLP(4, 3, []int{5}, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := blobData(rng, 4, 6)
	enc, err := client.EncryptPredictBatch(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Features != 4 || enc.Classes != 3 || enc.N != 6 {
		t.Errorf("dims %d/%d/%d", enc.Features, enc.Classes, enc.N)
	}
	if enc.Y != nil || enc.X.RowCts != nil || enc.X.Elems != nil {
		t.Error("a prediction batch carries column ciphertexts only")
	}
	full, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trainer.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := trainer.Predict(full)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.MaskedPreds, want.MaskedPreds) {
		t.Errorf("predictions %v, want %v from the training batch", got.MaskedPreds, want.MaskedPreds)
	}
	if _, err := client.EncryptPredictBatch(x, 0); err == nil {
		t.Error("zero classes accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := core.NewClient(nil, nil, nil); err == nil {
		t.Error("nil engine should fail")
	}
}

func TestSecurePredictMatchesPlaintextForward(t *testing.T) {
	eng := newFixture(t, 50_000_000)
	rng := rand.New(rand.NewSource(2))
	model, err := nn.NewMLP(4, 3, []int{5}, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := blobData(rng, 4, 5)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := model.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization at 2 decimals: outputs agree to ~1e-2.
	if !almostEqual(res.Output, plain, 0.05) {
		t.Error("secure forward diverges from plaintext forward beyond quantization")
	}
	plainPreds := make([]int, plain.Cols)
	for j := range plainPreds {
		plainPreds[j] = plain.ArgMaxCol(j)
	}
	for j := range plainPreds {
		if res.MaskedPreds[j] != plainPreds[j] {
			t.Errorf("prediction %d differs", j)
		}
	}
}

func TestCryptoNNTrainingParityWithPlaintext(t *testing.T) {
	// The paper's core claim (Fig. 6 / Table III): a model trained through
	// the secure steps reaches accuracy similar to the same model trained
	// on plaintext. Train twin models from identical initialisation.
	eng := newFixture(t, 100_000_000)
	const seed = 42
	secureModel, err := nn.NewMLP(4, 3, []int{6}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	plainModel, err := nn.NewMLP(4, 3, []int{6}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}

	trainer, err := core.NewTrainer(secureModel, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	x, y, labels := blobData(rng, 4, 12)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}

	optSecure, _ := nn.NewSGD(0.5, 0)
	optPlain, _ := nn.NewSGD(0.5, 0)
	var secureLoss, plainLoss float64
	for it := 0; it < 15; it++ {
		res, err := trainer.TrainBatch(enc, optSecure)
		if err != nil {
			t.Fatalf("secure iteration %d: %v", it, err)
		}
		secureLoss = res.Loss
		plainLoss, err = plainModel.TrainBatch(x, y, optPlain)
		if err != nil {
			t.Fatal(err)
		}
	}
	if math.IsNaN(secureLoss) {
		t.Fatal("loss not computed")
	}
	// Loss trajectories must be close (quantization-level drift only).
	if math.Abs(secureLoss-plainLoss) > 0.15*(1+plainLoss) {
		t.Errorf("loss diverged: secure %v vs plain %v", secureLoss, plainLoss)
	}
	// Both models should classify the toy data correctly.
	res, err := trainer.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for j, p := range res.MaskedPreds {
		if p == labels[j] {
			correct++
		}
	}
	secureAcc := float64(correct) / float64(len(labels))
	plainAcc, err := plainModel.Accuracy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(secureAcc-plainAcc) > 0.2 {
		t.Errorf("accuracy gap: secure %v vs plain %v", secureAcc, plainAcc)
	}
	if secureAcc < 0.8 {
		t.Errorf("secure accuracy %v too low", secureAcc)
	}
}

func TestTrainingWithLabelMapLearnsPermutedClasses(t *testing.T) {
	eng := newFixture(t, 100_000_000)
	lm, err := core.NewLabelMap(3, []byte("clinic-shared-key"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewMLP(4, 3, []int{6}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, lm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x, y, labels := blobData(rng, 4, 12)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.5, 0)
	for it := 0; it < 15; it++ {
		if _, err := trainer.TrainBatch(enc, opt); err != nil {
			t.Fatal(err)
		}
	}
	res, err := trainer.Predict(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Masked predictions must match the *mapped* labels; inverted ones the
	// true labels.
	inverted, err := lm.InvertAll(res.MaskedPreds)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for j := range labels {
		if inverted[j] == labels[j] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(labels)); acc < 0.8 {
		t.Errorf("accuracy after unmasking = %v", acc)
	}
}

func TestMSEHeadBinaryClassifier(t *testing.T) {
	// The §III-D walkthrough: sigmoid output, half squared error.
	eng := newFixture(t, 100_000_000)
	model, err := nn.NewBinaryClassifier(2, 4, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// XOR-ish separable data.
	x := fromRows([][]float64{{0.1, 0.9, 0.1, 0.9}, {0.1, 0.1, 0.9, 0.9}})
	y := fromRows([][]float64{{0, 1, 1, 1}}) // OR function
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(2.0, 0.9)
	var first, last float64
	for it := 0; it < 60; it++ {
		res, err := trainer.TrainBatch(enc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = res.Loss
		}
		last = res.Loss
	}
	if math.IsNaN(last) {
		t.Fatal("MSE head must always report loss")
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestCryptoCNNTrainsTinyConvNet(t *testing.T) {
	eng := newFixture(t, 100_000_000)
	rng := rand.New(rand.NewSource(6))
	conv, err := nn.NewConv(1, 6, 6, 2, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nn.NewAvgPool(2, 6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewModel(36, nn.SoftmaxCrossEntropy{},
		conv, nn.NewTanh(), pool, nn.NewDense(2*3*3, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	// Twin plaintext model, identical init.
	rng2 := rand.New(rand.NewSource(6))
	conv2, err := nn.NewConv(1, 6, 6, 2, 3, 1, 1, rng2)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := nn.NewAvgPool(2, 6, 6, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := nn.NewModel(36, nn.SoftmaxCrossEntropy{},
		conv2, nn.NewTanh(), pool2, nn.NewDense(2*3*3, 3, rng2))
	if err != nil {
		t.Fatal(err)
	}

	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng3 := rand.New(rand.NewSource(9))
	x, y, _ := blobData(rng3, 36, 3)
	enc, err := client.EncryptConvBatch(x, y, 1, 6, 6, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	optS, _ := nn.NewSGD(0.3, 0)
	optP, _ := nn.NewSGD(0.3, 0)
	for it := 0; it < 4; it++ {
		res, err := trainer.TrainConvBatch(enc, optS)
		if err != nil {
			t.Fatalf("secure conv iteration %d: %v", it, err)
		}
		// Both outputs are the forward pass before this iteration's update.
		plainOut, err := plain.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(res.Output, plainOut, 0.15) {
			t.Errorf("iteration %d: secure conv forward diverged from plaintext", it)
		}
		if _, err := plain.TrainBatch(x, y, optP); err != nil {
			t.Fatal(err)
		}
	}
	// After identical training, conv filters must stay close to the
	// plaintext twin (quantization drift only).
	if !almostEqual(conv.W, conv2.W, 0.05) {
		t.Error("secure conv filters diverged from plaintext twin")
	}
}

func TestTrainerRejectsWrongLayerKinds(t *testing.T) {
	eng := newFixture(t, 1000)
	rng := rand.New(rand.NewSource(1))
	mlp, err := nn.NewMLP(4, 3, nil, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(mlp, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.TrainConvBatch(&core.EncryptedConvBatch{}, nil); err == nil {
		t.Error("conv batch on dense model should fail")
	}
	// Feature mismatch.
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(5, 2)
	y := tensor.NewDense(3, 2)
	y.Set(0, 0, 1)
	y.Set(1, 1, 1)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.TrainBatch(enc, nil); err == nil {
		t.Error("feature mismatch should fail")
	}
	if _, err := trainer.Predict(enc); err == nil {
		t.Error("feature mismatch on predict should fail")
	}
}

// TestSelfSizedSolverMatchesCallerSized: MLP and CNN steps through an
// engine without a solver train to the same weights and losses, bit for
// bit, as through an engine the caller sized with SolverBound. The
// pre-sized engine keeps its solver; the solver-less one builds a new one
// only when a batch needs a larger bound (a larger dense batch, never a
// conv batch or a prediction after training).
func TestSelfSizedSolverMatchesCallerSized(t *testing.T) {
	const classes = 3
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := securemat.NewEngine(auth, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(bare, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{}
	sb := func(dim int, maxB, gradScale float64) int64 { return core.SolverBound(nil, dim, 1, maxB, gradScale) }
	rng := rand.New(rand.NewSource(41))

	// run trains a caller-sized and a self-sized twin over the same
	// batches and returns the self-sized trainer's solver bound after
	// each step.
	run := func(t *testing.T, build func(*rand.Rand) *nn.Model, bound int64,
		step func(*core.Trainer, int, nn.Optimizer) (*core.Result, error), batches int) (*core.Trainer, []int64) {
		t.Helper()
		solver, err := dlog.NewSolver(group.TestParams(), bound)
		if err != nil {
			t.Fatal(err)
		}
		sized := bare.WithSolver(solver)
		callerModel, selfModel := build(rand.New(rand.NewSource(7))), build(rand.New(rand.NewSource(7)))
		callerTr, err := core.NewTrainer(callerModel, sized, cfg)
		if err != nil {
			t.Fatal(err)
		}
		selfTr, err := core.NewTrainer(selfModel, bare, cfg)
		if err != nil {
			t.Fatal(err)
		}
		optCaller, _ := nn.NewSGD(0.3, 0)
		optSelf, _ := nn.NewSGD(0.3, 0)
		var bounds []int64
		for i := 0; i < batches; i++ {
			want, err := step(callerTr, i, optCaller)
			if err != nil {
				t.Fatal(err)
			}
			got, err := step(selfTr, i, optSelf)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Loss) != math.Float64bits(want.Loss) {
				t.Errorf("batch %d loss: self-sized %v, caller-sized %v", i, got.Loss, want.Loss)
			}
			bounds = append(bounds, selfTr.Engine.Solver().Bound())
		}
		if callerTr.Engine != sized {
			t.Error("the caller-sized engine's solver was replaced")
		}
		for l, layer := range callerModel.Layers {
			for p, param := range layer.Params() {
				requireSameBits(t, fmt.Sprintf("layer %d %s", l, param.Name),
					selfModel.Layers[l].Params()[p].Value.Data, param.Value.Data)
			}
		}
		return selfTr, bounds
	}

	t.Run("dense", func(t *testing.T) {
		const features = 6
		sizes := []int{2, 5}
		var encs []*core.EncryptedBatch
		for _, n := range sizes {
			x, y := randomBatch(rng, features, classes, n)
			enc, err := client.EncryptBatch(x, y)
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc)
		}
		build := func(rng *rand.Rand) *nn.Model {
			m, err := nn.NewMLP(features, classes, []int{4}, nn.SoftmaxCrossEntropy{}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		grad := func(n int) int64 { return max(sb(features, 8, 1), sb(n, 8, 100)) }
		tr, bounds := run(t, build, grad(5),
			func(tr *core.Trainer, i int, opt nn.Optimizer) (*core.Result, error) {
				return tr.TrainBatch(encs[i], opt)
			},
			len(encs))
		if want := []int64{grad(2), grad(5)}; !slices.Equal(bounds, want) {
			t.Errorf("self-sized bounds %v, want %v", bounds, want)
		}
		eng := tr.Engine
		if _, err := tr.Predict(encs[0]); err != nil {
			t.Fatal(err)
		}
		if tr.Engine != eng {
			t.Error("a prediction after training replaced the solver")
		}
	})

	t.Run("conv", func(t *testing.T) {
		const side = 6
		var encs []*core.EncryptedConvBatch
		for _, n := range []int{2, 3} {
			x, y := randomBatch(rng, side*side, classes, n)
			enc, err := client.EncryptConvBatch(x, y, 1, side, side, 3, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc)
		}
		build := func(rng *rand.Rand) *nn.Model {
			conv, err := nn.NewConv(1, side, side, 2, 3, 1, 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			m, err := nn.NewModel(conv.InSize(), nn.SoftmaxCrossEntropy{},
				conv, nn.NewTanh(), nn.NewDense(conv.OutSize(), classes, rng))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		bound := max(sb(3*3, 8, 1), sb(side*side, 8, 100))
		_, bounds := run(t, build, bound,
			func(tr *core.Trainer, i int, opt nn.Optimizer) (*core.Result, error) {
				return tr.TrainConvBatch(encs[i], opt)
			},
			len(encs))
		if want := []int64{bound, bound}; !slices.Equal(bounds, want) {
			t.Errorf("self-sized bounds %v, want %v", bounds, want)
		}
	})
}

func TestNewTrainerValidation(t *testing.T) {
	eng := newFixture(t, 1000)
	rng := rand.New(rand.NewSource(1))
	m, err := nn.NewMLP(2, 2, nil, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewTrainer(nil, eng, core.Config{}); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := core.NewTrainer(m, nil, core.Config{}); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := core.NewTrainer(m, eng.WithSolver(nil), core.Config{}); err != nil {
		t.Errorf("engine without solver: %v", err)
	}
}

func TestSolverBound(t *testing.T) {
	codec := fixedpoint.Default()
	b := core.SolverBound(codec, 784, 1, 8, 100)
	// 784 * (1*100) * (8*100) * 100 + 1
	want := int64(784)*100*800*100 + 1
	if b != want {
		t.Errorf("SolverBound = %d, want %d", b, want)
	}
	if core.SolverBound(nil, 10, 1, 1, 0) <= 0 {
		t.Error("defaults must yield a positive bound")
	}
}

// TestSolverBoundSaturates: a product beyond int64 (nine-digit codec, 150
// features, MaxWeight 4 → 6·10²⁰) must come back as MaxInt64 on every
// platform, not as whatever the out-of-range float conversion yields, and
// the solver must turn that bound down with an error.
func TestSolverBoundSaturates(t *testing.T) {
	codec, err := fixedpoint.New(9)
	if err != nil {
		t.Fatal(err)
	}
	b := core.SolverBound(codec, 150, 1, 4, 1)
	if b != math.MaxInt64 {
		t.Fatalf("SolverBound = %d, want saturation at MaxInt64", b)
	}
	if _, err := dlog.NewSolver(group.TestParams(), b); err == nil {
		t.Error("NewSolver accepted a saturated bound")
	}
}

func TestEncryptConvBatchGeometryValidation(t *testing.T) {
	eng := newFixture(t, 1000)
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(36, 2)
	y := tensor.NewDense(3, 2)
	if _, err := client.EncryptConvBatch(x, y, 1, 7, 7, 3, 1, 1); err == nil {
		t.Error("feature/geometry mismatch should fail")
	}
	if _, err := client.EncryptConvBatch(x, y, 1, 6, 6, 4, 3, 0); err == nil {
		t.Error("non-tiling conv should fail")
	}
	if _, err := client.EncryptConvBatch(x, tensor.NewDense(3, 5), 1, 6, 6, 3, 1, 1); err == nil {
		t.Error("label column mismatch should fail")
	}
}

// tinyConvFixture builds a 1×4×4 → 2-filter k3 s1 p1 conv model, a trainer
// over eng, and one encrypted batch of n samples.
func tinyConvFixture(t *testing.T, eng *securemat.Engine, n int) (*core.Trainer, *core.EncryptedConvBatch) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	conv, err := nn.NewConv(1, 4, 4, 2, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewModel(16, nn.SoftmaxCrossEntropy{}, conv, nn.NewTanh(), nn.NewDense(conv.OutSize(), 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := blobData(rng, 16, n)
	enc, err := client.EncryptConvBatch(x, y, 1, 4, 4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return trainer, enc
}

// A conv batch whose ciphertext slices disagree with its own header (it may
// come off a socket) is refused with ErrShape before anything is indexed.
func TestConvBatchShapeValidation(t *testing.T) {
	trainer, good := tinyConvFixture(t, newFixture(t, 100_000_000), 2)
	short := func(cts []*feip.Ciphertext) []*feip.Ciphertext { return cts[:len(cts)-1] }
	for _, tc := range []struct {
		name    string
		corrupt func(b *core.EncryptedConvBatch)
	}{
		{name: "fewer window lists than N", corrupt: func(b *core.EncryptedConvBatch) { b.Windows = b.Windows[:1] }},
		{name: "fewer position lists than N", corrupt: func(b *core.EncryptedConvBatch) { b.Positions = b.Positions[:1] }},
		{name: "N beyond the lists", corrupt: func(b *core.EncryptedConvBatch) { b.N = 3 }},
		{name: "sample short of a window", corrupt: func(b *core.EncryptedConvBatch) {
			b.Windows = [][]*feip.Ciphertext{b.Windows[0], short(b.Windows[1])}
		}},
		{name: "sample short of a position row", corrupt: func(b *core.EncryptedConvBatch) {
			b.Positions = [][]*feip.Ciphertext{short(b.Positions[0]), b.Positions[1]}
		}},
		{name: "labels for another batch size", corrupt: func(b *core.EncryptedConvBatch) {
			y := *b.Y
			y.Cols = 3
			b.Y = &y
		}},
		{name: "no labels", corrupt: func(b *core.EncryptedConvBatch) { b.Y = nil }},
		{name: "labels short of an element", corrupt: func(b *core.EncryptedConvBatch) {
			y := *b.Y
			y.Elems = slices.Clone(y.Elems)
			y.Elems[1] = y.Elems[1][:len(y.Elems[1])-1]
			b.Y = &y
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *good
			tc.corrupt(&bad)
			opt, _ := nn.NewSGD(0.1, 0)
			if _, err := trainer.TrainConvBatch(&bad, opt); !errors.Is(err, securemat.ErrShape) {
				t.Errorf("TrainConvBatch: err = %v, want ErrShape", err)
			}
		})
	}
}

// The trainer sizes its solver for inputs with |x| ≤ 1; a client input far
// beyond that overflows the forward products, which surfaces as
// dlog.ErrNotFound carrying the phase and the engine's cell coordinates.
func TestConvTrainingReportsOutOfBoundCell(t *testing.T) {
	eng := newFixture(t, 2)
	trainer, _ := tinyConvFixture(t, eng, 1)
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(16, 1)
	for i := range x.Data {
		x.Data[i] = 1e5
	}
	y := tensor.NewDense(3, 1)
	y.Set(0, 0, 1)
	enc, err := client.EncryptConvBatch(x, y, 1, 4, 4, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.1, 0)
	_, err = trainer.TrainConvBatch(enc, opt)
	if !errors.Is(err, dlog.ErrNotFound) {
		t.Fatalf("err = %v, want dlog.ErrNotFound", err)
	}
	for _, want := range []string{"secure conv forward", "cell ("} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// fromRows builds a matrix from rectangular row slices.
func fromRows(rows [][]float64) *tensor.Dense {
	d := tensor.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(d.Data[i*d.Cols:(i+1)*d.Cols], r)
	}
	return d
}

// almostEqual reports element-wise equality within tol.
func almostEqual(a, b *tensor.Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// keyRecorder is a KeyService that records what it is asked for: per
// dimension η, the FEIP public keys, and every function-key vector with the
// key it was given; and the number of FEBO keys.
type keyRecorder struct {
	securemat.BatchKeyService
	mu      sync.Mutex
	publics map[int]int
	ys      map[int][][]int64
	keys    map[int][]*feip.FunctionKey
	boKeys  int
}

func newKeyRecorder(ks securemat.BatchKeyService) *keyRecorder {
	r := &keyRecorder{BatchKeyService: ks}
	r.reset()
	return r
}

// reset forgets every request recorded so far.
func (r *keyRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publics, r.ys, r.keys, r.boKeys = map[int]int{}, map[int][][]int64{}, map[int][]*feip.FunctionKey{}, 0
}

// requests is the number of requests of any kind recorded since the last
// reset.
func (r *keyRecorder) requests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.boKeys
	for _, c := range r.publics {
		n += c
	}
	for _, ys := range r.ys {
		n += len(ys)
	}
	return n
}

func (r *keyRecorder) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	r.mu.Lock()
	r.publics[eta]++
	r.mu.Unlock()
	return r.BatchKeyService.FEIPPublic(eta)
}

func (r *keyRecorder) IPKey(y []int64) (*feip.FunctionKey, error) {
	k, err := r.BatchKeyService.IPKey(y)
	if err == nil {
		r.record([][]int64{y}, []*feip.FunctionKey{k})
	}
	return k, err
}

func (r *keyRecorder) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	keys, err := r.BatchKeyService.IPKeyBatch(ys)
	if err == nil {
		r.record(ys, keys)
	}
	return keys, err
}

func (r *keyRecorder) record(ys [][]int64, keys []*feip.FunctionKey) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, y := range ys {
		r.ys[len(y)] = append(r.ys[len(y)], slices.Clone(y))
		r.keys[len(y)] = append(r.keys[len(y)], keys[i])
	}
}

func (r *keyRecorder) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	r.mu.Lock()
	r.boKeys++
	r.mu.Unlock()
	return r.BatchKeyService.BOKey(cmt, op, y)
}

func (r *keyRecorder) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	r.mu.Lock()
	r.boKeys += len(ys)
	r.mu.Unlock()
	return r.BatchKeyService.BOKeyBatch(cmts, op, ys)
}

// The loss is taken from the decrypted Y − P, so no part of a training step
// asks for a FEIP key of the label dimension: at a shape where the class
// count is neither the batch size nor the feature count, encrypting and
// training one batch requests no public key and no function key at
// η = classes, and still reports a finite loss.
func TestTrainingRequestsNoKeyAtClassDimension(t *testing.T) {
	const features, n, classes = 4, 5, 3 // blobData draws 3 classes
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	rec := newKeyRecorder(auth)
	eng, err := securemat.NewEngine(rec, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewMLP(features, classes, []int{6}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := blobData(rand.New(rand.NewSource(5)), features, n)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := nn.NewSGD(0.3, 0)
	res, err := trainer.TrainBatch(enc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
		t.Errorf("loss %v, want a finite value", res.Loss)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.publics[classes] != 0 || len(rec.ys[classes]) != 0 {
		t.Errorf("η = %d (classes): %d public-key and %d function-key requests, want none",
			classes, rec.publics[classes], len(rec.ys[classes]))
	}
	// The recorder does see the step: forward keys at η = features,
	// gradient keys at η = n.
	if len(rec.ys[features]) == 0 || len(rec.ys[n]) == 0 {
		t.Errorf("function keys at η = %d: %d, at η = %d: %d, want some at both",
			features, len(rec.ys[features]), n, len(rec.ys[n]))
	}
}

// A dense batch whose labels do not cover classes × N is refused with
// securemat.ErrShape before the step asks the authority for anything: no
// public key, no function key, no FEBO key.
func TestTrainBatchChecksLabelsBeforeAnyKey(t *testing.T) {
	const features, n, classes = 4, 6, 3 // blobData draws 3 classes
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	rec := newKeyRecorder(auth)
	eng, err := securemat.NewEngine(rec, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewMLP(features, classes, []int{5}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := blobData(rand.New(rand.NewSource(5)), features, n)
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		t.Fatal(err)
	}
	enc.Y.Cols = n - 1
	for i := range enc.Y.Elems {
		enc.Y.Elems[i] = enc.Y.Elems[i][:n-1]
	}
	rec.reset()
	opt, _ := nn.NewSGD(0.3, 0)
	if _, err := trainer.TrainBatch(enc, opt); !errors.Is(err, securemat.ErrShape) {
		t.Fatalf("labels for %d of %d samples: got %v, want securemat.ErrShape", n-1, n, err)
	}
	if got := rec.requests(); got != 0 {
		t.Errorf("the refused step made %d key requests, want none", got)
	}
}

// rankModP is the rank of the vectors mod the prime p, by Gaussian
// elimination; pivots, when not nil, receives the index of each vector
// that raised the rank.
func rankModP(vs [][]int64, p *big.Int, pivots *[]int) int {
	var basis [][]*big.Int // reduced rows, each with its leading column
	var lead []int
	for idx, v := range vs {
		row := make([]*big.Int, len(v))
		for j, x := range v {
			row[j] = new(big.Int).Mod(big.NewInt(x), p)
		}
		for b, br := range basis {
			if c := row[lead[b]]; c.Sign() != 0 {
				f := new(big.Int).Set(c)
				for j := range row {
					row[j].Mod(row[j].Sub(row[j], new(big.Int).Mul(f, br[j])), p)
				}
			}
		}
		at := slices.IndexFunc(row, func(x *big.Int) bool { return x.Sign() != 0 })
		if at < 0 {
			continue
		}
		inv := new(big.Int).ModInverse(row[at], p)
		for j := range row {
			row[j].Mod(row[j].Mul(row[j], inv), p)
		}
		basis, lead = append(basis, row), append(lead, at)
		if pivots != nil {
			*pivots = append(*pivots, idx)
		}
	}
	return len(basis)
}

// solveModP solves a·x = b mod the prime p for a square, invertible a, by
// Gauss–Jordan elimination, and returns x with each entry taken in
// (−p/2, p/2].
func solveModP(a [][]int64, b []int64, p *big.Int) []int64 {
	n := len(a)
	m := make([][]*big.Int, n)
	for i := range m {
		m[i] = make([]*big.Int, n+1)
		for j := range n {
			m[i][j] = new(big.Int).Mod(big.NewInt(a[i][j]), p)
		}
		m[i][n] = new(big.Int).Mod(big.NewInt(b[i]), p)
	}
	for c := range n {
		pr := c
		for m[pr][c].Sign() == 0 {
			pr++
		}
		m[c], m[pr] = m[pr], m[c]
		inv := new(big.Int).ModInverse(m[c][c], p)
		for j := range m[c] {
			m[c][j].Mod(m[c][j].Mul(m[c][j], inv), p)
		}
		for i := range m {
			if i == c || m[i][c].Sign() == 0 {
				continue
			}
			f := new(big.Int).Set(m[i][c])
			for j := range m[i] {
				m[i][j].Mod(m[i][j].Sub(m[i][j], new(big.Int).Mul(f, m[c][j])), p)
			}
		}
	}
	half := new(big.Int).Rsh(p, 1)
	x := make([]int64, n)
	for i := range x {
		v := m[i][n]
		if v.Cmp(half) > 0 {
			v = new(big.Int).Sub(v, p)
		}
		x[i] = v.Int64()
	}
	return x
}

// What the gradient keys reveal (ROADMAP item 12), at train_mlp's shape:
// 196-8-10, batch 8, the 64-bit test group. Each step the server receives
// one gradient key per hidden unit, a vector of dimension η = batch; once
// the vectors pooled over the run span that space mod a prime — hidden ×
// steps ≥ batch is needed, and here one step suffices — their keys decrypt
// any row ciphertext encrypted under the η = batch master key. The test
// pins the step at which the rank mod 2⁶¹−1 first reaches 8, then takes
// eight independent keys, decrypts every row ciphertext of a batch the
// model never trained on with feip.Decrypt and the trainer's own solver,
// solves each 8×8 system mod 2⁶¹−1 and requires the client's fixed-point
// encoding of that batch, value for value.
func TestGradientKeysDecryptAnUnseenBatch(t *testing.T) {
	const hidden, batch, pool, seed, maxSteps, pinnedStep = 8, 8, 2, 11, 4, 1
	features := (mnist.Side / pool) * (mnist.Side / pool)
	prime := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 61), big.NewInt(1))
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	rec := newKeyRecorder(auth)
	eng, err := securemat.NewEngine(rec, securemat.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := nn.NewMLP(features, mnist.Classes, []int{hidden}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := mnist.Synthetic((maxSteps+1)*batch, seed)
	if err != nil {
		t.Fatal(err)
	}
	encrypt := func(from int) (*core.EncryptedBatch, *tensor.Dense) {
		x, y, err := ds.Batch(from, from+batch)
		if err != nil {
			t.Fatal(err)
		}
		x = mnist.PoolColumns(x, mnist.Side, pool)
		enc, err := client.EncryptBatch(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return enc, x
	}
	opt, _ := nn.NewSGD(0.3, 0)
	reached := 0
	for step := 1; step <= maxSteps && reached == 0; step++ {
		enc, _ := encrypt((step - 1) * batch)
		if _, err := trainer.TrainBatch(enc, opt); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := len(rec.ys[batch]); got != hidden*step {
			t.Fatalf("after step %d: %d gradient keys at η = %d, want %d", step, got, batch, hidden*step)
		}
		if rankModP(rec.ys[batch], prime, nil) == batch {
			reached = step
		}
	}
	if reached != pinnedStep {
		t.Fatalf("the gradient keys reached rank %d at step %d, pinned at step %d", batch, reached, pinnedStep)
	}
	var pivots []int
	rankModP(rec.ys[batch], prime, &pivots)
	a := make([][]int64, batch)
	keys := make([]*feip.FunctionKey, batch)
	for i, at := range pivots {
		a[i], keys[i] = rec.ys[batch][at], rec.keys[batch][at]
	}

	// A batch past every trained one, encrypted by the client as it would
	// encrypt its next submission.
	unseen, x := encrypt(maxSteps * batch)
	want, err := client.Codec.EncodeMat(x.Rows2D())
	if err != nil {
		t.Fatal(err)
	}
	mpk, err := auth.FEIPPublic(batch)
	if err != nil {
		t.Fatal(err)
	}
	solver := trainer.Engine.Solver()
	lit := 0 // non-zero values recovered: an all-dark batch would prove nothing
	for r, ct := range unseen.X.RowCts {
		b := make([]int64, batch)
		for i := range b {
			if b[i], err = feip.Decrypt(mpk, ct, keys[i], a[i], solver); err != nil {
				t.Fatalf("row %d, key %d: %v", r, i, err)
			}
		}
		got := solveModP(a, b, prime)
		if !slices.Equal(got, want[r]) {
			t.Fatalf("feature %d of the unseen batch: recovered %v, client encoded %v", r, got, want[r])
		}
		for _, v := range got {
			if v != 0 {
				lit++
			}
		}
	}
	if lit < features {
		t.Fatalf("only %d of %d recovered values are non-zero", lit, features*batch)
	}
	t.Logf("recovered all %d values of the unseen batch, %d of them non-zero", features*batch, lit)
}
