package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
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

	trainer, err := core.NewTrainer(secureModel, eng, core.Config{ComputeLoss: true})
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
		t.Fatal("secure loss not computed")
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
	cfg := core.Config{ComputeLoss: true}
	sb := func(dim int, maxB, gradScale float64) int64 { return core.SolverBound(nil, dim, 1, maxB, gradScale) }
	lossTerms := sb(1, 25, 1)
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
		grad := func(n int) int64 { return max(sb(features, 8, 1), sb(n, 8, 100), lossTerms) }
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
		bound := max(sb(3*3, 8, 1), sb(side*side, 8, 100), lossTerms)
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
// over eng with the secure loss on, and one encrypted batch of n samples.
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
	trainer, err := core.NewTrainer(model, eng, core.Config{ComputeLoss: true})
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
		{name: "labels short of a column", corrupt: func(b *core.EncryptedConvBatch) {
			y := *b.Y
			y.ColCts = short(y.ColCts)
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
