package experiments

// AblationPredictionPaths measures the three prediction settings of
// §III-D on the same trained linear model and the same inputs:
//
//   - plaintext     — the no-privacy baseline forward pass;
//   - FE-based      — secure feed-forward via FEIP keys (the server
//                     learns the class);
//   - HE-based      — exponential-ElGamal evaluation of Enc(W·x+b) (the
//                     server learns nothing; only the client decrypts).
//
// The paper presents the choice qualitatively ("flexible choices for the
// client with varying levels of privacy concerns"); this experiment puts
// numbers on it.

import (
	"fmt"
	"math/rand"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/elgamal"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// PredictPathsConfig parameterizes AblationPredictionPaths.
type PredictPathsConfig struct {
	// Bits selects the group (zero: 64).
	Bits int
	// Features and Classes shape the linear model.
	Features, Classes int
	// Samples is the prediction batch size.
	Samples int
	// Parallelism for the FE decryptions: 0 is every core, like every other
	// Parallelism field (the ElGamal path they are timed against is
	// sequential whatever it says; pass 1 for a one-core comparison).
	Parallelism int
	// Seed fixes the model and inputs.
	Seed int64
}

func (c *PredictPathsConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if c.Features == 0 {
		c.Features = 49
	}
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.Samples == 0 {
		c.Samples = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PredictPathsResult reports per-path timings and agreement.
type PredictPathsResult struct {
	// Plain, FE and HE are the end-to-end batch prediction times
	// (client encryption + server evaluation + any client decryption).
	Plain, FE, HE time.Duration
	// FEEncrypt and HEEncrypt isolate the client-side encryption cost.
	FEEncrypt, HEEncrypt time.Duration
	// Agree reports whether all three paths predicted the same classes
	// for every sample (they must — same model, same inputs, fixed-point
	// quantisation notwithstanding).
	Agree bool
	// Classes are the plaintext path's predictions.
	Classes []int
}

// AblationPredictionPaths runs all three §III-D prediction settings on a
// shared linear model and inputs.
func AblationPredictionPaths(cfg PredictPathsConfig) (*PredictPathsResult, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	codec := fixedpoint.Default()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// A linear model (no hidden layer) so the HE path covers the whole
	// decision function.
	model, err := nn.NewMLP(cfg.Features, cfg.Classes, nil, nn.SoftmaxCrossEntropy{}, rng)
	if err != nil {
		return nil, err
	}
	x := tensor.NewDense(cfg.Features, cfg.Samples)
	x.RandInit(rng, 1)
	y := tensor.NewDense(cfg.Classes, cfg.Samples)
	for j := 0; j < cfg.Samples; j++ {
		y.Set(j%cfg.Classes, j, 1)
	}

	res := &PredictPathsResult{}

	// --- Plaintext baseline. ---
	start := time.Now()
	preds, err := model.Predict(x)
	if err != nil {
		return nil, err
	}
	res.Plain = time.Since(start)
	res.Classes = preds

	// --- FE-based path. ---
	bound := core.SolverBound(codec, cfg.Features, 1, 4, 1)
	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		return nil, err
	}
	eng, err := securemat.NewEngine(auth, securemat.EngineOptions{Solver: solver, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	trainer, err := core.NewTrainer(model, eng, core.Config{Codec: codec, MaxWeight: 4})
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(eng, codec, nil)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	enc, err := client.EncryptBatch(x, y)
	if err != nil {
		return nil, err
	}
	res.FEEncrypt = time.Since(start)
	feRes, err := trainer.Predict(enc)
	if err != nil {
		return nil, err
	}
	res.FE = time.Since(start)

	// --- HE-based path. ---
	dense, ok := model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return nil, fmt.Errorf("experiments: linear model has first layer %s", model.Layers[0].Name())
	}
	wInt, err := codec.EncodeMat(dense.W.Rows2D())
	if err != nil {
		return nil, err
	}
	bInt := make([]int64, dense.Out)
	f := float64(codec.Factor())
	for i := 0; i < dense.Out; i++ {
		bInt[i] = int64(dense.B.At(i, 0) * f * f)
	}
	pk, sk, err := elgamal.Setup(params, nil)
	if err != nil {
		return nil, err
	}
	hePreds := make([]int, cfg.Samples)
	start = time.Now()
	var heEncrypt time.Duration
	for j := 0; j < cfg.Samples; j++ {
		encStart := time.Now()
		xs, err := codec.EncodeVec(x.Col(j))
		if err != nil {
			return nil, err
		}
		cts, err := elgamal.EncryptVec(pk, xs, nil)
		if err != nil {
			return nil, err
		}
		heEncrypt += time.Since(encStart)
		scores, err := elgamal.LinearPredict(pk, wInt, bInt, cts)
		if err != nil {
			return nil, err
		}
		cls, _, err := elgamal.DecryptArgMax(sk, params, scores, solver)
		if err != nil {
			return nil, err
		}
		hePreds[j] = cls
	}
	res.HE = time.Since(start)
	res.HEEncrypt = heEncrypt

	res.Agree = true
	for j := range preds {
		if feRes.MaskedPreds[j] != preds[j] || hePreds[j] != preds[j] {
			res.Agree = false
			break
		}
	}
	return res, nil
}
