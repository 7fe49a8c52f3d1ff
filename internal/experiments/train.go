package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
)

// Arch selects the model architecture for the training experiments.
type Arch string

// Architectures.
const (
	// ArchMLP is a dense network (secure feed-forward on a fully
	// connected first layer) — the fast configuration.
	ArchMLP Arch = "mlp"
	// ArchCNN is the LeNet-style convolutional network with secure
	// convolution (Algorithm 3) — the paper's CryptoCNN instantiation,
	// scaled down.
	ArchCNN Arch = "cnn"
)

// TrainConfig parameterizes Fig. 6 and Table III.
type TrainConfig struct {
	// Bits selects the group size (paper: 256; zero selects 64).
	Bits int
	// Arch selects MLP or CNN (paper: CNN/LeNet-5).
	Arch Arch
	// TrainSamples / TestSamples are dataset sizes (paper: 60000/10000).
	TrainSamples, TestSamples int
	// BatchSize (paper: 64).
	BatchSize int
	// Epochs (paper: 2).
	Epochs int
	// LR is the SGD learning rate.
	LR float64
	// TickBatches is the Fig. 6 averaging window (paper: 50 batches).
	TickBatches int
	// Parallelism for secure decryptions; 0 is every core.
	Parallelism int
	// Seed drives data generation and weight initialisation.
	Seed int64
	// Pool average-pools the input images by this factor before training
	// (1 keeps the paper's 28×28 geometry; 2 → 14×14; 4 → 7×7). The
	// secure first layer's cost scales with the feature count, so this
	// knob makes the experiment tractable on small machines without
	// changing its shape: both twins see the same pooled data.
	Pool int
	// Hidden is the MLP first-layer width (paper-scale default: 32). The
	// secure dW step costs Hidden × features inner products per batch.
	Hidden int
	// ConvFilters is the CryptoCNN first-layer filter count when
	// Pool > 1 (the down-scaled conv architecture); ignored at Pool 1,
	// where the 28×28 LeNet-small geometry is used. Default 2.
	ConvFilters int
	// KeyService, when non-nil, replaces the in-process authority as the
	// engine's key backend (e.g. a wire.QuorumKeyService over a threshold
	// authority cluster). Its group parameters must match Bits — the
	// solver and codec are sized for the embedded group of that width.
	KeyService securemat.KeyService
}

func (c *TrainConfig) fillDefaults() {
	if c.Bits == 0 {
		c.Bits = group.TestBits
	}
	if c.Arch == "" {
		c.Arch = ArchMLP
	}
	if c.TrainSamples == 0 {
		c.TrainSamples = 300
	}
	if c.TestSamples == 0 {
		c.TestSamples = 100
	}
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.LR == 0 {
		c.LR = 0.3
	}
	if c.TickBatches == 0 {
		c.TickBatches = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Pool == 0 {
		c.Pool = 1
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.ConvFilters == 0 {
		c.ConvFilters = 2
	}
}

// side returns the pooled image side length.
func (c *TrainConfig) side() int { return mnist.Side / c.Pool }

// features returns the pooled input feature count.
func (c *TrainConfig) features() int { s := c.side(); return s * s }

// AccuracyPoint is one tick of Fig. 6: average batch accuracy over the
// window, for the plaintext baseline and the CryptoNN model.
type AccuracyPoint struct {
	Tick     int
	Plain    float64
	CryptoNN float64
}

// Table3Result mirrors Table III plus the client-side encryption cost the
// paper folds away.
type Table3Result struct {
	// PlainAcc and CryptoAcc are test accuracies after each epoch.
	PlainAcc, CryptoAcc []float64
	// PlainTime and CryptoTime are the training wall-clock times.
	PlainTime, CryptoTime time.Duration
	// EncryptTime is the one-off client-side pre-processing time.
	EncryptTime time.Duration
	// Overhead is CryptoTime / PlainTime.
	Overhead float64
}

// trainRun holds the twin-model training machinery shared by Fig6 and
// Table3.
type trainRun struct {
	cfg      TrainConfig
	plain    *nn.Model
	secure   *nn.Model
	trainer  *core.Trainer
	client   *core.Client
	train    *mnist.Dataset
	test     *mnist.Dataset
	batches  []encBatch
	plainOpt nn.Optimizer
	secOpt   nn.Optimizer
	encTime  time.Duration
	// convK and convPad are the first conv layer's geometry (CNN arch).
	convK, convPad int
}

// poolColumns average-pools every column of x, interpreted as a flattened
// side×side image, by factor f. It is the experiment-scale reduction knob
// (TrainConfig.Pool); f = 1 returns x unchanged.
func poolColumns(x *tensor.Dense, side, f int) *tensor.Dense {
	if f <= 1 {
		return x
	}
	out := side / f
	pooled := tensor.NewDense(out*out, x.Cols)
	inv := 1 / float64(f*f)
	for c := 0; c < x.Cols; c++ {
		for oy := 0; oy < out; oy++ {
			for ox := 0; ox < out; ox++ {
				var sum float64
				for dy := 0; dy < f; dy++ {
					for dx := 0; dx < f; dx++ {
						sum += x.At((oy*f+dy)*side+(ox*f+dx), c)
					}
				}
				pooled.Set(oy*out+ox, c, sum*inv)
			}
		}
	}
	return pooled
}

// encBatch pairs an encrypted batch with its plaintext twin (used only by
// the baseline and for accuracy scoring; the secure trainer never sees it).
type encBatch struct {
	x, y   *tensor.Dense
	labels []int
	dense  *core.EncryptedBatch
	conv   *core.EncryptedConvBatch
}

func newTrainRun(cfg TrainConfig) (*trainRun, error) {
	cfg.fillDefaults()
	params, err := group.Embedded(cfg.Bits)
	if err != nil {
		return nil, err
	}
	keys := cfg.KeyService
	if keys == nil {
		auth, err := authority.New(params, authority.AllowAll())
		if err != nil {
			return nil, err
		}
		keys = auth
	}
	codec := fixedpoint.Default()

	var plain, secure *nn.Model
	var coreCfg core.Config
	var bound int64
	var convK, convPad int
	switch cfg.Arch {
	case ArchMLP:
		mk := func(seed int64) (*nn.Model, error) {
			return nn.NewMLP(cfg.features(), mnist.Classes, []int{cfg.Hidden}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
		}
		if plain, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		if secure, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		coreCfg = core.Config{Codec: codec, MaxWeight: 4, GradScale: 100}
		forward := core.SolverBound(codec, cfg.features(), 1, 4, 1)
		grad := core.SolverBound(codec, cfg.BatchSize, 1, 4, 100)
		bound = max(forward, grad)
	case ArchCNN:
		mk := func(seed int64) (*nn.Model, error) {
			if cfg.Pool == 1 {
				return nn.NewLeNetSmall(rand.New(rand.NewSource(seed)))
			}
			return nn.NewConvNetSmall(cfg.side(), cfg.ConvFilters, rand.New(rand.NewSource(seed)))
		}
		if cfg.Pool == 1 {
			convK, convPad = 5, 2 // LeNet-small C1 geometry
		} else {
			convK, convPad = 3, 1 // down-scaled conv-net C1 geometry
		}
		if plain, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		if secure, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		coreCfg = core.Config{Codec: codec, MaxWeight: 2, GradScale: 10}
		forward := core.SolverBound(codec, convK*convK, 1, 2, 1)
		grad := core.SolverBound(codec, cfg.features(), 1, 2, 10)
		bound = max(forward, grad)
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q", cfg.Arch)
	}
	bound = max(bound, core.SolverBound(codec, 1, 1, 25, 1)) // CE loss terms

	solver, err := dlog.NewSolver(params, bound)
	if err != nil {
		return nil, err
	}
	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{Solver: solver, Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	trainer, err := core.NewTrainer(secure, eng, coreCfg)
	if err != nil {
		return nil, err
	}
	client, err := core.NewClient(eng, codec, nil)
	if err != nil {
		return nil, err
	}
	trainSet, _, err := mnist.Load(true, cfg.TrainSamples, cfg.Seed)
	if err != nil {
		return nil, err
	}
	testSet, _, err := mnist.Load(false, cfg.TestSamples, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	plainOpt, err := nn.NewSGD(cfg.LR, 0)
	if err != nil {
		return nil, err
	}
	secOpt, err := nn.NewSGD(cfg.LR, 0)
	if err != nil {
		return nil, err
	}
	run := &trainRun{
		cfg: cfg, plain: plain, secure: secure,
		trainer: trainer, client: client,
		train: trainSet, test: testSet,
		plainOpt: plainOpt, secOpt: secOpt,
		convK: convK, convPad: convPad,
	}
	if err := run.encryptAll(); err != nil {
		return nil, err
	}
	return run, nil
}

// encryptAll pre-processes every training batch once (clients encrypt
// once; the server reuses ciphertexts across epochs).
func (r *trainRun) encryptAll() error {
	start := time.Now()
	n := r.train.N()
	for from := 0; from+r.cfg.BatchSize <= n; from += r.cfg.BatchSize {
		x, y, err := r.train.Batch(from, from+r.cfg.BatchSize)
		if err != nil {
			return err
		}
		x = poolColumns(x, mnist.Side, r.cfg.Pool)
		labels := make([]int, r.cfg.BatchSize)
		copy(labels, r.train.Labels[from:from+r.cfg.BatchSize])
		eb := encBatch{x: x, y: y, labels: labels}
		switch r.cfg.Arch {
		case ArchMLP:
			enc, err := r.client.EncryptBatch(x, y)
			if err != nil {
				return err
			}
			eb.dense = enc
		case ArchCNN:
			side := r.cfg.side()
			enc, err := r.client.EncryptConvBatch(x, y, 1, side, side, r.convK, 1, r.convPad)
			if err != nil {
				return err
			}
			eb.conv = enc
		}
		r.batches = append(r.batches, eb)
	}
	if len(r.batches) == 0 {
		return errors.New("experiments: no full batches; increase TrainSamples or decrease BatchSize")
	}
	r.encTime = time.Since(start)
	return nil
}

// stepSecure trains the secure model on batch i and returns its batch
// accuracy.
func (r *trainRun) stepSecure(i int) (float64, error) {
	b := r.batches[i]
	var res *core.Result
	var err error
	if b.dense != nil {
		res, err = r.trainer.TrainBatch(b.dense, r.secOpt)
	} else {
		res, err = r.trainer.TrainConvBatch(b.conv, r.secOpt)
	}
	if err != nil {
		return 0, err
	}
	correct := 0
	for j, p := range res.MaskedPreds {
		if p == b.labels[j] {
			correct++
		}
	}
	return float64(correct) / float64(len(b.labels)), nil
}

// stepPlain trains the plaintext twin on batch i and returns its batch
// accuracy.
func (r *trainRun) stepPlain(i int) (float64, error) {
	b := r.batches[i]
	acc, err := r.plain.Accuracy(b.x, b.y)
	if err != nil {
		return 0, err
	}
	if _, err := r.plain.TrainBatch(b.x, b.y, r.plainOpt); err != nil {
		return 0, err
	}
	return acc, nil
}

func (r *trainRun) testAccuracy(m *nn.Model) (float64, error) {
	x, y, err := r.test.Batch(0, r.test.N())
	if err != nil {
		return 0, err
	}
	return m.Accuracy(poolColumns(x, mnist.Side, r.cfg.Pool), y)
}

// Fig6 regenerates the average-batch-accuracy comparison: both models are
// trained batch by batch from identical initialisation and their batch
// accuracies are averaged per tick window.
func Fig6(cfg TrainConfig) ([]AccuracyPoint, error) {
	cfg.fillDefaults()
	run, err := newTrainRun(cfg)
	if err != nil {
		return nil, err
	}
	var points []AccuracyPoint
	var accP, accS float64
	var count int
	tick := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := range run.batches {
			ap, err := run.stepPlain(i)
			if err != nil {
				return nil, fmt.Errorf("experiments: plain step: %w", err)
			}
			as, err := run.stepSecure(i)
			if err != nil {
				return nil, fmt.Errorf("experiments: secure step: %w", err)
			}
			accP += ap
			accS += as
			count++
			if count == cfg.TickBatches {
				tick++
				points = append(points, AccuracyPoint{
					Tick:     tick,
					Plain:    accP / float64(count),
					CryptoNN: accS / float64(count),
				})
				accP, accS, count = 0, 0, 0
			}
		}
	}
	if count > 0 {
		tick++
		points = append(points, AccuracyPoint{
			Tick:     tick,
			Plain:    accP / float64(count),
			CryptoNN: accS / float64(count),
		})
	}
	return points, nil
}

// Table3 regenerates the accuracy/training-time comparison: per-epoch test
// accuracy for both models plus total wall-clock training times.
func Table3(cfg TrainConfig) (*Table3Result, error) {
	cfg.fillDefaults()
	run, err := newTrainRun(cfg)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{EncryptTime: run.encTime}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		for i := range run.batches {
			if _, err := run.stepPlain(i); err != nil {
				return nil, err
			}
		}
		res.PlainTime += time.Since(start)
		acc, err := run.testAccuracy(run.plain)
		if err != nil {
			return nil, err
		}
		res.PlainAcc = append(res.PlainAcc, acc)

		start = time.Now()
		for i := range run.batches {
			if _, err := run.stepSecure(i); err != nil {
				return nil, err
			}
		}
		res.CryptoTime += time.Since(start)
		// The trained parameters are plaintext (the paper's design), so
		// test-set evaluation is an ordinary forward pass.
		acc, err = run.testAccuracy(run.secure)
		if err != nil {
			return nil, err
		}
		res.CryptoAcc = append(res.CryptoAcc, acc)
	}
	if res.PlainTime > 0 {
		res.Overhead = float64(res.CryptoTime) / float64(res.PlainTime)
	}
	return res, nil
}
