package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
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

// TrainConfig parameterizes the twin training run behind Fig. 6 and
// Table III. A zero field takes the scaled default, the one set every
// driver uses: seconds on one core at 64 bits, with the shapes of the
// paper's curves. The paper's own setting is 256 bits, 60000/10000
// samples, batch 64, 2 epochs, a 50-batch tick, Pool 1 and Hidden 32.
type TrainConfig struct {
	// Bits selects the group size (paper: 256; zero selects 64, or the
	// KeyService's group when one is set).
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
	// Seed drives data generation and weight initialisation.
	Seed int64
	// Pool average-pools the input images by this factor before training
	// (1 keeps the paper's 28×28 geometry; 2 → 14×14; 4 → 7×7). The
	// secure first layer's cost scales with the feature count, so this
	// knob makes the experiment tractable on small machines without
	// changing its shape: both twins see the same pooled data.
	Pool int
	// Hidden is the MLP first-layer width (paper: 32). The secure dW step
	// costs Hidden × features inner products per batch.
	Hidden int
	// ConvFilters is the CryptoCNN first-layer filter count when
	// Pool > 1 (the down-scaled conv architecture); ignored at Pool 1,
	// where the 28×28 LeNet-small geometry is used.
	ConvFilters int
	// KeyService, when non-nil, replaces the in-process authority as the
	// engine's key backend (e.g. a wire.QuorumKeyService over a threshold
	// authority cluster). The run takes its group from the service; a
	// non-zero Bits must match that group's modulus width.
	KeyService securemat.KeyService
}

func (c *TrainConfig) fillDefaults() {
	if c.Bits == 0 && c.KeyService == nil {
		c.Bits = group.TestBits
	}
	if c.Arch == "" {
		c.Arch = ArchMLP
	}
	samples, test, batch, epochs, tick := 300, 100, 10, 2, 5
	if c.Arch == ArchCNN {
		// Secure convolution is the slow path (its forward pass solves a
		// discrete log per sample, filter and window); keep its run
		// modest.
		samples, test, batch, epochs, tick = 32, 32, 8, 1, 1
	}
	if c.TrainSamples == 0 {
		c.TrainSamples = samples
	}
	if c.TestSamples == 0 {
		c.TestSamples = test
	}
	if c.BatchSize == 0 {
		c.BatchSize = batch
	}
	if c.Epochs == 0 {
		c.Epochs = epochs
	}
	if c.TickBatches == 0 {
		c.TickBatches = tick
	}
	if c.LR == 0 {
		c.LR = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Pool == 0 {
		c.Pool = 2
	}
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.ConvFilters == 0 {
		c.ConvFilters = 2
	}
}

// keys returns the run's key service: the configured service, whose group
// must be Bits wide when Bits is set, or an in-process authority over the
// embedded group of Bits.
func (c *TrainConfig) keys() (securemat.KeyService, error) {
	if c.KeyService == nil {
		params, err := group.Embedded(c.Bits)
		if err != nil {
			return nil, err
		}
		return authority.New(params, authority.AllowAll())
	}
	pk, err := c.KeyService.FEBOPublic()
	if err != nil {
		return nil, fmt.Errorf("experiments: key service group: %w", err)
	}
	if got := pk.Params.P.BitLen(); c.Bits != 0 && c.Bits != got {
		return nil, fmt.Errorf("experiments: Bits %d, but the key service's group is %d bits", c.Bits, got)
	}
	return c.KeyService, nil
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

// Epoch is one column of Table III: both twins' test accuracy after an
// epoch and the summed wall-clock time of that epoch's training steps.
type Epoch struct {
	PlainAcc, CryptoAcc   float64
	PlainTime, CryptoTime time.Duration
}

// TrainResult is one twin training run: Fig. 6's series and Table III's
// columns come from the same steps.
type TrainResult struct {
	Arch Arch
	// Ticks is Fig. 6: batch accuracy averaged over each TickBatches
	// window. Windows run across epoch boundaries; the last may be short.
	Ticks []AccuracyPoint
	// Epochs is Table III, one entry per epoch.
	Epochs []Epoch
	// EncryptTime is the one-off client-side pre-processing time the
	// paper's training-time comparison leaves out.
	EncryptTime time.Duration
}

// trainRun holds the twin-model training machinery of Train.
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
	keys, err := cfg.keys()
	if err != nil {
		return nil, err
	}
	codec := fixedpoint.Default()

	var plain, secure *nn.Model
	var coreCfg core.Config
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
	case ArchCNN:
		mk := func(seed int64) (*nn.Model, error) {
			if cfg.Pool == 1 {
				return nn.NewLeNetSmall(rand.New(rand.NewSource(seed)))
			}
			return nn.NewConvNetSmall(cfg.side(), cfg.ConvFilters, rand.New(rand.NewSource(seed)))
		}
		if plain, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		if secure, err = mk(cfg.Seed); err != nil {
			return nil, err
		}
		coreCfg = core.Config{Codec: codec, MaxWeight: 2, GradScale: 10}
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q", cfg.Arch)
	}

	eng, err := securemat.NewEngine(keys, securemat.EngineOptions{})
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
		x = mnist.PoolColumns(x, mnist.Side, r.cfg.Pool)
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
			c1 := r.secure.Layers[0].(*nn.ConvLayer)
			enc, err := r.client.EncryptConvBatch(x, y, c1.InC, c1.InH, c1.InW, c1.K, c1.Stride, c1.Pad)
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
	return m.Accuracy(mnist.PoolColumns(x, mnist.Side, r.cfg.Pool), y)
}

// Train trains a plaintext model and its CryptoNN twin from identical
// initialisation, batch by batch on the same data, and records both
// figures of the comparison: each step's batch accuracy for Fig. 6 and,
// per epoch, the test accuracies and the summed step times for Table III.
// Decryption is exact, so the secure twin's accuracies do not depend on
// the ciphertext randomness; only the timings vary between runs.
func Train(cfg TrainConfig) (*TrainResult, error) {
	run, err := newTrainRun(cfg)
	if err != nil {
		return nil, err
	}
	cfg = run.cfg
	res := &TrainResult{Arch: cfg.Arch, EncryptTime: run.encTime}
	var accP, accS float64
	var count int
	tick := func() {
		res.Ticks = append(res.Ticks, AccuracyPoint{
			Tick:     len(res.Ticks) + 1,
			Plain:    accP / float64(count),
			CryptoNN: accS / float64(count),
		})
		accP, accS, count = 0, 0, 0
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var e Epoch
		for i := range run.batches {
			start := time.Now()
			ap, err := run.stepPlain(i)
			if err != nil {
				return nil, fmt.Errorf("experiments: plain step: %w", err)
			}
			e.PlainTime += time.Since(start)
			start = time.Now()
			as, err := run.stepSecure(i)
			if err != nil {
				return nil, fmt.Errorf("experiments: secure step: %w", err)
			}
			e.CryptoTime += time.Since(start)
			accP += ap
			accS += as
			if count++; count == cfg.TickBatches {
				tick()
			}
		}
		// The trained parameters are plaintext (the paper's design), so
		// test-set evaluation is an ordinary forward pass for both twins.
		if e.PlainAcc, err = run.testAccuracy(run.plain); err != nil {
			return nil, err
		}
		if e.CryptoAcc, err = run.testAccuracy(run.secure); err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, e)
	}
	if count > 0 {
		tick()
	}
	return res, nil
}

// WriteFig6 prints the tick series in Fig. 6's layout.
func (r *TrainResult) WriteFig6(w io.Writer) {
	fmt.Fprintf(w, "average batch accuracy, plaintext baseline vs CryptoNN (%s) (Fig. 6)\n", r.Arch)
	fmt.Fprintf(w, "%-6s %12s %12s\n", "tick", "baseline", "CryptoNN")
	for _, p := range r.Ticks {
		fmt.Fprintf(w, "%-6d %12.4f %12.4f\n", p.Tick, p.Plain, p.CryptoNN)
	}
}

// WriteTable3 prints the per-epoch test accuracies and the training times
// in Table III's layout, then the overhead the paper reports as 57h/4h.
func (r *TrainResult) WriteTable3(w io.Writer) {
	var plain, crypto time.Duration
	fmt.Fprintf(w, "accuracy and training time (%s) (Table III)\n%-12s", r.Arch, "model")
	for i, e := range r.Epochs {
		fmt.Fprintf(w, " epoch %d (acc)", i+1)
		plain += e.PlainTime
		crypto += e.CryptoTime
	}
	fmt.Fprintf(w, " %14s\n", "training time")
	row := func(name string, total time.Duration, acc func(Epoch) float64) {
		fmt.Fprintf(w, "%-12s", name)
		for _, e := range r.Epochs {
			fmt.Fprintf(w, " %12.2f%%", acc(e)*100)
		}
		fmt.Fprintf(w, " %14s\n", total.Round(time.Millisecond))
	}
	row("baseline", plain, func(e Epoch) float64 { return e.PlainAcc })
	row("CryptoNN", crypto, func(e Epoch) float64 { return e.CryptoAcc })
	fmt.Fprintf(w, "overhead: %.1fx (paper: 57h/4h ≈ 14x); client encryption: %s\n",
		float64(crypto)/float64(plain), r.EncryptTime.Round(time.Millisecond))
}
