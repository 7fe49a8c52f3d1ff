package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"

	"math/rand"
	"net"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

// Config parameterizes a training service run.
type Config struct {
	// Features is the input feature count the model expects.
	Features int
	// Classes is the output class count.
	Classes int
	// Hidden lists the hidden-layer widths of the MLP (default: one
	// layer of 32 units).
	Hidden []int
	// Linear selects a bias-free single-layer (linear softmax) model;
	// Hidden must be empty. This is the model shape the coordinate-form
	// top-k serving path requires: secure scoring computes pure inner
	// products ⟨W_i, x⟩, so the served model carries no hidden layers and
	// no bias (the bias accumulated during training is dropped when
	// training completes — softmax is monotone, so W·X ranking is the
	// model's ranking).
	Linear bool
	// Epochs is the number of passes over the collected batches
	// (default 2, the paper's Table III setting).
	Epochs int
	// LR is the SGD learning rate (default 0.3).
	LR float64
	// Expect is the number of client submissions to wait for before
	// training starts (default 1).
	Expect int
	// Seed drives weight initialisation.
	Seed int64
	// Logger receives progress lines; nil discards them.
	Logger *log.Logger
}

// maxWeight clamps weight magnitudes entering the secure encodings (see
// core.Config.MaxWeight).
const maxWeight float64 = 4

// codec is the server's fixed-point codec, the paper's two-decimal default;
// clients encrypt with fixedpoint.Default() to match it.
var codec = fixedpoint.Default()

func (c *Config) fillDefaults() error {
	if c.Features <= 0 {
		return fmt.Errorf("service: features must be positive, got %d", c.Features)
	}
	if c.Classes <= 0 {
		return fmt.Errorf("service: classes must be positive, got %d", c.Classes)
	}
	if c.Linear && len(c.Hidden) > 0 {
		return fmt.Errorf("service: linear model cannot have hidden layers, got %v", c.Hidden)
	}
	if len(c.Hidden) == 0 && !c.Linear {
		c.Hidden = []int{32}
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.Epochs < 0 {
		return fmt.Errorf("service: epochs must be positive, got %d", c.Epochs)
	}
	if c.LR == 0 {
		c.LR = 0.3
	}
	if c.Expect == 0 {
		c.Expect = 1
	}
	if c.Expect < 0 {
		return fmt.Errorf("service: expect must be positive, got %d", c.Expect)
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return nil
}

// Report summarizes a completed training run.
type Report struct {
	// Batches is the number of encrypted batches collected.
	Batches int
	// Clients is the number of completed client submissions.
	Clients int
	// EpochLoss holds the average loss per epoch: the cross-entropy the
	// trainer takes from each step's decrypted Y − P (core.Result.Loss).
	EpochLoss []float64
	// CollectTime is the wall-clock time spent waiting for submissions.
	CollectTime time.Duration
	// TrainTime is the wall-clock training time.
	TrainTime time.Duration
}

// Server is the CryptoNN training service.
type Server struct {
	engine *securemat.Engine
	cfg    Config

	// trainerMu serializes every use of trainer and of the state below:
	// the model's plaintext forward pass caches activations on the
	// layers, and a step may give the trainer a larger discrete-log
	// solver, so training steps and concurrent Predict calls (many
	// prediction connections) must not interleave. The serving path
	// proper funnels through the coalescing dispatcher, which is
	// single-evaluator by design; this mutex covers direct callers.
	trainerMu sync.Mutex
	// trainer runs training, Predict, and sizes the engine view
	// PredictTopK evaluates on, so all three share one solver.
	trainer *core.Trainer
	// topkW is the clamp-encoded first-layer weight matrix PredictTopK
	// scores with, built on the first request after training: comparing a
	// head of millions of weights on every request would add milliseconds
	// to each, so train drops it instead.
	topkW [][]int64

	// predictSrv is the live prediction server, set while
	// ServePredictions runs; PredictionMetrics exposes it for /metrics.
	srvMu      sync.Mutex
	predictSrv *wire.PredictionServer
}

// New assembles a training service around a key service (the authority
// connection, or an in-process authority in tests). The server owns one
// secure compute session for its whole lifetime: public keys are fetched
// once, and the dot-product key cache carries the trained weights' keys
// across prediction requests.
func New(keys securemat.KeyService, cfg Config) (*Server, error) {
	if keys == nil {
		return nil, errors.New("service: nil key service")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	engine, err := securemat.NewEngine(keys, securemat.EngineOptions{})
	if err != nil {
		return nil, fmt.Errorf("service: building engine: %w", err)
	}
	model, err := nn.NewMLP(cfg.Features, cfg.Classes, cfg.Hidden,
		nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("service: building model: %w", err)
	}
	trainer, err := core.NewTrainer(model, engine, core.Config{Codec: codec, MaxWeight: maxWeight})
	if err != nil {
		return nil, err
	}
	return &Server{engine: engine, cfg: cfg, trainer: trainer}, nil
}

// Model exposes the (plaintext) model; before Run completes it holds the
// initial weights.
func (s *Server) Model() *nn.Model { return s.trainer.Model }

// Run collects Expect client submissions from the listener, trains, and
// reports. The listener is closed before Run returns.
func (s *Server) Run(ctx context.Context, l net.Listener) (*Report, error) {
	collector := wire.NewTrainingServer(s.cfg.Logger)
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- collector.Serve(serveCtx, l) }()

	s.cfg.Logger.Printf("waiting for %d client submission(s) on %s", s.cfg.Expect, l.Addr())
	collectStart := time.Now()
	if err := collector.WaitSubmissions(ctx, s.cfg.Expect); err != nil {
		cancel()
		<-serveDone
		return nil, fmt.Errorf("service: collecting submissions: %w", err)
	}
	collectTime := time.Since(collectStart)
	cancel()
	if err := <-serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
		return nil, fmt.Errorf("service: submission listener: %w", err)
	}

	batches := collector.Batches()
	if len(batches) == 0 {
		return nil, errors.New("service: no encrypted batches received")
	}
	s.cfg.Logger.Printf("received %d encrypted batch(es) from %d client(s)",
		len(batches), collector.Submissions())

	report, err := s.train(ctx, batches)
	if err != nil {
		return nil, err
	}
	report.Clients = collector.Submissions()
	report.CollectTime = collectTime
	return report, nil
}

// train runs the training loop over already-collected batches: the
// network-free core of Run.
func (s *Server) train(ctx context.Context, batches []*core.EncryptedBatch) (*Report, error) {
	if len(batches) == 0 {
		return nil, errors.New("service: no batches to train on")
	}
	for i, b := range batches {
		if b.Features != s.cfg.Features {
			return nil, fmt.Errorf("service: batch %d has %d features, model expects %d",
				i, b.Features, s.cfg.Features)
		}
		if b.Classes != s.cfg.Classes {
			return nil, fmt.Errorf("service: batch %d has %d classes, model expects %d",
				i, b.Classes, s.cfg.Classes)
		}
	}
	opt, err := nn.NewSGD(s.cfg.LR, 0)
	if err != nil {
		return nil, err
	}
	s.trainerMu.Lock()
	defer s.trainerMu.Unlock()
	// Training changes W, so the top-k weights are rebuilt on the next
	// request (dropped before the first step: an interrupted run changes
	// W too).
	s.topkW = nil

	report := &Report{Batches: len(batches)}
	start := time.Now()
	for epoch := 1; epoch <= s.cfg.Epochs; epoch++ {
		var lossSum float64
		for i, b := range batches {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("service: training interrupted: %w", err)
			}
			res, err := s.trainer.TrainBatch(b, opt)
			if err != nil {
				return nil, fmt.Errorf("service: epoch %d batch %d: %w", epoch, i, err)
			}
			lossSum += res.Loss
		}
		avg := lossSum / float64(len(batches))
		report.EpochLoss = append(report.EpochLoss, avg)
		s.cfg.Logger.Printf("epoch %d/%d: avg loss %.4f", epoch, s.cfg.Epochs, avg)
	}
	report.TrainTime = time.Since(start)
	if s.cfg.Linear {
		// The top-k serving path scores with pure inner products, so a
		// linear serving model is bias-free: drop the bias the SGD steps
		// accumulated (see Config.Linear).
		layer0 := s.trainer.Model.Layers[0].(*nn.DenseLayer)
		for i := range layer0.B.Data {
			layer0.B.Data[i] = 0
		}
	}
	s.cfg.Logger.Printf("training finished in %s over %d batches",
		report.TrainTime.Round(time.Millisecond), len(batches))
	return report, nil
}

// Predict runs FE-based prediction (§III-D) over an encrypted batch with
// the current model and returns arg-max predictions in the label-mapped
// space. It is safe for concurrent use (evaluations serialize on the
// server's trainer lock). Prediction never back-propagates, so its
// discrete-log bound covers the feed-forward only and does not grow with
// the samples a coalesced batch carries: a trained server keeps its
// training solver, an untrained one sizes a feed-forward solver on the
// first call.
func (s *Server) Predict(enc *core.EncryptedBatch) ([]int, error) {
	s.trainerMu.Lock()
	defer s.trainerMu.Unlock()
	res, err := s.trainer.Predict(enc)
	if err != nil {
		return nil, err
	}
	return res.MaskedPreds, nil
}

// PredictTopK runs the coordinate-form serving path: score a sparse
// encrypted batch against the model's (linear) weight matrix and return
// each sample's k largest logits as descending (label, value) pairs,
// solving only those k discrete logs per sample. Values are in the
// product fixed-point domain (fixedpoint.Default().DecodeProduct
// recovers floats). It requires Config.Linear — the secure scorer computes pure
// inner products, so hidden layers and biases have no secure counterpart
// here. Safe for concurrent use; like Predict, evaluations serialize on
// the server's trainer lock and run on the trainer's solver.
func (s *Server) PredictTopK(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	if sp == nil || sp.X == nil {
		return nil, errors.New("service: empty sparse batch")
	}
	if k <= 0 {
		return nil, fmt.Errorf("service: top-k count must be positive, got %d", k)
	}
	if sp.Features != s.cfg.Features {
		return nil, fmt.Errorf("service: sparse batch has %d features, model expects %d", sp.Features, s.cfg.Features)
	}
	if sp.Classes != s.cfg.Classes {
		return nil, fmt.Errorf("service: sparse batch has %d classes, model expects %d", sp.Classes, s.cfg.Classes)
	}
	if k > s.cfg.Classes {
		k = s.cfg.Classes
	}
	s.trainerMu.Lock()
	defer s.trainerMu.Unlock()
	if s.topkW == nil {
		if err := s.buildTopKServing(); err != nil {
			return nil, err
		}
	}
	eng, err := s.trainer.PredictEngine()
	if err != nil {
		return nil, err
	}
	// The logit ceiling |⟨W_i, x⟩| ≤ Σ_supp|W_i|·f holds because clients
	// encode |x| ≤ 1 at the codec factor f; it lets the descending top-k
	// scan skip the empty ladder prefix above the reachable range.
	return eng.DotTopK(sp.X, s.topkW, k, securemat.ComputeOptions{InputMagnitude: codec.Factor()})
}

// buildTopKServing assembles the lazily built top-k serving weights under
// trainerMu: validates the model shape and clamp-encodes the weights with
// core.ClampEncode at the trainer's MaxWeight, the transform its own
// forward product applies.
func (s *Server) buildTopKServing() error {
	if !s.cfg.Linear || len(s.trainer.Model.Layers) != 1 {
		return errors.New("service: top-k serving requires a linear model (Config.Linear)")
	}
	layer0, ok := s.trainer.Model.Layers[0].(*nn.DenseLayer)
	if !ok {
		return errors.New("service: top-k serving requires a dense first layer")
	}
	for _, b := range layer0.B.Data {
		if b != 0 {
			return errors.New("service: top-k serving requires a bias-free model")
		}
	}
	wInt, err := core.ClampEncode(codec, layer0.W, maxWeight)
	if err != nil {
		return fmt.Errorf("service: encoding serving weights: %w", err)
	}
	s.topkW = wInt
	return nil
}

// ServePredictions exposes the trained model as a prediction throughput
// engine: it answers wire.ClientConn.Predict calls until the context is
// cancelled, coalescing concurrent requests from any number of clients
// into shared evaluations at the wire package's dispatcher defaults
// (clients rejected under backpressure see the retryable wire.ErrBusy).
// Call it after Run has completed; the predictions reflect the model's
// current weights.
func (s *Server) ServePredictions(ctx context.Context, l net.Listener) error {
	// Top-k requests route through the same dispatcher; a non-linear
	// server answers them with a per-request error rather than refusing
	// the kind outright.
	ps, err := wire.NewCoalescingPredictionServer(s.Predict, s.cfg.Logger, wire.DispatcherOptions{TopK: s.PredictTopK})
	if err != nil {
		return err
	}
	s.srvMu.Lock()
	s.predictSrv = ps
	s.srvMu.Unlock()
	s.cfg.Logger.Printf("serving predictions on %s", l.Addr())
	err = ps.Serve(ctx, l)
	if st := ps.Stats(); st.Requests > 0 {
		s.cfg.Logger.Printf("prediction serving: %d requests (%d samples) in %d evaluations (max coalesced %d), %d rejected, p50 %s p99 %s",
			st.Requests, st.Samples, st.Evals, st.MaxCoalesced, st.Rejected,
			st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond))
	}
	if errors.Is(err, net.ErrClosed) && ctx.Err() != nil {
		return nil
	}
	return err
}

// PredictionMetrics returns the live prediction server as a metrics
// source for wire.MetricsHandler. It is nil until ServePredictions has
// started; the handler skips nil sources, so callers may register it
// eagerly through this indirection.
func (s *Server) PredictionMetrics() wire.MetricsSource {
	return serverMetrics{s}
}

// EngineMetrics returns the server's secure-matrix engine as a metrics
// source: sparsity counters (columns routed compact vs promoted, skipped
// coordinates, top-k dlog accounting), the dense look-up, round and
// out-of-bound counters, and dot-key cache hit rates.
func (s *Server) EngineMetrics() wire.MetricsSource {
	return s.engine
}

// serverMetrics defers the predictSrv lookup to scrape time, so a
// /metrics endpoint can be mounted before serving starts.
type serverMetrics struct{ s *Server }

func (m serverMetrics) WriteMetrics(w io.Writer) {
	m.s.srvMu.Lock()
	ps := m.s.predictSrv
	m.s.srvMu.Unlock()
	if ps != nil {
		ps.WriteMetrics(w)
	}
}
