package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// trainShape fixes the size of a training workload.
type trainShape struct {
	cnn     bool
	poolBy  int     // average-pooling factor applied to the 28×28 images
	hidden  int     // MLP hidden width
	filters int     // CNN first-layer filters
	batch   int     // samples per step
	batches int     // distinct encrypted batches the steps cycle through
	lr      float64 // SGD learning rate, no momentum
	test    int     // held-out samples for the accuracy oracle
}

func (s trainShape) side() int     { return mnist.Side / s.poolBy }
func (s trainShape) features() int { return s.side() * s.side() }

// Convolution geometry of nn.NewConvNetSmall's first layer.
const convK, convStride, convPad = 3, 1, 1

func trainShapeFor(name string, smoke bool) trainShape {
	switch {
	case name == "train_mlp" && !smoke:
		return trainShape{poolBy: 2, hidden: 8, batch: 8, batches: 16, lr: mlpLR, test: 200}
	case name == "train_mlp":
		return trainShape{poolBy: 4, hidden: 4, batch: 4, batches: 3, lr: mlpLR, test: 40}
	case !smoke:
		return trainShape{cnn: true, poolBy: 2, filters: 2, batch: 3, batches: 16, lr: cnnLR, test: 200}
	default:
		return trainShape{cnn: true, poolBy: 2, filters: 1, batch: 1, batches: 3, lr: cnnLR, test: 40}
	}
}

// Learning rates. 0.3 is internal/experiments' default and what the MLP
// trains at. At 0.3 the batch-3 CNN is unstable: fixed-point and float
// training, bit-close at the start, drift apart within tens of steps and
// either may collapse for a while, so no accuracy comparison between them
// holds for every seed and step count (12 of 80 seeds trail by more than
// 0.10 at some step below 200). At 0.1, internal/experiments' rate for its
// communication runs, the two stay within 0.03 of each other on every one of
// 120 seeds at every step up to 220.
const (
	mlpLR = 0.3
	cnnLR = 0.1
)

// stepConfig and the discrete-log bound follow internal/experiments, the
// settings the repository's own Fig. 6 / Table III runs use.
func (s trainShape) stepConfig() stepConfig {
	if s.cnn {
		return stepConfig{codec: fixedpoint.Default(), maxWeight: 2, gradScale: 10}
	}
	return stepConfig{codec: fixedpoint.Default(), maxWeight: 4, gradScale: 100}
}

func (s trainShape) bounds() (fwd, grad int64) {
	c := s.stepConfig()
	if s.cnn {
		return core.SolverBound(c.codec, convK*convK, 1, c.maxWeight, 1),
			core.SolverBound(c.codec, s.features(), 1, c.maxWeight, c.gradScale)
	}
	return core.SolverBound(c.codec, s.features(), 1, c.maxWeight, 1),
		core.SolverBound(c.codec, s.batch, 1, c.maxWeight, c.gradScale)
}

func (s trainShape) newModel(seed int64) (*nn.Model, error) {
	rng := rand.New(rand.NewSource(seed))
	if s.cnn {
		return nn.NewConvNetSmall(s.side(), s.filters, rng)
	}
	return nn.NewMLP(s.features(), mnist.Classes, []int{s.hidden}, nn.SoftmaxCrossEntropy{}, rng)
}

// plainBatch is the plaintext of one training batch: the float matrices the
// client encrypts and the integers the oracle computes on.
type plainBatch struct {
	x, y *tensor.Dense
	ops  plainOps
}

// trainData is everything -seed decides for a training workload.
type trainData struct {
	batches      []plainBatch
	testX, testY *tensor.Dense
}

// poolColumns average-pools every column of x, read as a side×side image.
func poolColumns(x *tensor.Dense, side, f int) *tensor.Dense {
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

func newTrainData(s trainShape, seed int64) (*trainData, error) {
	codec := s.stepConfig().codec
	ds, err := mnist.Synthetic(s.batches*s.batch+s.test, seed)
	if err != nil {
		return nil, err
	}
	d := &trainData{}
	for b := 0; b < s.batches; b++ {
		x, y, err := ds.Batch(b*s.batch, (b+1)*s.batch)
		if err != nil {
			return nil, err
		}
		pb := plainBatch{x: poolColumns(x, mnist.Side, s.poolBy), y: y}
		if pb.ops.y, err = codec.EncodeMat(y.Rows2D()); err != nil {
			return nil, err
		}
		if !s.cnn {
			if pb.ops.x, err = codec.EncodeMat(pb.x.Rows2D()); err != nil {
				return nil, err
			}
		}
		for c := 0; s.cnn && c < s.batch; c++ {
			vol, err := tensor.VolumeFromFlat(pb.x.Col(c), 1, s.side(), s.side())
			if err != nil {
				return nil, err
			}
			col, err := tensor.Im2Col(vol, convK, convK, convStride, convPad)
			if err != nil {
				return nil, err
			}
			win, err := codec.EncodeMat(col.Rows2D())
			if err != nil {
				return nil, err
			}
			pb.ops.windows = append(pb.ops.windows, win)
		}
		d.batches = append(d.batches, pb)
	}
	from := s.batches * s.batch
	x, y, err := ds.Batch(from, from+s.test)
	if err != nil {
		return nil, err
	}
	d.testX, d.testY = poolColumns(x, mnist.Side, s.poolBy), y
	return d, nil
}

// trainWorkload is train_mlp and train_cnn: a client encrypts batches and
// submits them over the binary codec to a wire.TrainingServer; the server
// trains on what it received, fetching every function key from one
// networked authority. One caller: a trainer blocks on each step.
type trainWorkload struct {
	cfg   runConfig
	shape trainShape
	step  stepConfig
	data  *trainData

	kp        *keyPlane
	collector *wire.TrainingServer
	collected *running
	dataBytes byteCounter
	serverKS  *wire.RemoteKeyService
	clientKS  *wire.RemoteKeyService
	spy       *keySpy
	eng       *securemat.Engine
	client    *core.Client

	real    *nn.Model // stepped by core.Trainer
	twin    *nn.Model // stepped by the skeleton: oracle twin, then shadow
	plain   *nn.Model // ordinary float training on the same batches
	trainer *core.Trainer
	opt     nn.Optimizer // SGD without momentum holds no state: one serves all
	dense   []*core.EncryptedBatch
	conv    []*core.EncryptedConvBatch
	steps   int // steps the real model has taken

	encryptMs []float64 // per batch, first excluded
	submitMs  float64   // per batch
	submitKB  float64   // per batch
}

func newTrainWorkload(cfg runConfig) (*trainWorkload, error) {
	shape := trainShapeFor(cfg.workload, cfg.smoke)
	data, err := newTrainData(shape, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &trainWorkload{cfg: cfg, shape: shape, step: shape.stepConfig(), data: data}, nil
}

func (w *trainWorkload) encrypt(b plainBatch) (*core.EncryptedBatch, *core.EncryptedConvBatch, error) {
	if w.shape.cnn {
		side := w.shape.side()
		enc, err := w.client.EncryptConvBatch(b.x, b.y, 1, side, side, convK, convStride, convPad)
		return nil, enc, err
	}
	enc, err := w.client.EncryptBatch(b.x, b.y)
	return enc, nil, err
}

// submit sends already encrypted batches over one fresh connection (the
// server closes a submission connection at its done marker) and waits until
// the server has taken them in.
func (w *trainWorkload) submit(dense []*core.EncryptedBatch, conv []*core.EncryptedConvBatch, nth int) error {
	conn, err := dialCounted(w.collected.addr, &w.dataBytes)
	if err != nil {
		return err
	}
	cc, err := wire.NewClientConn(conn, wire.CodecBinary)
	if err != nil {
		conn.Close()
		return err
	}
	defer cc.Close()
	if w.shape.cnn {
		err = cc.SubmitConvBatches(conv)
	} else {
		err = cc.SubmitBatches(dense)
	}
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.collector.WaitSubmissions(ctx, nth); err != nil {
		return fmt.Errorf("waiting for submission %d: %w", nth, err)
	}
	w.dense, w.conv = w.collector.Batches(), w.collector.ConvBatches()
	return nil
}

// trainStep is one real operation: core.Trainer on the batch the server
// received.
func (w *trainWorkload) trainStep(i int) error {
	var err error
	if w.shape.cnn {
		_, err = w.trainer.TrainConvBatch(w.conv[i%len(w.conv)], w.opt)
	} else {
		_, err = w.trainer.TrainBatch(w.dense[i%len(w.dense)], w.opt)
	}
	if err == nil {
		w.steps++
	}
	return err
}

// skeletonStep advances model by the skeleton with the given secure ops.
func (w *trainWorkload) skeletonStep(sc *scope, model *nn.Model, dense secureOps, conv convOps) error {
	if w.shape.cnn {
		return convStep(sc, model, conv, w.shape.batch, w.opt, w.step)
	}
	return mlpStep(sc, model, dense, w.shape.batch, w.opt, w.step)
}

// oracleStep advances the twin in plaintext fixed point and compares it
// with the real model, weight for weight.
func (w *trainWorkload) oracleStep(i int) error {
	ops := w.data.batches[i%len(w.data.batches)].ops
	if err := w.skeletonStep(nil, w.twin, ops, ops); err != nil {
		return fmt.Errorf("oracle step %d: %w", i, err)
	}
	if !sameWeights(w.real, w.twin) {
		return fmt.Errorf("step %d: weights differ from the plaintext fixed-point twin", i)
	}
	return nil
}

func (w *trainWorkload) setup() error {
	var err error
	if w.kp, err = startAuthority(); err != nil {
		return err
	}
	w.collector = wire.NewTrainingServer(nil)
	if w.collected, err = serveLoopback(w.collector); err != nil {
		return err
	}

	// Server side: one key connection, decorated, under one engine.
	if w.serverKS, err = w.kp.dial(); err != nil {
		return err
	}
	w.spy = newKeySpy(w.serverKS)
	eng, err := securemat.NewEngine(sparseKeySpy{w.spy, w.serverKS}, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	firstDim := w.shape.features()
	if w.shape.cnn {
		firstDim = convK * convK
	}
	mpk, err := eng.FEIPPublic(firstDim)
	if err != nil {
		return err
	}
	fwd, grad := w.shape.bounds()
	solver, err := dlog.NewSolver(mpk.Params, max(fwd, grad))
	if err != nil {
		return err
	}
	w.eng = eng.WithSolver(solver)
	if w.real, err = w.shape.newModel(w.cfg.seed); err != nil {
		return err
	}
	if w.trainer, err = core.NewTrainer(w.real, w.eng, w.step.core()); err != nil {
		return err
	}
	if w.opt, err = nn.NewSGD(w.shape.lr, 0); err != nil {
		return err
	}
	w.steps = 0

	// Client side: its own key connection (public keys only).
	if w.clientKS, err = w.kp.dial(); err != nil {
		return err
	}
	ceng, err := securemat.NewEngine(w.clientKS, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	if w.client, err = core.NewClient(ceng, w.step.codec, nil); err != nil {
		return err
	}

	// First operation: encrypt, submit, train.
	dense, conv, err := w.encrypt(w.data.batches[0])
	if err != nil {
		return err
	}
	if err := w.submit([]*core.EncryptedBatch{dense}, []*core.EncryptedConvBatch{conv}, 1); err != nil {
		return err
	}
	return w.trainStep(0)
}

func (w *trainWorkload) teardown() {
	if w.serverKS != nil {
		w.serverKS.Close()
	}
	if w.clientKS != nil {
		w.clientKS.Close()
	}
	if w.collected != nil {
		w.collected.stop()
	}
	if w.kp != nil {
		w.kp.stop()
	}
}

// prepare encrypts and submits the rest of the batch pool — client work
// that must not share the two cores with the timed run — and starts the
// twins from the real model's first step.
func (w *trainWorkload) prepare(r *result) error {
	var dense []*core.EncryptedBatch
	var conv []*core.EncryptedConvBatch
	for _, b := range w.data.batches[1:] {
		t := time.Now()
		d, c, err := w.encrypt(b)
		if err != nil {
			return err
		}
		w.encryptMs = append(w.encryptMs, msSince(t))
		dense, conv = append(dense, d), append(conv, c)
	}
	err := encryptMore(&w.encryptMs, w.cfg.smoke, func(i int) error {
		_, _, err := w.encrypt(w.data.batches[i%len(w.data.batches)])
		return err
	})
	if err != nil {
		return err
	}
	sent := w.dataBytes.total()
	t := time.Now()
	if err := w.submit(dense, conv, 2); err != nil {
		return err
	}
	n := float64(len(w.data.batches) - 1)
	w.submitMs = msSince(t) / n
	w.submitKB = float64(w.dataBytes.total()-sent) / 1000 / n

	if w.twin, err = w.shape.newModel(w.cfg.seed); err != nil {
		return err
	}
	if w.plain, err = w.shape.newModel(w.cfg.seed); err != nil {
		return err
	}
	r.count("setup", w.oracleStep(0))
	return w.plainStep(0)
}

// plainStep trains the ordinary float model on batch i.
func (w *trainWorkload) plainStep(i int) error {
	b := w.data.batches[i%len(w.data.batches)]
	_, err := w.plain.TrainBatch(b.x, b.y, w.opt)
	return err
}

// accuracyTolerance is how far the securely trained model's held-out
// accuracy may trail the float twin's, whatever the seed and however many
// steps the box managed in the run. At the learning rates above the largest
// gap seen in plaintext simulation is 0.03, so 0.10 leaves room and still
// catches a codec or clamp that stops the model learning; exactness is what
// the per-step weight oracle holds. One-sided: doing better than the float
// twin is no failure.
const accuracyTolerance = 0.10

// checkAccuracy is the end-of-run oracle: held-out accuracy of the securely
// trained model against an ordinary float model trained on the same batches.
func (w *trainWorkload) checkAccuracy(r *result) {
	secure, err1 := w.real.Accuracy(w.data.testX, w.data.testY)
	plain, err2 := w.plain.Accuracy(w.data.testX, w.data.testY)
	r.Notes["accuracy_secure"], r.Notes["accuracy_plain"] = secure, plain
	r.Notes["steps"] = w.steps
	r.Notes["weight_hash"] = weightHash(w.real)
	err := errors.Join(err1, err2)
	if err == nil && secure < plain-accuracyTolerance {
		err = fmt.Errorf("held-out accuracy %.3f trails the float twin's %.3f after %d steps", secure, plain, w.steps)
	}
	r.count("accuracy", err)
}

// timedRun is the untraced run behind the end-to-end metrics. Every step is
// checked against the oracle twin outside its timed interval.
func (w *trainWorkload) timedRun(r *result, d time.Duration, minOps int) {
	keyBytes := w.kp.bytes.total()
	st := closedLoop(1, d, minOps, nil, func(_, i int, _ *scope) (func() error, error) {
		// The real model has taken step 0 during set-up.
		if err := w.trainStep(i + 1); err != nil {
			return nil, err
		}
		return func() error {
			if err := w.plainStep(i + 1); err != nil {
				return err
			}
			return w.oracleStep(i + 1)
		}, nil
	})
	r.tally("timed", st)
	w.checkAccuracy(r)
	ops := float64(len(st.latMs))
	r.endToEnd(st, w.shape.batch, w.submitKB+float64(w.kp.bytes.total()-keyBytes)/1000/max(ops, 1))
}

// --- shadow step ------------------------------------------------------

// engineOps answers the skeleton from the secure engine: the shadow step.
// It makes the public calls core.Trainer makes, in its order, each under a
// span, and holds every integer result against the plaintext oracle.
type engineOps struct {
	eng      *securemat.Engine
	spy      *keySpy
	encDense *core.EncryptedBatch
	encConv  *core.EncryptedConvBatch
	oracle   plainOps
	cells    *int          // decrypted cells, for securemat.cells_per_op
	seen     *capturedInts // decrypted values, the dlog replay's targets
	check    func(what string, ok bool)
}

// capturedInts keeps a bounded sample of the values a workload decrypts.
type capturedInts struct{ fwd, grad []int64 }

const captureValues = 4096

func keep(dst *[]int64, m [][]int64) {
	for _, row := range m {
		for _, v := range row {
			if len(*dst) < captureValues {
				*dst = append(*dst, v)
			}
		}
	}
}

// spanned runs fn under a child span of sc, pointing the key decorator at
// that span for the duration.
func (o engineOps) spanned(sc *scope, name string, fn func() error) error {
	c := sc.child(name)
	o.spy.under(c)
	err := fn()
	o.spy.under(nil)
	c.end()
	return err
}

func (o engineOps) dot(sc *scope, w [][]int64) (z [][]int64, err error) {
	var keys []*feip.FunctionKey
	err = o.spanned(sc, "securemat.dot_keys", func() (err error) {
		keys, err = o.eng.DotKeys(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = o.spanned(sc, "securemat.secure_dot", func() (err error) {
		z, err = o.eng.SecureDot(o.encDense.X, keys, w, securemat.ComputeOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	want, _ := o.oracle.dot(nil, w)
	o.check("Dot", equalInt(z, want))
	*o.cells += len(z) * len(z[0])
	keep(&o.seen.fwd, z)
	return z, nil
}

func (o engineOps) sub(sc *scope, p [][]int64) (z [][]int64, err error) {
	var y *securemat.EncryptedMatrix
	if o.encConv != nil {
		y = o.encConv.Y
	} else {
		y = o.encDense.Y
	}
	var keys [][]*febo.FunctionKey
	err = o.spanned(sc, "securemat.elementwise_keys", func() (err error) {
		keys, err = o.eng.ElementwiseKeys(y, securemat.ElementwiseSub, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = o.spanned(sc, "securemat.secure_elementwise", func() (err error) {
		z, err = o.eng.SecureElementwise(y, keys, securemat.ElementwiseSub, p, securemat.ComputeOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	want, _ := o.oracle.sub(nil, p)
	o.check("Elementwise", equalInt(z, want))
	*o.cells += len(z) * len(z[0])
	return z, nil
}

func (o engineOps) dotRows(sc *scope, d [][]int64) (g [][]int64, err error) {
	var keys []*feip.FunctionKey
	err = o.spanned(sc, "securemat.grad_keys", func() (err error) {
		keys, err = o.eng.DotKeysUncached(d)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = o.spanned(sc, "securemat.secure_dot_rows", func() (err error) {
		g, err = o.eng.SecureDotRows(o.encDense.X, keys, d, securemat.ComputeOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	want, _ := o.oracle.dotRows(nil, d)
	o.check("DotRows", equalInt(g, want))
	*o.cells += len(g) * len(g[0])
	keep(&o.seen.grad, g)
	return g, nil
}

// conv is core.Trainer.secureConvForward: cached filter keys, then one
// feip.Decrypt per (sample, filter, window) cell.
func (o engineOps) conv(sc *scope, w [][]int64) ([][][]int64, error) {
	var keys []*feip.FunctionKey
	err := o.spanned(sc, "securemat.dot_keys", func() (err error) {
		keys, err = o.eng.DotKeys(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	enc := o.encConv
	out := make([][][]int64, enc.N)
	err = o.spanned(sc, "core.conv_forward_cells", func() error {
		mpk, err := o.eng.FEIPPublic(enc.WindowLen())
		if err != nil {
			return err
		}
		for s := range out {
			out[s] = make([][]int64, len(w))
			for f := range w {
				out[s][f] = make([]int64, enc.NumWindows())
				for c := range out[s][f] {
					v, err := feip.Decrypt(mpk, enc.Windows[s][c], keys[f], w[f], o.eng.Solver())
					if err != nil {
						return fmt.Errorf("conv cell (s=%d,f=%d,w=%d): %w", s, f, c, err)
					}
					out[s][f][c] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	want, _ := o.oracle.conv(nil, w)
	for s := range out {
		o.check("conv Dot", equalInt(out[s], want[s]))
		*o.cells += len(out[s]) * len(out[s][0])
		keep(&o.seen.fwd, out[s])
	}
	return out, nil
}

// convGrad is core.Trainer.secureConvGradAccum: one un-batched IPKey round
// trip per (sample, filter), then one feip.Decrypt per kernel position.
func (o engineOps) convGrad(sc *scope, vecs [][][]int64) ([][][]int64, error) {
	enc := o.encConv
	keys := make([][]*feip.FunctionKey, enc.N)
	err := o.spanned(sc, "securemat.grad_keys", func() error {
		for s := range keys {
			keys[s] = make([]*feip.FunctionKey, len(vecs[s]))
			for f, vec := range vecs[s] {
				fk, err := o.eng.Keys().IPKey(vec)
				if err != nil {
					return fmt.Errorf("conv gradient key (s=%d,f=%d): %w", s, f, err)
				}
				keys[s][f] = fk
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]int64, enc.N)
	err = o.spanned(sc, "core.conv_grad_cells", func() error {
		mpk, err := o.eng.FEIPPublic(enc.NumWindows())
		if err != nil {
			return err
		}
		for s := range out {
			out[s] = make([][]int64, len(vecs[s]))
			for f, vec := range vecs[s] {
				out[s][f] = make([]int64, enc.WindowLen())
				for a := range out[s][f] {
					v, err := feip.Decrypt(mpk, enc.Positions[s][a], keys[s][f], vec, o.eng.Solver())
					if err != nil {
						return fmt.Errorf("conv grad cell (s=%d,f=%d,a=%d): %w", s, f, a, err)
					}
					out[s][f][a] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	want, _ := o.oracle.convGrad(nil, vecs)
	for s := range out {
		o.check("conv DotRows", equalInt(out[s], want[s]))
		*o.cells += len(out[s]) * len(out[s][0])
		keep(&o.seen.grad, out[s])
	}
	return out, nil
}

// tracedRun is the run behind the per-layer metrics: an untraced stretch
// (allocation counts, the untraced median for trace_overhead_share), then
// for every traced operation the real step followed by the shadow step on
// the twin, then the atom replay.
func (w *trainWorkload) tracedRun(r *result, d time.Duration, minOps int, tr *tracer) error {
	// Untraced stretch.
	keys0 := w.kp.mark(w.serverKS)
	hits0, misses0 := w.eng.DotKeyCacheStats()
	step := w.steps
	plain := r.untracedThird(1, d/3, minOps, median(w.encryptMs)/float64(w.shape.batch),
		func(_, i int, _ *scope) (func() error, error) { return nil, w.trainStep(step + i) })
	// Read here, before the shadow step starts asking for the keys the
	// real step has just cached.
	hits, misses := w.eng.DotKeyCacheStats()
	r.set("securemat.dotkey_cache_hit_ratio", float64(hits-hits0)/float64(max(hits-hits0+misses-misses0, 1)), "ratio")
	r.keyPlanePerOp(keys0, w.kp.mark(w.serverKS), float64(max(len(plain.latMs), 1)))

	// Traced stretch: the twin restarts from the real model's weights and
	// is from here on stepped by the shadow, not the plaintext oracle.
	copyWeights(w.twin, w.real)
	copyWeights(w.plain, w.real)
	var cells int
	seen := &capturedInts{}
	var plainUs []float64
	w.spy.capturing(true)
	step = w.steps
	traced := closedLoop(1, d/3, minOps, tr, func(_, i int, sc *scope) (func() error, error) {
		n := step + i
		realSpan := sc.child("core.train_batch")
		w.spy.under(realSpan)
		err := w.trainStep(n)
		w.spy.under(nil)
		realSpan.end()
		if err != nil {
			return nil, err
		}
		b := n % len(w.data.batches)
		ops := engineOps{
			eng: w.eng, spy: w.spy, oracle: w.data.batches[b].ops, cells: &cells, seen: seen,
			check: func(what string, ok bool) {
				var err error
				if !ok {
					err = fmt.Errorf("step %d: %s differs from the plaintext integer product", n, what)
				}
				r.count("oracle", err)
			},
		}
		if w.shape.cnn {
			ops.encConv = w.conv[b]
		} else {
			ops.encDense = w.dense[b]
		}
		shadow := sc.child("core.shadow_step")
		err = w.skeletonStep(shadow, w.twin, ops, ops)
		shadow.end()
		if err != nil {
			return nil, fmt.Errorf("shadow step %d: %w", n, err)
		}
		var same error
		if !sameWeights(w.real, w.twin) {
			same = fmt.Errorf("step %d: shadow step and core.Trainer disagree on the weights", n)
		}
		r.count("oracle", same)
		t := time.Now()
		if err := w.plainStep(n); err != nil {
			return nil, err
		}
		plainUs = append(plainUs, float64(time.Since(t).Nanoseconds())/1e3)
		return nil, nil
	})
	w.spy.capturing(false)
	r.tally("traced", traced)
	w.checkAccuracy(r)
	if len(traced.latMs) == 0 {
		return errors.New("no traced operation completed")
	}
	tops := float64(len(traced.latMs))

	spans := tr.finished()
	realMs := median(durationsMs(spans, "core.train_batch"))
	w.layerMetrics(r, spans, realMs)
	r.set("trace_overhead_share", (realMs-median(plain.latMs))/median(plain.latMs), "ratio")
	r.set("securemat.cells_per_op", float64(cells)/tops, "count")
	r.set("core.secure_over_plain", realMs*1e3/median(plainUs), "ratio")
	r.set("nn.plain_step_us", median(plainUs), "us")
	r.set("core.encrypt_batch_ms", median(w.encryptMs), "ms")
	r.set("securemat.encrypt_ms", median(w.encryptMs), "ms")
	r.set("wire.submit_ms_per_batch", w.submitMs, "ms")
	r.set("wire.submit_kb_per_sample", w.submitKB/float64(w.shape.batch), "kB")
	r.Notes["traced_ops"] = len(traced.latMs)

	w.replay(r, seen, d/3)
	return nil
}

// layerMetrics turns the shadow step's spans into the securemat / core / nn
// readings. Every span metric is a median over operations of the time the
// operation spent in spans of that name.
func (w *trainWorkload) layerMetrics(r *result, spans []span, realMs float64) {
	for metricName, spanName := range map[string]string{
		"securemat.dot_keys_ms":           "securemat.dot_keys",
		"securemat.secure_dot_ms":         "securemat.secure_dot",
		"securemat.elementwise_keys_ms":   "securemat.elementwise_keys",
		"securemat.secure_elementwise_ms": "securemat.secure_elementwise",
		"securemat.grad_keys_ms":          "securemat.grad_keys",
		"securemat.secure_dot_rows_ms":    "securemat.secure_dot_rows",
	} {
		r.set(metricName, median(perOpMs(spans, spanName)), "ms")
	}
	nnMs := median(perOpMs(spans, "nn.forward")) + median(perOpMs(spans, "nn.backward")) + median(perOpMs(spans, "nn.apply_step"))
	r.set("nn.forward_backward_ms", nnMs, "ms")

	// Coverage: the time the shadow step's phases account for, against
	// the real step it shadows.
	var shadowID = make(map[int]bool)
	for _, s := range spans {
		if s.Name == "core.shadow_step" {
			shadowID[s.ID] = true
		}
	}
	covered := make(map[int]float64)
	for _, s := range spans {
		if shadowID[s.Parent] {
			covered[s.Op] += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	var perOp []float64
	for _, v := range covered {
		perOp = append(perOp, v)
	}
	r.set("core.step_span_coverage", median(perOp)/realMs, "ratio")

	keyMs := durationsMs(spans, "wire.key_call")
	r.Notes["key_call_ms_p50"] = median(keyMs)
}

// replay runs the atom replay on this workload's shapes and values.
func (w *trainWorkload) replay(r *result, seen *capturedInts, budget time.Duration) {
	fwd, grad := w.shape.bounds()
	s := atomShape{
		seed:   w.cfg.seed,
		eta:    w.shape.features(),
		expMag: int64(w.step.maxWeight) * w.step.codec.Factor(),
		bound:  max(fwd, grad),
		fwd:    seen.fwd, grad: seen.grad,
		febo: true, feipSetup: true,
		matmulRows: w.shape.hidden, matmulCols: w.shape.features(),
		calls: map[string][]keyCall{},
		auth:  w.kp.auth,
	}
	if w.shape.cnn {
		s.eta = convK * convK
		s.matmulRows, s.matmulCols = w.shape.filters, convK*convK
	}
	for _, kind := range []string{"ip", "ip_batch", "bo_batch"} {
		s.calls[kind] = w.spy.calledWith(kind)
	}
	r.count("atoms", replayAtoms(r, s, budget))
}
