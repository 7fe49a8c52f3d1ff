package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/service"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// serveShape fixes the size of a prediction-serving workload.
type serveShape struct {
	topk     bool
	features int
	hidden   int // dense MLP hidden width
	classes  int // output classes, or labels of the linear top-k model
	nnz      int // non-zero coordinates per sparse sample
	k        int
	pool     int // distinct pre-encrypted requests
	inflight int // requests in flight per connection
}

func serveShapeFor(name string, smoke bool) serveShape {
	switch {
	case name == "serve_dense" && !smoke:
		return serveShape{features: 784, hidden: 32, classes: 10, pool: 32, inflight: 4}
	case name == "serve_dense":
		return serveShape{features: 64, hidden: 8, classes: 10, pool: 4, inflight: 2}
	case !smoke:
		return serveShape{topk: true, features: 10000, classes: 512, nnz: 100, k: 10, pool: 32, inflight: 4}
	default:
		return serveShape{topk: true, features: 400, classes: 24, nnz: 8, k: 3, pool: 4, inflight: 2}
	}
}

// serviceMaxWeight is service.Config's default weight clamp.
const serviceMaxWeight = 4

// serveSample is one request of the pool: its plaintext, what the oracle
// says the server must answer, and its ciphertext.
type serveSample struct {
	x        []float64 // dense input, on the fixed-point grid
	idx      []int     // sparse support
	vals     []int64   // encoded values on the support
	wantPred int
	wantHits []dlog.TopKHit
	dense    *core.EncryptedBatch
	sparse   *core.SparseBatch
}

// serveWorkload is serve_dense and serve_topk: service.Server behind the
// coalescing prediction server, asked over the binary codec by a fixed
// number of callers that each wait for their answer.
type serveWorkload struct {
	cfg   runConfig
	shape serveShape
	codec *fixedpoint.Codec
	rng   *rand.Rand

	kp        *keyPlane
	serverKS  *wire.RemoteKeyService
	clientKS  *wire.RemoteKeyService
	spy       *keySpy
	srv       *service.Server
	ps        *wire.PredictionServer
	serving   *running
	dataBytes byteCounter
	clientEng *securemat.Engine
	client    *core.Client
	conns     []*wire.ClientConn
	twin      *nn.Model // plaintext model with the served weights (dense oracle)
	denseW    [][]int64 // its first layer as the server encodes it
	pool      []*serveSample

	encryptMs []float64 // per sample, first excluded

	// Evaluation seam: the decorated PredictFunc / PredictTopKFunc.
	tr       atomic.Pointer[tracer]
	evalMu   sync.Mutex
	evalMs   []float64
	evalN    []int
	capDense []*core.EncryptedBatch
	capTopK  []*core.SparseBatch
	capture  bool
	evals    atomic.Int64
	depthMax atomic.Int64
}

func newServeWorkload(cfg runConfig) *serveWorkload {
	return &serveWorkload{
		cfg:   cfg,
		shape: serveShapeFor(cfg.workload, cfg.smoke),
		codec: fixedpoint.Default(),
	}
}

func (w *serveWorkload) callers() int { return w.cfg.conns * w.shape.inflight }

// snap rounds v to the two-decimal fixed-point grid.
func snap(v float64) float64 { return math.Round(v*100) / 100 }

// layer0 is the served model's first (secure) layer.
func (w *serveWorkload) layer0() *nn.DenseLayer { return w.srv.Model().Layers[0].(*nn.DenseLayer) }

// seedModel puts the -seed-driven weights on the served model: the MLP's
// Xavier weights snapped to the grid, or grid weights in [−1, 1] for the
// linear top-k model (its own initialisation would encode to almost all
// zeros at η = 10000).
func (w *serveWorkload) seedModel() {
	l0 := w.layer0()
	rng := rand.New(rand.NewSource(w.cfg.seed + 1))
	for i, v := range l0.W.Data {
		if w.shape.topk {
			l0.W.Data[i] = float64(rng.Intn(201)-100) / 100
		} else {
			l0.W.Data[i] = snap(v)
		}
	}
}

// evaluated records one evaluation at the service seam.
func (w *serveWorkload) evaluated(start time.Time, n int, dense *core.EncryptedBatch, sparse *core.SparseBatch) {
	ms := msSince(start)
	w.evals.Add(1)
	w.evalMu.Lock()
	w.evalMs = append(w.evalMs, ms)
	w.evalN = append(w.evalN, n)
	if w.capture && len(w.capDense)+len(w.capTopK) < 8 {
		if dense != nil {
			w.capDense = append(w.capDense, dense)
		} else {
			w.capTopK = append(w.capTopK, sparse)
		}
	}
	w.evalMu.Unlock()
}

func (w *serveWorkload) predict(enc *core.EncryptedBatch) ([]int, error) {
	sc := w.tr.Load().root("service.predict", int(w.evals.Load()))
	w.spy.under(sc)
	start := time.Now()
	preds, err := w.srv.Predict(enc)
	w.evaluated(start, enc.N, enc, nil)
	w.spy.under(nil)
	sc.end()
	return preds, err
}

func (w *serveWorkload) predictTopK(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
	sc := w.tr.Load().root("service.predict_topk", int(w.evals.Load()))
	w.spy.under(sc)
	start := time.Now()
	hits, err := w.srv.PredictTopK(sp, k)
	w.evaluated(start, sp.N, nil, sp)
	w.spy.under(nil)
	sc.end()
	return hits, err
}

// newSample draws the next request of the pool from the seed and works out
// the oracle's answer for it.
func (w *serveWorkload) newSample() (*serveSample, error) {
	s := &serveSample{}
	l0 := w.layer0()
	if w.shape.topk {
		s.idx = randSupport(w.rng, w.shape.features, w.shape.nnz)
		s.vals = make([]int64, len(s.idx))
		for t := range s.vals {
			s.vals[t] = 1 + w.rng.Int63n(100)
		}
		logits := make([]int64, w.shape.classes)
		for i := range logits {
			for t, c := range s.idx {
				logits[i] += int64(math.Round(l0.W.At(i, c)*100)) * s.vals[t]
			}
		}
		s.wantHits = topKInt(logits, w.shape.k)
		return s, nil
	}
	s.x = make([]float64, w.shape.features)
	for i := range s.x {
		s.x[i] = float64(w.rng.Intn(101)) / 100
	}
	// The plaintext model on the grid: integer first layer, then the
	// ordinary forward pass — what Predict computes, without ciphertexts.
	xInt := make([][]int64, len(s.x))
	for i, v := range s.x {
		xInt[i] = []int64{int64(math.Round(v * 100))}
	}
	z := denseFromInt(matMulInt(w.denseW, xInt), w.codec.DecodeProduct)
	if err := z.AddColVector(l0.B.Data); err != nil {
		return nil, err
	}
	out, err := w.twin.ForwardFrom(1, z)
	if err != nil {
		return nil, err
	}
	s.wantPred = out.ArgMaxCol(0)
	return s, nil
}

// encrypt is the client's pre-processing of one request.
func (w *serveWorkload) encrypt(s *serveSample) error {
	x := tensor.NewDense(w.shape.features, 1)
	if w.shape.topk {
		for t, c := range s.idx {
			x.Set(c, 0, float64(s.vals[t])/100)
		}
		var err error
		s.sparse, err = w.client.EncryptSparseBatch(x, w.shape.classes)
		return err
	}
	xi := make([][]int64, len(s.x))
	for i, v := range s.x {
		e, err := w.codec.Encode(v)
		if err != nil {
			return err
		}
		xi[i] = []int64{e}
	}
	// Prediction touches only the column ciphertexts of X.
	encX, err := w.clientEng.Encrypt(xi, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		return err
	}
	s.dense = &core.EncryptedBatch{X: encX, Features: w.shape.features, Classes: w.shape.classes, N: 1}
	return nil
}

// request sends one pool sample over conn and checks the answer.
func (w *serveWorkload) request(conn *wire.ClientConn, s *serveSample) error {
	if w.shape.topk {
		hits, err := conn.PredictTopK(context.Background(), s.sparse, w.shape.k, 0)
		if err != nil {
			return err
		}
		if len(hits) != 1 || !equalHits(hits[0], s.wantHits) {
			return oracleError{fmt.Errorf("top-%d answer %v, plaintext top-k %v", w.shape.k, hits, s.wantHits)}
		}
		return nil
	}
	preds, err := conn.Predict(context.Background(), s.dense, 0)
	if err != nil {
		return err
	}
	if len(preds) != 1 || preds[0] != s.wantPred {
		return oracleError{fmt.Errorf("predicted %v, plaintext model on the grid says %d", preds, s.wantPred)}
	}
	return nil
}

// oracleError marks an answer that arrived but is wrong.
type oracleError struct{ error }

func (w *serveWorkload) dialClient() error {
	conn, err := dialCounted(w.serving.addr, &w.dataBytes)
	if err != nil {
		return err
	}
	cc, err := wire.NewClientConn(conn, wire.CodecBinary)
	if err != nil {
		conn.Close()
		return err
	}
	w.conns = append(w.conns, cc)
	return nil
}

func (w *serveWorkload) setup() error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.pool, w.conns = nil, nil
	var err error
	if w.kp, err = startAuthority(); err != nil {
		return err
	}
	if w.serverKS, err = w.kp.dial(); err != nil {
		return err
	}
	w.spy = newKeySpy(w.serverKS)
	cfg := service.Config{Features: w.shape.features, Classes: w.shape.classes, Seed: w.cfg.seed}
	if w.shape.topk {
		cfg.Linear = true
	} else {
		cfg.Hidden = []int{w.shape.hidden}
	}
	if w.srv, err = service.New(sparseKeySpy{w.spy, w.serverKS}, cfg); err != nil {
		return err
	}
	w.seedModel()
	if !w.shape.topk {
		w.twin, err = nn.NewMLP(w.shape.features, w.shape.classes, cfg.Hidden,
			nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(w.cfg.seed)))
		if err != nil {
			return err
		}
		copyWeights(w.twin, w.srv.Model())
		if w.denseW, err = clampEncode(w.codec, w.layer0().W, serviceMaxWeight); err != nil {
			return err
		}
	}
	w.ps, err = wire.NewCoalescingPredictionServer(w.predict, nil, wire.DispatcherOptions{TopK: w.predictTopK})
	if err != nil {
		return err
	}
	if w.serving, err = serveLoopback(w.ps); err != nil {
		return err
	}

	if w.clientKS, err = w.kp.dial(); err != nil {
		return err
	}
	if w.clientEng, err = securemat.NewEngine(w.clientKS, securemat.EngineOptions{}); err != nil {
		return err
	}
	if w.client, err = core.NewClient(w.clientEng, w.codec, nil); err != nil {
		return err
	}
	first, err := w.newSample()
	if err != nil {
		return err
	}
	if err := w.encrypt(first); err != nil {
		return err
	}
	w.pool = append(w.pool, first)
	if err := w.dialClient(); err != nil {
		return err
	}
	return w.request(w.conns[0], first)
}

func (w *serveWorkload) teardown() {
	for _, c := range w.conns {
		c.Close()
	}
	if w.serverKS != nil {
		w.serverKS.Close()
	}
	if w.clientKS != nil {
		w.clientKS.Close()
	}
	if w.serving != nil {
		w.serving.stop()
	}
	if w.kp != nil {
		w.kp.stop()
	}
}

// prepare encrypts the rest of the request pool before the clock starts —
// client and server share the cores — and opens the remaining connections.
func (w *serveWorkload) prepare(r *result) error {
	for len(w.pool) < w.shape.pool {
		s, err := w.newSample()
		if err != nil {
			return err
		}
		t := time.Now()
		if err := w.encrypt(s); err != nil {
			return err
		}
		w.encryptMs = append(w.encryptMs, msSince(t))
		w.pool = append(w.pool, s)
	}
	err := encryptMore(&w.encryptMs, w.cfg.smoke, func(i int) error {
		again := *w.pool[i%len(w.pool)]
		return w.encrypt(&again)
	})
	if err != nil {
		return err
	}
	for len(w.conns) < w.cfg.conns {
		if err := w.dialClient(); err != nil {
			return err
		}
	}
	r.count("setup", nil) // the first request, checked in setup
	return nil
}

// logits is the plaintext W·x on a support; nil vals reads every value as 1.
func (w *serveWorkload) logits(wInt [][]int64, idx []int, vals []int64) []int64 {
	out := make([]int64, len(wInt))
	for i, row := range wInt {
		for t, c := range idx {
			if vals == nil {
				out[i] += row[c]
			} else {
				out[i] += row[c] * vals[t]
			}
		}
	}
	return out
}

// op is one prediction request of one caller.
func (w *serveWorkload) op() opFunc {
	callers := w.callers()
	return func(c, i int, _ *scope) (func() error, error) {
		s := w.pool[(c+i*callers)%len(w.pool)]
		err := w.request(w.conns[c%len(w.conns)], s)
		var wrong oracleError
		if errors.As(err, &wrong) {
			return func() error { return wrong }, nil
		}
		return nil, err
	}
}

func (w *serveWorkload) timedRun(r *result, d time.Duration, minOps int) {
	keyBytes, dataBytes := w.kp.bytes.total(), w.dataBytes.total()
	st := closedLoop(w.callers(), d, minOps, nil, w.op())
	r.tally("timed", st)
	ops := float64(max(len(st.latMs), 1))
	comm := float64(w.kp.bytes.total()-keyBytes+w.dataBytes.total()-dataBytes) / 1000 / ops
	r.endToEnd(st, 1, comm)
	r.Notes["in_flight"] = w.callers()
}

// engineCounters reads the served engine's public counters, which the
// service exposes only as a metrics source.
func (w *serveWorkload) engineCounters() map[string]float64 {
	var buf bytes.Buffer
	w.srv.EngineMetrics().WriteMetrics(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func (w *serveWorkload) tracedRun(r *result, d time.Duration, minOps int, tr *tracer) error {
	plain := r.untracedThird(w.callers(), d/3, minOps, median(w.encryptMs), w.op())

	// Traced stretch.
	w.evalMu.Lock()
	w.evalMs, w.evalN, w.capture = nil, nil, true
	w.evalMu.Unlock()
	w.spy.capturing(true)
	keys0, dataBytes0 := w.kp.mark(w.serverKS), w.dataBytes.total()
	eng0, disp0 := w.engineCounters(), w.ps.Stats()
	w.tr.Store(tr)
	base := w.op()
	traced := closedLoop(w.callers(), d/3, minOps, tr, func(c, i int, sc *scope) (func() error, error) {
		post, err := base(c, i, sc)
		if depth := int64(w.ps.Stats().QueueDepth); depth > w.depthMax.Load() {
			w.depthMax.Store(depth)
		}
		return post, err
	})
	w.tr.Store(nil)
	w.spy.capturing(false)
	r.tally("traced", traced)
	if len(traced.latMs) == 0 {
		return errors.New("no traced operation completed")
	}
	tops := float64(len(traced.latMs))
	eng, disp := w.engineCounters(), w.ps.Stats()
	r.keyPlanePerOp(keys0, w.kp.mark(w.serverKS), tops)
	r.set("wire.predict_kb_per_sample", float64(w.dataBytes.total()-dataBytes0)/1000/tops, "kB")
	evals := float64(max(disp.Evals-disp0.Evals, 1))
	r.set("wire.coalesced_width", float64(disp.Samples-disp0.Samples)/evals, "count")
	r.set("wire.queue_depth_max", float64(w.depthMax.Load()), "count")
	r.set("wire.busy_rejections", float64(disp.Rejected-disp0.Rejected), "count")
	r.set("wire.roundtrip_ms_p99", float64(disp.P99.Nanoseconds())/1e6, "ms")
	hits := eng["cryptonn_securemat_dotkey_cache_hits_total"] - eng0["cryptonn_securemat_dotkey_cache_hits_total"]
	misses := eng["cryptonn_securemat_dotkey_cache_misses_total"] - eng0["cryptonn_securemat_dotkey_cache_misses_total"]
	if hits+misses > 0 {
		r.set("securemat.dotkey_cache_hit_ratio", hits/(hits+misses), "ratio")
	}
	r.set("dlog.topk_solved_per_sample", (eng["cryptonn_securemat_topk_solved_total"]-eng0["cryptonn_securemat_topk_solved_total"])/tops, "count")
	r.set("dlog.topk_rounds_per_sample", (eng["cryptonn_securemat_topk_rounds_total"]-eng0["cryptonn_securemat_topk_rounds_total"])/tops, "count")

	w.evalMu.Lock()
	evalMs, evalN := w.evalMs, w.evalN
	w.capture = false
	w.evalMu.Unlock()
	var sumMs float64
	var sumN int
	for i, ms := range evalMs {
		sumMs += ms
		sumN += evalN[i]
	}
	perSample := sumMs / float64(max(sumN, 1))
	if w.shape.topk {
		r.set("service.predict_topk_ms_per_sample", perSample, "ms")
	} else {
		r.set("service.predict_ms_per_sample", perSample, "ms")
	}
	r.set("service.predict_ms_per_eval", median(evalMs), "ms")
	r.set("wire.overhead_ms", median(traced.latMs)-median(evalMs), "ms")
	r.set("trace_overhead_share", (median(traced.latMs)-median(plain.latMs))/median(plain.latMs), "ratio")
	r.set("core.encrypt_batch_ms", median(w.encryptMs), "ms")
	if w.shape.topk {
		r.set("securemat.encrypt_sparse_ms", median(w.encryptMs), "ms")
	} else {
		r.set("securemat.encrypt_ms", median(w.encryptMs), "ms")
	}
	r.Notes["traced_ops"] = len(traced.latMs)

	return w.shadow(r, tr, perSample, d/3)
}

// shadow replays captured evaluations through the public securemat calls
// service.Server makes, on an engine of the benchmark's own over a second
// key connection, after the load has stopped; then the atoms.
func (w *serveWorkload) shadow(r *result, tr *tracer, perSampleMs float64, budget time.Duration) error {
	ks, err := w.kp.dial()
	if err != nil {
		return err
	}
	defer ks.Close()
	spy := newKeySpy(ks)
	spy.capturing(true)
	bound := core.SolverBound(w.codec, w.shape.features, 1, serviceMaxWeight, 1)
	eng, err := securemat.NewEngine(sparseKeySpy{spy, ks}, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	mpk, err := eng.FEIPPublic(w.shape.features)
	if err != nil {
		return err
	}
	solver, err := dlog.NewSolver(mpk.Params, bound)
	if err != nil {
		return err
	}
	eng = eng.WithSolver(solver)
	l0 := w.layer0()
	wInt := w.denseW
	if w.shape.topk {
		if wInt, err = clampEncode(w.codec, l0.W, serviceMaxWeight); err != nil {
			return err
		}
	}

	var cells, samples int
	var fwd []int64
	var plainUs []float64
	var ceiling int64
	for i, enc := range w.capDense {
		sc := tr.root("core.shadow_eval", i)
		var keys []*feip.FunctionKey
		var z [][]int64
		spy.under(sc)
		err := timed(sc, "securemat.dot_keys", func() (err error) { keys, err = eng.DotKeys(wInt); return err })
		if err == nil {
			err = timed(sc, "securemat.secure_dot", func() (err error) {
				z, err = eng.SecureDot(enc.X, keys, wInt, securemat.ComputeOptions{})
				return err
			})
		}
		if err == nil {
			err = timed(sc, "nn.forward", func() error {
				zf := denseFromInt(z, w.codec.DecodeProduct)
				if err := zf.AddColVector(l0.B.Data); err != nil {
					return err
				}
				_, err := w.twin.ForwardFrom(1, zf)
				return err
			})
		}
		spy.under(nil)
		sc.end()
		if err != nil {
			return err
		}
		cells += len(z) * len(z[0])
		samples += enc.N
		keep(&fwd, z)
		// The plaintext cost of the same evaluation.
		x := tensor.NewDense(w.shape.features, enc.N)
		t := time.Now()
		if _, err := w.twin.Forward(x); err != nil {
			return err
		}
		plainUs = append(plainUs, float64(time.Since(t).Nanoseconds())/1e3/float64(enc.N))
	}
	for i, sp := range w.capTopK {
		sc := tr.root("core.shadow_eval", i)
		var keys [][]*feip.FunctionKey
		spy.under(sc)
		err := timed(sc, "securemat.sparse_dot_keys", func() (err error) { keys, err = eng.SparseDotKeys(sp.X, wInt); return err })
		if err == nil {
			err = timed(sc, "securemat.dot_topk", func() (err error) {
				_, err = eng.SecureDotTopK(sp.X, keys, wInt, w.shape.k,
					securemat.ComputeOptions{InputMagnitude: w.codec.Factor()})
				return err
			})
		}
		spy.under(nil)
		sc.end()
		if err != nil {
			return err
		}
		cells += w.shape.classes * sp.N
		samples += sp.N
		// Plaintext: W·x over the support and a full ranking.
		t := time.Now()
		for j := 0; j < sp.N; j++ {
			_ = topKInt(w.logits(wInt, sp.X.ColCts[j].Idx, nil), w.shape.k)
		}
		plainUs = append(plainUs, float64(time.Since(t).Nanoseconds())/1e3/float64(sp.N))
	}
	if w.shape.topk {
		// One pool sample's logits are the look-up and top-k targets of the
		// atom replay; its ceiling is the one the engine derives.
		first := w.pool[0]
		fwd = w.logits(wInt, first.idx, first.vals)
		for _, row := range wInt {
			var abs int64
			for _, c := range first.idx {
				abs += max(row[c], -row[c])
			}
			ceiling = max(ceiling, abs*w.codec.Factor())
		}
		ceiling = min(ceiling, bound)
	}
	if samples == 0 {
		return errors.New("no evaluation was captured for the shadow replay")
	}
	spans := tr.finished()
	var covered float64
	for metricName, spanName := range map[string]string{
		"securemat.dot_keys_ms":        "securemat.dot_keys",
		"securemat.secure_dot_ms":      "securemat.secure_dot",
		"securemat.sparse_dot_keys_ms": "securemat.sparse_dot_keys",
		"securemat.dot_topk_ms":        "securemat.dot_topk",
	} {
		if ms := durationsMs(spans, spanName); len(ms) > 0 {
			r.set(metricName, median(ms), "ms")
		}
	}
	for _, name := range []string{"securemat.dot_keys", "securemat.secure_dot", "securemat.sparse_dot_keys", "securemat.dot_topk", "nn.forward"} {
		for _, ms := range durationsMs(spans, name) {
			covered += ms
		}
	}
	r.set("securemat.cells_per_op", float64(cells)/float64(samples), "count")
	r.set("core.step_span_coverage", covered/float64(samples)/perSampleMs, "ratio")
	r.set("core.secure_over_plain", perSampleMs*1e3/median(plainUs), "ratio")
	if !w.shape.topk {
		r.set("nn.forward_backward_ms", median(durationsMs(spans, "nn.forward")), "ms")
	}

	s := atomShape{
		seed: w.cfg.seed, eta: w.shape.features, expMag: serviceMaxWeight * w.codec.Factor(),
		bound: bound, fwd: fwd, feipSetup: true,
		calls: map[string][]keyCall{}, auth: w.kp.auth,
	}
	if w.shape.topk {
		s.nnz, s.labels, s.k, s.ceiling = w.shape.nnz, w.shape.classes, w.shape.k, ceiling
		s.calls["ip_sparse"] = w.spy.calledWith("ip_sparse")
	} else {
		s.matmulRows, s.matmulCols = w.shape.hidden, w.shape.features
		s.calls["ip_batch"] = spy.calledWith("ip_batch")
	}
	r.count("atoms", replayAtoms(r, s, budget))
	return nil
}
