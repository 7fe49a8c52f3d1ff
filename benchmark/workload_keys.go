package main

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
	"cryptonn/internal/wire"
)

// Threshold shape of the quorum workload: any 3 of 5 nodes derive a key.
const quorumT, quorumN = 3, 5

// keyBundle is the function keys one train_mlp step asks for: the forward
// dot-product keys (one per row of W), the FEBO subtraction keys (one per
// label element) and the gradient dot-product keys (one per row of dZ).
type keyBundle struct {
	w, p, dz [][]int64
	cmts     []*big.Int
	pflat    []int64
	enc      *core.EncryptedBatch
	plain    plainOps
}

func (b *keyBundle) keys() int { return len(b.w) + len(b.cmts) + len(b.dz) }

// sampledKey is one key of a delivered bundle, held for verification after
// the clock stops.
type sampledKey struct {
	b    *keyBundle
	n    int // index into the bundle: forward keys, then FEBO keys, then gradient keys
	feip *feip.FunctionKey
	febo *febo.FunctionKey
}

// keysWorkload is keys_quorum: the key plane alone. Two callers each ask a
// 3-of-5 node cluster for one training step's key bundle and wait for it.
type keysWorkload struct {
	cfg   runConfig
	shape trainShape
	data  *trainData
	rng   *rand.Rand

	kp      *keyPlane
	qs      *wire.QuorumKeyService
	spies   []*keySpy // one decorator per caller, each with its own span scope
	client  *core.Client
	bundles []*keyBundle

	encryptMs []float64

	mu      sync.Mutex
	sampled []sampledKey
}

func newKeysWorkload(cfg runConfig) (*keysWorkload, error) {
	shape := trainShapeFor("train_mlp", cfg.smoke)
	shape.batches, shape.test = 4, 1
	data, err := newTrainData(shape, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &keysWorkload{cfg: cfg, shape: shape, data: data}, nil
}

func (w *keysWorkload) callers() int { return w.cfg.conns }

// newBundle encrypts batch i under the cluster's joint keys and draws the
// plaintext operands of its key requests from the seed.
func (w *keysWorkload) newBundle(i int) (*keyBundle, error) {
	pb := w.data.batches[i]
	t := time.Now()
	enc, err := w.client.EncryptBatch(pb.x, pb.y)
	if err != nil {
		return nil, err
	}
	if i > 0 { // the first encryption builds the tables and belongs to set-up
		w.encryptMs = append(w.encryptMs, msSince(t))
	}
	step := w.shape.stepConfig()
	wMag := int64(step.maxWeight) * step.codec.Factor()
	b := &keyBundle{enc: enc, plain: pb.ops}
	for r := 0; r < w.shape.hidden; r++ {
		b.w = append(b.w, randInts(w.rng, w.shape.features(), wMag))
		b.dz = append(b.dz, randInts(w.rng, w.shape.batch, wMag*int64(step.gradScale)/100))
	}
	for _, row := range enc.Y.Elems {
		prow := make([]int64, len(row))
		for c, ct := range row {
			prow[c] = w.rng.Int63n(step.codec.Factor() + 1)
			b.cmts = append(b.cmts, ct.Cmt)
			b.pflat = append(b.pflat, prow[c])
		}
		b.p = append(b.p, prow)
	}
	return b, nil
}

// fetch asks ks for one bundle and samples one of its keys.
func (w *keysWorkload) fetch(ks securemat.BatchKeyService, b *keyBundle, pick int) (sampledKey, error) {
	fwd, err := ks.IPKeyBatch(b.w)
	if err != nil {
		return sampledKey{}, err
	}
	bo, err := ks.BOKeyBatch(b.cmts, febo.OpSub, b.pflat)
	if err != nil {
		return sampledKey{}, err
	}
	grad, err := ks.IPKeyBatch(b.dz)
	if err != nil {
		return sampledKey{}, err
	}
	if len(fwd) != len(b.w) || len(bo) != len(b.cmts) || len(grad) != len(b.dz) {
		return sampledKey{}, fmt.Errorf("bundle of %d keys came back as %d+%d+%d", b.keys(), len(fwd), len(bo), len(grad))
	}
	s := sampledKey{b: b, n: pick % b.keys()}
	switch n := s.n; {
	case n < len(fwd):
		s.feip = fwd[n]
	case n < len(fwd)+len(bo):
		s.febo = bo[n-len(fwd)]
	default:
		s.feip = grad[n-len(fwd)-len(bo)]
	}
	return s, nil
}

// verify decrypts a test ciphertext with the sampled key and compares the
// result with the plaintext ⟨x, y⟩ or x − y.
func (w *keysWorkload) verify(s sampledKey, solver *dlog.Solver) error {
	b, eng := s.b, w.client.Engine
	cols := len(b.p[0])
	switch n := s.n; {
	case n < len(b.w):
		mpk, err := eng.FEIPPublic(w.shape.features())
		if err != nil {
			return err
		}
		got, err := feip.Decrypt(mpk, b.enc.X.ColCts[0], s.feip, b.w[n], solver)
		if want := matMulInt(b.w[n:n+1], b.plain.x)[0][0]; err != nil || got != want {
			return fmt.Errorf("forward key %d decrypts to %d (%v), want ⟨x,y⟩ = %d", n, got, err, want)
		}
	case n < len(b.w)+len(b.cmts):
		e := n - len(b.w)
		pk, err := eng.FEBOPublic()
		if err != nil {
			return err
		}
		i, j := e/cols, e%cols
		got, err := febo.Decrypt(pk, s.febo, b.enc.Y.Elems[i][j], febo.OpSub, b.p[i][j], solver)
		if want := b.plain.y[i][j] - b.p[i][j]; err != nil || got != want {
			return fmt.Errorf("FEBO key (%d,%d) decrypts to %d (%v), want x−y = %d", i, j, got, err, want)
		}
	default:
		g := n - len(b.w) - len(b.cmts)
		mpk, err := eng.FEIPPublic(w.shape.batch)
		if err != nil {
			return err
		}
		got, err := feip.Decrypt(mpk, b.enc.X.RowCts[0], s.feip, b.dz[g], solver)
		if want := dotInt(b.dz[g], b.plain.x[0]); err != nil || got != want {
			return fmt.Errorf("gradient key %d decrypts to %d (%v), want ⟨x,y⟩ = %d", g, got, err, want)
		}
	}
	return nil
}

func (w *keysWorkload) setup() error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.bundles, w.sampled = nil, nil
	var err error
	if w.kp, err = startCluster(quorumT, quorumN); err != nil {
		return err
	}
	if w.qs, err = w.kp.dialQuorum(); err != nil {
		return err
	}
	w.spies = nil
	for c := 0; c < w.callers(); c++ {
		w.spies = append(w.spies, newKeySpy(w.qs))
	}
	eng, err := securemat.NewEngine(w.qs, securemat.EngineOptions{})
	if err != nil {
		return err
	}
	if w.client, err = core.NewClient(eng, w.shape.stepConfig().codec, nil); err != nil {
		return err
	}
	first, err := w.newBundle(0)
	if err != nil {
		return err
	}
	w.bundles = append(w.bundles, first)
	s, err := w.fetch(w.spies[0], first, 0)
	if err != nil {
		return err
	}
	w.sampled = append(w.sampled, s)
	return nil
}

func (w *keysWorkload) teardown() {
	if w.qs != nil {
		w.qs.Close()
	}
	if w.kp != nil {
		w.kp.stop()
	}
}

func (w *keysWorkload) prepare(r *result) error {
	for i := 1; i < len(w.data.batches); i++ {
		b, err := w.newBundle(i)
		if err != nil {
			return err
		}
		w.bundles = append(w.bundles, b)
	}
	return encryptMore(&w.encryptMs, w.cfg.smoke, func(i int) error {
		pb := w.data.batches[i%len(w.data.batches)]
		_, err := w.client.EncryptBatch(pb.x, pb.y)
		return err
	})
}

// verifySampled checks every key sampled so far and tallies the outcome.
func (w *keysWorkload) verifySampled(r *result) error {
	fwd, grad := w.shape.bounds()
	solver, err := dlog.NewSolver(w.kp.params, max(fwd, grad))
	if err != nil {
		return err
	}
	w.mu.Lock()
	sampled := w.sampled
	w.sampled = nil
	w.mu.Unlock()
	for _, s := range sampled {
		r.count("oracle", w.verify(s, solver))
	}
	return nil
}

func (w *keysWorkload) op() opFunc {
	callers := w.callers()
	return func(c, i int, sc *scope) (func() error, error) {
		spy := w.spies[c]
		spy.under(sc)
		s, err := w.fetch(spy, w.bundles[(c+i*callers)%len(w.bundles)], i*7+c)
		spy.under(nil)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.sampled = append(w.sampled, s)
		w.mu.Unlock()
		return nil, nil
	}
}

func (w *keysWorkload) timedRun(r *result, d time.Duration, minOps int) {
	keyBytes := w.kp.bytes.total()
	st := closedLoop(w.callers(), d, minOps, nil, w.op())
	r.tally("timed", st)
	comm := float64(w.kp.bytes.total()-keyBytes) / 1000 / float64(max(len(st.latMs), 1))
	r.endToEnd(st, w.shape.batch, comm)
	r.Notes["keys_per_op"] = w.bundles[0].keys()
	r.Notes["keys_per_s"] = float64(len(st.latMs)*w.bundles[0].keys()) / st.wall.Seconds()
	r.count("verify", w.verifySampled(r))
}

func (w *keysWorkload) tracedRun(r *result, d time.Duration, minOps int, tr *tracer) error {
	plain := r.untracedThird(w.callers(), d/3, minOps, median(w.encryptMs)/float64(w.shape.batch), w.op())

	for _, spy := range w.spies {
		spy.capturing(true)
	}
	trips0, bytes0, q0 := w.qs.RoundTrips(), w.kp.bytes.total(), w.qs.Stats()
	delivered := func() (ip, bo, scalars int64) {
		for _, spy := range w.spies {
			ip, bo, scalars = ip+spy.ipKeys.Load(), bo+spy.boKeys.Load(), scalars+spy.ipScalars.Load()
		}
		return
	}
	ip0, bo0, scalars0 := delivered()
	traced := closedLoop(w.callers(), d/3, minOps, tr, w.op())
	for _, spy := range w.spies {
		spy.capturing(false)
	}
	r.tally("traced", traced)
	if len(traced.latMs) == 0 {
		return errors.New("no traced operation completed")
	}
	tops := float64(len(traced.latMs))
	// The counts are the keys the callers were delivered, as the decorator
	// saw them, and the node exchanges of the happy path: a hedged or
	// escalated request makes standby nodes derive the same keys again,
	// which would make a count depend on timing. Those exchanges are
	// reported on their own, as quorum_hedges and quorum_escalations.
	q := w.qs.Stats()
	ip, bo, scalars := delivered()
	r.set("authority.ip_keys_per_op", float64(ip-ip0)/tops, "count")
	r.set("authority.bo_keys_per_op", float64(bo-bo0)/tops, "count")
	r.set("authority.ip_scalars_per_op", float64(scalars-scalars0)/tops, "count")
	standby := q.Hedges - q0.Hedges + q.Escalations - q0.Escalations
	r.set("wire.key_roundtrips_per_op", float64(w.qs.RoundTrips()-trips0-standby)/tops, "count")
	r.set("wire.key_kb_per_op", float64(w.kp.bytes.total()-bytes0)/1000/tops, "kB")
	r.set("wire.quorum_hedges", float64(q.Hedges-q0.Hedges), "count")
	r.set("wire.quorum_escalations", float64(q.Escalations-q0.Escalations), "count")
	r.set("trace_overhead_share", (median(traced.latMs)-median(plain.latMs))/median(plain.latMs), "ratio")
	r.set("core.encrypt_batch_ms", median(w.encryptMs), "ms")
	r.set("securemat.encrypt_ms", median(w.encryptMs), "ms")
	r.Notes["traced_ops"] = len(traced.latMs)

	// Coverage: the key calls of a bundle against the bundle's own span.
	spans := tr.finished()
	r.set("core.step_span_coverage", median(perOpMs(spans, "wire.key_call"))/median(durationsMs(spans, "op")), "ratio")
	r.count("verify", w.verifySampled(r))

	s := atomShape{
		seed: w.cfg.seed, eta: w.shape.features(),
		expMag:  int64(w.shape.stepConfig().maxWeight) * w.shape.stepConfig().codec.Factor(),
		febo:    true,
		cluster: true,
		calls:   map[string][]keyCall{},
		node:    w.kp.nodes[0],
	}
	for _, spy := range w.spies {
		for _, kind := range []string{"ip_batch", "bo_batch"} {
			s.calls[kind] = append(s.calls[kind], spy.calledWith(kind)...)
		}
	}
	r.count("atoms", replayAtoms(r, s, d/3))
	return nil
}
