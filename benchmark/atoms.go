package main

import (
	"math/big"
	"math/rand"
	"sort"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/dlog"
	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/tensor"
	"cryptonn/internal/thresh"
)

// Atom replay: each lower layer's public function timed alone, on inputs
// shaped like the workload's (its η, its exponent magnitudes, the values it
// actually decrypted as discrete-log targets). Atoms of a layer that is not
// on the workload's path are not run and read 0.

// atomShape is the part of a workload the atoms take their inputs from.
type atomShape struct {
	seed int64
	// eta is the dimension of the workload's forward inner products; expMag
	// bounds the plaintext exponents (encoded weights) of its multi-exps.
	eta    int
	expMag int64
	// nnz > 0 switches the feip and multi-exp atoms to coordinate form.
	nnz int
	// Discrete-log bounds and captured targets. grad is empty for serving.
	bound      int64
	fwd, grad  []int64
	labels, k  int   // top-k head (serve_topk)
	ceiling    int64 // its logit ceiling
	febo       bool  // element-wise FEBO is on the path
	feipSetup  bool  // a single authority's feip.Setup is on the path
	cluster    bool  // the threshold layers are on the path
	matmulRows int   // first-layer shape for tensor.MatMul (0 skips)
	matmulCols int
	calls      map[string][]keyCall // captured key requests, by kind
	auth       *authority.Authority
	node       *authority.Node
}

// atomTimer times atoms against a shared budget.
type atomTimer struct {
	r      *result
	budget time.Duration // per atom
}

// perCall runs fn in growing batches for about the per-atom budget and
// returns the median batch's nanoseconds per call.
func (a atomTimer) perCall(fn func()) float64 {
	fn() // lazy tables and caches fill here
	var rates []float64
	n := 1
	deadline := time.Now().Add(a.budget)
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(t)
		rates = append(rates, float64(el.Nanoseconds())/float64(n))
		if time.Now().After(deadline) {
			return median(rates)
		}
		if el < a.budget/8 {
			n *= 2
		}
	}
}

func (a atomTimer) ns(name string, fn func()) { a.r.set(name, a.perCall(fn), "ns") }
func (a atomTimer) us(name string, fn func()) { a.r.set(name, a.perCall(fn)/1e3, "us") }
func (a atomTimer) ms(name string, fn func()) { a.r.set(name, a.perCall(fn)/1e6, "ms") }
func (a atomTimer) usPer(name string, n int, fn func()) {
	a.r.set(name, a.perCall(fn)/1e3/float64(max(n, 1)), "us")
}

func randInts(rng *rand.Rand, n int, mag int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(2*mag+1) - mag
	}
	return out
}

func randSupport(rng *rand.Rand, eta, nnz int) []int {
	idx := rng.Perm(eta)[:nnz]
	sort.Ints(idx)
	return idx
}

// replayAtoms runs every atom the shape puts on the workload's path.
func replayAtoms(r *result, s atomShape, total time.Duration) error {
	a := atomTimer{r: r, budget: total / 40}
	rng := rand.New(rand.NewSource(s.seed))
	params, err := newParams()
	if err != nil {
		return err
	}
	if err := groupAtoms(a, s, params, rng); err != nil {
		return err
	}
	if s.eta > 0 {
		if err := schemeAtoms(a, s, params, rng); err != nil {
			return err
		}
	}
	if s.bound > 0 {
		if err := dlogAtoms(a, s, rng); err != nil {
			return err
		}
	}
	if s.cluster {
		if err := threshAtoms(a, params); err != nil {
			return err
		}
	}
	keyAtoms(a, s)
	if s.matmulRows > 0 {
		w, x := tensor.NewDense(s.matmulRows, s.matmulCols), tensor.NewDense(s.matmulCols, 8)
		w.RandInit(rng, 1)
		x.RandInit(rng, 1)
		a.us("tensor.matmul_us", func() { _, _ = tensor.MatMul(w, x) })
		codec := fixedpoint.Default()
		rows := w.Rows2D()
		cells := float64(s.matmulRows*s.matmulCols) / 1000
		r.set("fixedpoint.encode_us_per_kcell", a.perCall(func() { _, _ = codec.EncodeMat(rows) })/1e3/cells, "us")
	}
	return nil
}

func groupAtoms(a atomTimer, s atomShape, p *group.Params, rng *rand.Rand) error {
	mc := p.Mont()
	k := mc.Limbs()
	scalar := func() *big.Int { e, _ := p.RandScalar(nil); return e }
	x, y := mc.Elem(), mc.Elem()
	mc.ToMont(x, p.PowG(scalar()))
	mc.ToMont(y, p.PowG(scalar()))
	a.ns("group.mulmont_ns", func() { mc.MulMont(x, x, y) })
	e, dst := scalar(), mc.Elem()
	a.us("group.expmont_us", func() { mc.ExpMont(dst, y, e) })

	const invBatch = 256
	slab := make([]uint64, invBatch*k)
	for i := 0; i < invBatch; i++ {
		mc.ToMont(slab[i*k:(i+1)*k], p.PowGInt64(int64(i+2)))
	}
	var scratch []uint64
	a.r.set("group.batchinv_ns_per_elem", a.perCall(func() { scratch, _ = mc.BatchInvMont(slab, scratch) })/invBatch, "ns")

	a.us("group.powg_us", func() { _ = p.PowG(e) })
	h := p.PowG(scalar())
	a.ms("group.table_build_ms", func() { _ = p.NewFixedBaseComb(h) })
	comb := p.NewFixedBaseComb(h)
	a.us("group.comb_pow_us", func() { comb.PowMont(dst, e) })

	// Multi-exponentiation over ciphertext-like bases with weight-like
	// exponents: the numerator of one decrypted cell.
	n := s.eta
	if s.nnz > 0 {
		n = s.nnz
	}
	if n == 0 {
		return nil
	}
	bases := make([]*big.Int, n)
	for i := range bases {
		bases[i] = p.PowG(scalar())
	}
	exps := randInts(rng, n, s.expMag)
	pos, neg := mc.Elem(), mc.Elem()
	var straus []uint64
	if s.nnz == 0 {
		a.us("group.multiexp_us", func() { straus = p.MultiExpInt64MontParts(pos, neg, bases, exps, straus) })
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	a.us("group.multiexp_sparse_us", func() { straus = p.MultiExpInt64SparseMontParts(pos, neg, bases, idx, exps, straus) })
	return nil
}

// schemeAtoms times FEIP (dense or coordinate form) and FEBO.
func schemeAtoms(a atomTimer, s atomShape, p *group.Params, rng *rand.Rand) error {
	var solver *dlog.Solver
	var err error
	if s.bound > 0 {
		if solver, err = dlog.NewSolver(p, s.bound); err != nil {
			return err
		}
	}
	var mpk *feip.MasterPublicKey
	var msk *feip.MasterSecretKey
	setup := func() { mpk, msk, err = feip.Setup(p, s.eta, nil) }
	if s.feipSetup {
		a.ms("feip.setup_ms", setup)
	} else {
		setup()
	}
	if err != nil {
		return err
	}
	mpk.Precompute()
	y := randInts(rng, s.eta, s.expMag)
	if s.nnz == 0 {
		x := randInts(rng, s.eta, 100)
		var ct *feip.Ciphertext
		a.us("feip.encrypt_us", func() { ct, err = feip.Encrypt(mpk, x, nil) })
		if err != nil {
			return err
		}
		var fk *feip.FunctionKey
		a.us("feip.keyderive_us", func() { fk, err = feip.KeyDerive(p, msk, y) })
		if err != nil {
			return err
		}
		if solver != nil {
			a.us("feip.decrypt_us", func() { _, err = feip.Decrypt(mpk, ct, fk, y, solver) })
		}
	} else {
		idx := randSupport(rng, s.eta, s.nnz)
		vals := make([]int64, s.nnz)
		for i := range vals {
			vals[i] = 1 + rng.Int63n(100)
		}
		var ct *feip.SparseCiphertext
		a.us("feip.encrypt_sparse_us", func() { ct, err = feip.EncryptSparse(mpk, idx, vals, nil) })
		if err != nil {
			return err
		}
		ys := make([]int64, s.nnz)
		for t, c := range idx {
			ys[t] = y[c]
		}
		var fk *feip.FunctionKey
		a.us("feip.keyderive_us", func() { fk, err = feip.KeyDeriveSparse(p, msk, idx, ys) })
		if err != nil {
			return err
		}
		a.us("feip.decrypt_us", func() { _, err = feip.DecryptSparse(mpk, ct, fk, y, solver) })
	}
	if err != nil || !s.febo {
		return err
	}
	pk, sk, err := febo.Setup(p, nil)
	if err != nil {
		return err
	}
	pk.Precompute()
	var ct *febo.Ciphertext
	a.us("febo.encrypt_us", func() { ct, err = febo.Encrypt(pk, 100, nil) })
	if err != nil {
		return err
	}
	var fk *febo.FunctionKey
	a.us("febo.keyderive_us", func() { fk, err = febo.KeyDerive(p, sk, ct.Cmt, febo.OpSub, 37) })
	if err != nil {
		return err
	}
	if solver != nil {
		a.us("febo.decrypt_us", func() { _, err = febo.Decrypt(pk, fk, ct, febo.OpSub, 37, solver) })
	}
	return err
}

// dlogAtoms times solver construction on a cold group and look-ups of the
// values the workload actually decrypted.
func dlogAtoms(a atomTimer, s atomShape, rng *rand.Rand) error {
	var solver *dlog.Solver
	var err error
	a.ms("dlog.solver_build_ms", func() {
		var p *group.Params
		if p, err = newParams(); err == nil {
			solver, err = dlog.NewSolver(p, s.bound)
		}
	})
	if err != nil {
		return err
	}
	a.r.set("dlog.table_entries", float64(solver.TableSize()), "count")
	p, err := newParams()
	if err != nil {
		return err
	}
	if solver, err = dlog.NewSolver(p, s.bound); err != nil {
		return err
	}
	mc := p.Mont()
	k := mc.Limbs()
	lookups := func(name string, values []int64) {
		if len(values) == 0 {
			return
		}
		values = values[:min(len(values), 256)]
		slab := make([]uint64, len(values)*k)
		for i, v := range values {
			mc.ToMont(slab[i*k:(i+1)*k], p.PowGInt64(v))
		}
		i := 0
		a.us(name, func() {
			_, err = solver.LookupMont(slab[i*k : (i+1)*k])
			i = (i + 1) % len(values)
		})
	}
	lookups("dlog.lookup_fwd_us", s.fwd)
	if err != nil {
		return err
	}
	lookups("dlog.lookup_grad_us", s.grad)
	if err != nil || s.k == 0 {
		return err
	}
	// One sample's logit slab: the captured forward values are W·x.
	logits := s.fwd[:min(len(s.fwd), s.labels)]
	slab := make([]uint64, len(logits)*k)
	for i, v := range logits {
		mc.ToMont(slab[i*k:(i+1)*k], p.PowGInt64(v))
	}
	a.us("dlog.topk_us", func() { _, _, err = solver.TopKMontBounded(slab, s.k, s.ceiling) })
	return err
}

// threshAtoms times the threshold layer at the cluster's 3-of-5 shape and
// one key bundle's 80 FEBO partials.
func threshAtoms(a atomTimer, p *group.Params) error {
	const t, n, partials = 3, 5, 80
	var res *thresh.DKGResult
	var err error
	a.ms("thresh.dkg_ms", func() { res, err = thresh.RunDKG(p, t, n, nil) })
	if err != nil {
		return err
	}
	bases, outs := make([]*big.Int, partials), make([]*big.Int, partials)
	share := res.Shares[0].V
	for i := range bases {
		e, err := p.RandScalar(nil)
		if err != nil {
			return err
		}
		bases[i] = p.PowG(e)
		outs[i] = p.Exp(bases[i], share)
	}
	var proof *thresh.EqProof
	a.usPer("thresh.prove_eq_us_per_key", partials, func() {
		proof, err = thresh.ProveEqBatch(p, share, res.PubShares[0], bases, outs, nil)
	})
	if err != nil {
		return err
	}
	a.usPer("thresh.verify_eq_us_per_key", partials, func() {
		err = thresh.VerifyEqBatch(p, res.PubShares[0], bases, outs, proof)
	})
	if err != nil {
		return err
	}
	var lambdas []*big.Int
	a.us("thresh.lambda_us", func() { lambdas, err = thresh.Lambda(p, []int64{1, 2, 3}) })
	if err != nil {
		return err
	}
	a.us("thresh.combine_us_per_key", func() { _, err = thresh.CombineElements(p, lambdas, outs[:t]) })
	return err
}

// keyAtoms replays the captured key requests in process: the authority's
// own cost per key, and — against the networked span of the same requests —
// what the wire added per call.
func keyAtoms(a atomTimer, s atomShape) {
	var wireMs, localMs []float64
	replay := func(metric string, kinds []string, call func(keyCall) (int, error)) {
		var perKeyUs []float64
		for _, kind := range kinds {
			for _, c := range s.calls[kind] {
				t := time.Now()
				n, err := call(c)
				el := time.Since(t)
				if err != nil || n == 0 {
					continue
				}
				perKeyUs = append(perKeyUs, float64(el.Nanoseconds())/1e3/float64(n))
				wireMs = append(wireMs, c.ms)
				localMs = append(localMs, float64(el.Nanoseconds())/1e6)
			}
		}
		if len(perKeyUs) > 0 {
			a.r.set(metric, median(perKeyUs), "us")
		}
	}
	if s.auth != nil {
		replay("authority.ipkey_us_per_key", []string{"ip", "ip_batch", "ip_sparse"}, func(c keyCall) (int, error) {
			if c.kind == "ip_sparse" {
				_, err := s.auth.IPKeySparse(c.eta, c.idx, c.ys[0])
				return 1, err
			}
			_, err := s.auth.IPKeyBatch(c.ys)
			return len(c.ys), err
		})
		replay("authority.bokey_us_per_key", []string{"bo", "bo_batch"}, func(c keyCall) (int, error) {
			_, err := s.auth.BOKeyBatch(c.cmts, c.op, c.bos)
			return len(c.cmts), err
		})
	}
	if s.node != nil {
		replay("authority.node_partial_ip_us_per_key", []string{"ip", "ip_batch"}, func(c keyCall) (int, error) {
			_, err := s.node.PartialIPKeyBatch(c.ys)
			return len(c.ys), err
		})
		replay("authority.node_partial_bo_us_per_key", []string{"bo", "bo_batch"}, func(c keyCall) (int, error) {
			_, _, err := s.node.PartialBOKeyBatch(c.cmts, c.op, c.bos)
			return len(c.cmts), err
		})
	}
	if len(wireMs) > 0 {
		a.r.set("wire.key_rtt_us", (median(wireMs)-median(localMs))*1e3, "us")
	}
}
