package main

import (
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/securemat"
)

// keyCall is one captured function-key request, kept so the same request
// can be replayed against an in-process authority (wire.key_rtt_us is the
// networked span minus that replay).
type keyCall struct {
	kind string // "ip", "ip_batch", "ip_sparse", "bo", "bo_batch"
	ys   [][]int64
	eta  int
	idx  []int
	cmts []*big.Int
	op   febo.Op
	bos  []int64
	ms   float64
}

// keyCaptureLimit bounds the requests kept per kind.
const keyCaptureLimit = 64

// keySpy is the timing and counting decorator around the
// securemat.KeyService an engine is given: the key-plane seam. It counts
// calls, keys and scalars, opens a "wire.key_call" span under the scope
// installed with under, and captures a bounded sample of requests. It
// forwards the batch extension; sparseKeySpy adds the sparse one, so a
// decorated service advertises exactly the extensions its inner service has.
type keySpy struct {
	inner securemat.BatchKeyService
	cur   atomic.Pointer[scope]

	// Function keys delivered through the decorator, and the weight
	// scalars the inner-product requests carried.
	ipKeys, boKeys, ipScalars atomic.Int64

	mu       sync.Mutex
	capture  bool
	captured map[string][]keyCall
}

func newKeySpy(inner securemat.BatchKeyService) *keySpy {
	return &keySpy{inner: inner, captured: make(map[string][]keyCall)}
}

// under makes sc the parent of the key-call spans opened from now on.
func (k *keySpy) under(sc *scope) { k.cur.Store(sc) }

// capturing switches request capture on or off.
func (k *keySpy) capturing(on bool) {
	k.mu.Lock()
	k.capture = on
	k.mu.Unlock()
}

func (k *keySpy) calledWith(kind string) []keyCall {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]keyCall(nil), k.captured[kind]...)
}

// observe times one forwarded call for nKeys keys; inner-product requests
// pass the number of weight scalars they carry, FEBO requests pass −1.
func (k *keySpy) observe(call keyCall, nKeys, ipScalars int, fn func() error) error {
	sc := k.cur.Load().child("wire.key_call")
	start := time.Now()
	err := fn()
	call.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	sc.end()
	if err == nil && ipScalars >= 0 {
		k.ipKeys.Add(int64(nKeys))
		k.ipScalars.Add(int64(ipScalars))
	} else if err == nil {
		k.boKeys.Add(int64(nKeys))
	}
	k.mu.Lock()
	if k.capture && err == nil && len(k.captured[call.kind]) < keyCaptureLimit {
		k.captured[call.kind] = append(k.captured[call.kind], call)
	}
	k.mu.Unlock()
	return err
}

func (k *keySpy) FEIPPublic(eta int) (*feip.MasterPublicKey, error) { return k.inner.FEIPPublic(eta) }
func (k *keySpy) FEBOPublic() (*febo.PublicKey, error)              { return k.inner.FEBOPublic() }

func (k *keySpy) IPKey(y []int64) (fk *feip.FunctionKey, err error) {
	err = k.observe(keyCall{kind: "ip", ys: [][]int64{y}}, 1, len(y), func() error {
		fk, err = k.inner.IPKey(y)
		return err
	})
	return fk, err
}

func (k *keySpy) IPKeyBatch(ys [][]int64) (fks []*feip.FunctionKey, err error) {
	n := 0
	for _, y := range ys {
		n += len(y)
	}
	err = k.observe(keyCall{kind: "ip_batch", ys: ys}, len(ys), n, func() error {
		fks, err = k.inner.IPKeyBatch(ys)
		return err
	})
	return fks, err
}

func (k *keySpy) BOKey(cmt *big.Int, op febo.Op, y int64) (fk *febo.FunctionKey, err error) {
	err = k.observe(keyCall{kind: "bo", cmts: []*big.Int{cmt}, op: op, bos: []int64{y}}, 1, -1, func() error {
		fk, err = k.inner.BOKey(cmt, op, y)
		return err
	})
	return fk, err
}

func (k *keySpy) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) (fks []*febo.FunctionKey, err error) {
	err = k.observe(keyCall{kind: "bo_batch", cmts: cmts, op: op, bos: ys}, len(cmts), -1, func() error {
		fks, err = k.inner.BOKeyBatch(cmts, op, ys)
		return err
	})
	return fks, err
}

// sparseKeySpy decorates a service that also derives coordinate-form keys.
type sparseKeySpy struct {
	*keySpy
	sparse securemat.SparseKeyService
}

func (k sparseKeySpy) IPKeySparse(eta int, idx []int, vals []int64) (fk *feip.FunctionKey, err error) {
	// idx and vals are the engine's reused scratch: copy before keeping.
	call := keyCall{kind: "ip_sparse", eta: eta}
	k.mu.Lock()
	keep := k.capture && len(k.captured[call.kind]) < keyCaptureLimit
	k.mu.Unlock()
	if keep {
		call.idx = append([]int(nil), idx...)
		call.ys = [][]int64{append([]int64(nil), vals...)}
	}
	err = k.observe(call, 1, len(vals), func() error {
		fk, err = k.sparse.IPKeySparse(eta, idx, vals)
		return err
	})
	return fk, err
}

var (
	_ securemat.BatchKeyService  = (*keySpy)(nil)
	_ securemat.SparseKeyService = sparseKeySpy{}
)
