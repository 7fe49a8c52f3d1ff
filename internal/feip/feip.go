package feip

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

var (
	// ErrDimension reports a vector length mismatch with the scheme's η.
	ErrDimension = errors.New("feip: vector dimension mismatch")
	// ErrMalformed reports a structurally invalid key or ciphertext.
	ErrMalformed = errors.New("feip: malformed input")
)

// MasterPublicKey is mpk = (group, h_i = g^{s_i}). Clients encrypt under it.
//
// The key caches a Lim–Lee comb table per h_i, built lazily on first
// Encrypt (or eagerly via Precompute) under a sync.Once and then shared
// read-only across goroutines — the same contract as dlog.Solver. The
// wire codec carries Params and H only; pass *MasterPublicKey around,
// never a copy (the sync.Once must not be duplicated).
type MasterPublicKey struct {
	Params *group.Params
	H      []*big.Int

	combOnce sync.Once
	hCombs   []*group.FixedBaseComb
}

// Eta returns the vector dimension η the key was set up for.
func (k *MasterPublicKey) Eta() int { return len(k.H) }

// Precompute builds the per-h_i comb tables now instead of on the first
// Encrypt. Callers that are about to encrypt many vectors under the same
// key (securemat, batched clients) use it to keep the table build out of
// their per-column loop; it is idempotent and concurrency-safe.
func (k *MasterPublicKey) Precompute() { k.combs() }

func (k *MasterPublicKey) combs() []*group.FixedBaseComb {
	k.combOnce.Do(func() {
		// The h_i only ever see full-width nonces, exactly the regime the
		// comb wins: no recoding, no negative accumulator, b−1 squarings.
		k.hCombs = k.Params.NewFixedBaseCombs(k.H)
	})
	return k.hCombs
}

// Validate checks group membership of every h_i; it is applied to keys
// received over the network.
func (k *MasterPublicKey) Validate() error {
	if k == nil || k.Params == nil || len(k.H) == 0 {
		return fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	if err := k.Params.Validate(); err != nil {
		return err
	}
	for i, h := range k.H {
		if !k.Params.IsElement(h) {
			return fmt.Errorf("%w: h[%d] not a group element", ErrMalformed, i)
		}
	}
	return nil
}

// MasterSecretKey is msk = s. Only the authority holds it.
type MasterSecretKey struct {
	S []*big.Int
}

// FunctionKey is the inner-product key sk_f = ⟨y, s⟩ mod q for a specific
// weight vector y. Possession of the key reveals only ⟨x, y⟩, not x.
type FunctionKey struct {
	K *big.Int
}

// Ciphertext is (ct_0, ct_1..ct_η).
type Ciphertext struct {
	Ct0 *big.Int
	Ct  []*big.Int
}

// Eta returns the encrypted vector's dimension.
func (c *Ciphertext) Eta() int { return len(c.Ct) }

// Validate checks group membership of all components.
func (c *Ciphertext) Validate(params *group.Params) error {
	if c == nil || c.Ct0 == nil || len(c.Ct) == 0 {
		return fmt.Errorf("%w: empty ciphertext", ErrMalformed)
	}
	if !params.IsElement(c.Ct0) {
		return fmt.Errorf("%w: ct0 not a group element", ErrMalformed)
	}
	for i, ct := range c.Ct {
		if !params.IsElement(ct) {
			return fmt.Errorf("%w: ct[%d] not a group element", ErrMalformed, i)
		}
	}
	return nil
}

// Setup generates (mpk, msk) for η-dimensional vectors over the given
// group. Randomness is drawn from r (crypto/rand when nil).
func Setup(params *group.Params, eta int, r io.Reader) (*MasterPublicKey, *MasterSecretKey, error) {
	if params == nil {
		return nil, nil, errors.New("feip: nil group parameters")
	}
	if eta <= 0 {
		return nil, nil, fmt.Errorf("feip: dimension must be positive, got %d", eta)
	}
	s := make([]*big.Int, eta)
	h := make([]*big.Int, eta)
	for i := 0; i < eta; i++ {
		si, err := params.RandScalar(r)
		if err != nil {
			return nil, nil, fmt.Errorf("feip: setup: %w", err)
		}
		s[i] = si
		h[i] = params.PowG(si)
	}
	return &MasterPublicKey{Params: params, H: h}, &MasterSecretKey{S: s}, nil
}

// KeyDerive computes sk_f = ⟨y, s⟩ mod q for the signed integer vector y.
func KeyDerive(params *group.Params, msk *MasterSecretKey, y []int64) (*FunctionKey, error) {
	if msk == nil || len(msk.S) == 0 {
		return nil, fmt.Errorf("%w: empty master secret", ErrMalformed)
	}
	if len(y) != len(msk.S) {
		return nil, fmt.Errorf("%w: |y|=%d, η=%d", ErrDimension, len(y), len(msk.S))
	}
	acc := new(big.Int)
	var term, yb big.Int // scratch reused across coordinates
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		yb.SetInt64(yi)
		term.Mul(msk.S[i], &yb)
		acc.Add(acc, &term)
	}
	return &FunctionKey{K: params.ReduceScalar(acc)}, nil
}

// EncryptScratch carries the per-call working slabs of Encrypt so a worker
// encrypting many vectors under the same key (a securemat matrix, a
// streaming batch) reuses one set of allocations. The zero value is ready
// to use; an EncryptScratch must not be shared between concurrent
// encryptions.
type EncryptScratch struct {
	pos, gx, rl []uint64
	us          []uint32
}

func (sc *EncryptScratch) ensure(slots, k int) {
	if need := slots * k; cap(sc.pos) < need {
		sc.pos = make([]uint64, need)
	} else {
		sc.pos = sc.pos[:need]
	}
	if cap(sc.gx) < k {
		sc.gx = make([]uint64, k)
	} else {
		sc.gx = sc.gx[:k]
	}
}

// Encrypt encrypts the signed integer vector x under mpk.
//
// The whole ciphertext is computed in the Montgomery domain: the nonce is
// packed once into limbs and gathered once for all η per-key combs, every
// h_i^r·g^{x_i} chain is pure limb multiplication against the comb slabs
// and the generator's dense slab, and each coordinate converts out of the
// domain exactly once. The comb evaluation is inversion-free.
func Encrypt(mpk *MasterPublicKey, x []int64, r io.Reader) (*Ciphertext, error) {
	return EncryptWithScratch(mpk, x, r, nil)
}

// EncryptWithScratch is Encrypt with caller-pooled working slabs; sc may be
// nil (one-shot allocation, identical to Encrypt). The returned ciphertext
// never aliases the scratch.
func EncryptWithScratch(mpk *MasterPublicKey, x []int64, r io.Reader, sc *EncryptScratch) (*Ciphertext, error) {
	if mpk == nil || len(mpk.H) == 0 {
		return nil, fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	if len(x) != mpk.Eta() {
		return nil, fmt.Errorf("%w: |x|=%d, η=%d", ErrDimension, len(x), mpk.Eta())
	}
	p := mpk.Params
	nonce, err := p.RandScalar(r)
	if err != nil {
		return nil, fmt.Errorf("feip: encrypt: %w", err)
	}
	combs := mpk.combs()
	mc := p.Mont()
	k := mc.Limbs()
	eta := len(x)
	if sc == nil {
		sc = &EncryptScratch{}
	}
	sc.ensure(eta+1, k)
	sc.rl = p.ScalarLimbs(nonce, sc.rl)
	// pos[i] accumulates the ciphertext coordinate; slot eta holds
	// ct_0 = g^r.
	pos, gx, rl := sc.pos, sc.gx, sc.rl
	// Every per-key comb shares one geometry and one exponent, so the
	// column patterns are gathered once and reused η times.
	if eta > 0 {
		sc.us = combs[0].Gather(rl, sc.us)
	}
	for i, xi := range x {
		pi := pos[i*k : (i+1)*k]
		combs[i].PowMontGathered(pi, sc.us)
		// h_i^r·g^0 = h_i^r: a zero coordinate needs no payload factor, so
		// skip its table lookup and limb multiplication. Sparse vectors get
		// part of the coordinate-form win on the legacy dense path for free.
		if xi != 0 {
			p.PowGInt64Mont(gx, xi)
			mc.MulMont(pi, pi, gx)
		}
	}
	p.PowGMont(pos[eta*k:], nonce)
	ct := make([]*big.Int, eta)
	for i := range ct {
		ct[i] = mc.FromMont(pos[i*k : (i+1)*k])
	}
	return &Ciphertext{Ct0: mc.FromMont(pos[eta*k:]), Ct: ct}, nil
}

// Decrypt recovers ⟨x, y⟩ from a ciphertext of x and the function key for
// y, using solver for the final bounded discrete log. The caller supplies
// the same y that the key was derived for (as in the paper's Decrypt
// signature); a mismatched y yields ErrNotFound from the solver or a wrong
// value, never the plaintext x.
func Decrypt(mpk *MasterPublicKey, ct *Ciphertext, fk *FunctionKey, y []int64, solver *dlog.Solver) (int64, error) {
	if fk == nil || fk.K == nil {
		return 0, fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	if ct == nil || len(ct.Ct) != len(y) {
		return 0, fmt.Errorf("%w: ciphertext dimension", ErrDimension)
	}
	g, err := DecryptGroupElement(mpk, ct, fk, y)
	if err != nil {
		return 0, err
	}
	v, err := solver.Lookup(g)
	if err != nil {
		return 0, fmt.Errorf("feip: recovering ⟨x,y⟩: %w", err)
	}
	return v, nil
}

// DecryptGroupElement computes g^{⟨x,y⟩} = Π ct_i^{y_i} / ct_0^{sk_f}
// without the final discrete-log step. The secure-matrix layer uses it when
// it wants to batch dlog lookups.
func DecryptGroupElement(mpk *MasterPublicKey, ct *Ciphertext, fk *FunctionKey, y []int64) (*big.Int, error) {
	num, den, err := DecryptParts(mpk, ct, fk, y)
	if err != nil {
		return nil, err
	}
	return mpk.Params.Div(num, den), nil
}

// DecryptParts computes the numerator Π ct_i^{y_i} and the denominator
// ct_0^{sk_f} of DecryptGroupElement without combining them. Batch callers
// (securemat's chunked decryption pipeline) collect the denominators of
// many cells and invert them together with one modular inversion
// (Montgomery's trick) instead of one extended GCD per cell. Both return
// values are freshly allocated, so the caller may invert den in place.
func DecryptParts(mpk *MasterPublicKey, ct *Ciphertext, fk *FunctionKey, y []int64) (num, den *big.Int, err error) {
	if mpk == nil {
		return nil, nil, fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	if fk == nil || fk.K == nil {
		return nil, nil, fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	if ct == nil || len(ct.Ct) != len(y) {
		return nil, nil, fmt.Errorf("%w: ciphertext dimension", ErrDimension)
	}
	p := mpk.Params
	// Simultaneous multi-exponentiation shares one squaring ladder across
	// all η coordinates; the naive per-coordinate Exp paid a full-size
	// ladder for every negative y_i.
	num = p.MultiExpInt64(ct.Ct, y)
	den = p.Exp(ct.Ct0, fk.K)
	return num, den, nil
}

// InnerProduct is the plaintext functionality f(x, y) = ⟨x, y⟩; reference
// implementation used by tests and by plaintext baselines.
func InnerProduct(x, y []int64) (int64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: |x|=%d |y|=%d", ErrDimension, len(x), len(y))
	}
	var acc int64
	for i := range x {
		acc += x[i] * y[i]
	}
	return acc, nil
}
