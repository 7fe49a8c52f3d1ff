package feip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
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
//
// The key lazily carries s packed into fixed-width little-endian limbs,
// built once on the first KeyDerive under a sync.Once and then shared
// read-only — the same contract as MasterPublicKey's combs: S is not
// modified after the first derivation, a key is used with the group it was
// set up over, and it is passed by pointer, never copied.
type MasterSecretKey struct {
	S []*big.Int

	limbOnce sync.Once
	sl       []uint64 // sl[i*k : (i+1)*k] is s_i reduced into [0, q)
	k        int
}

// limbs returns the packed secret and its per-scalar limb count.
func (m *MasterSecretKey) limbs(params *group.Params) ([]uint64, int) {
	m.limbOnce.Do(func() {
		m.k = (params.Q.BitLen() + 63) / 64
		m.sl = make([]uint64, len(m.S)*m.k)
		for i, s := range m.S {
			params.ScalarLimbs(s, m.sl[i*m.k:(i+1)*m.k])
		}
	})
	return m.sl, m.k
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
	return keyDerive(params, msk, group.Identity(len(y)), y), nil
}

// keyStackLimbs bounds the scalar width whose accumulators keyDerive keeps
// on the stack (1024-bit q); wider groups allocate them.
const keyStackLimbs = 16

// keyDerive computes Σ_t vals[t]·s[idx[t]] mod q over a support the caller
// has checked. The sum runs on the secret's limbs in two accumulators of
// k+2 limbs, one for the positive values and one for the magnitudes of the
// negative ones: each term is a word-by-limb multiply-add (|v| ≤ 2^63 and
// s < 2^{64k}, so the top two limbs absorb the carries of any support below
// 2^64 coordinates), and the key is reduced once, from their difference.
func keyDerive(params *group.Params, msk *MasterSecretKey, idx []int, vals []int64) *FunctionKey {
	sl, k := msk.limbs(params)
	w := k + 2
	var stack [2 * (keyStackLimbs + 2)]uint64
	acc := stack[:]
	if 2*w > len(acc) {
		acc = make([]uint64, 2*w)
	}
	pos, neg := acc[:w], acc[w:2*w]
	for t, i := range idx {
		v := vals[t]
		switch {
		case v > 0:
			mulAddWord(pos, sl[i*k:(i+1)*k], uint64(v))
		case v < 0:
			mulAddWord(neg, sl[i*k:(i+1)*k], -uint64(v)) // -MinInt64 is 2^63 as a uint64
		}
	}
	// pos − neg; a final borrow means the sum is negative, and its
	// two's-complement negation is the magnitude.
	var borrow uint64
	for j := range pos {
		pos[j], borrow = bits.Sub64(pos[j], neg[j], borrow)
	}
	if borrow != 0 {
		carry := uint64(1)
		for j := range pos {
			pos[j], carry = bits.Add64(^pos[j], 0, carry)
		}
	}
	var be [8 * (keyStackLimbs + 2)]byte
	buf := be[:]
	if 8*w > len(buf) {
		buf = make([]byte, 8*w)
	}
	buf = buf[:8*w]
	for j, l := range pos {
		binary.BigEndian.PutUint64(buf[8*(w-1-j):], l)
	}
	key := new(big.Int).SetBytes(buf)
	key.Mod(key, params.Q)
	if borrow != 0 && key.Sign() != 0 {
		key.Sub(params.Q, key)
	}
	return &FunctionKey{K: key}
}

// mulAddWord adds s·m into acc, where s has len(acc)−2 limbs.
func mulAddWord(acc, s []uint64, m uint64) {
	var carry uint64
	for j, sj := range s {
		hi, lo := bits.Mul64(sj, m)
		var c uint64
		lo, c = bits.Add64(lo, acc[j], 0)
		hi += c
		acc[j], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	k := len(s)
	var c uint64
	acc[k], c = bits.Add64(acc[k], carry, 0)
	acc[k+1] += c
}

// EncryptScratch carries the per-call working slabs of an encryption so a
// worker encrypting many vectors under the same key (a securemat matrix, a
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

// Encrypt encrypts the signed integer vector x under mpk: every coordinate
// is carried, zeros included (see EncryptSparse for the form that omits
// them).
func Encrypt(mpk *MasterPublicKey, x []int64, r io.Reader) (*Ciphertext, error) {
	if mpk == nil || len(mpk.H) == 0 {
		return nil, fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	if len(x) != mpk.Eta() {
		return nil, fmt.Errorf("%w: |x|=%d, η=%d", ErrDimension, len(x), mpk.Eta())
	}
	ct0, ct, err := encrypt(mpk, group.Identity(len(x)), x, r, nil)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{Ct0: ct0, Ct: ct}, nil
}

// encrypt computes ct_0 = g^r and ct_t = h_{idx[t]}^r·g^{vals[t]} for a
// support the caller has checked; sc may be nil (one-shot allocation). The
// returned elements never alias the scratch.
//
// The whole ciphertext is computed in the Montgomery domain: the nonce is
// packed once into limbs and gathered once for every per-key comb on the
// support (they share one geometry and one exponent), every h_i^r·g^{x_i}
// chain is pure limb multiplication against the comb slabs and the
// generator's dense slab, and each coordinate converts out of the domain
// exactly once. The comb evaluation is inversion-free.
func encrypt(mpk *MasterPublicKey, idx []int, vals []int64, r io.Reader, sc *EncryptScratch) (ct0 *big.Int, ct []*big.Int, err error) {
	p := mpk.Params
	nonce, err := p.RandScalar(r)
	if err != nil {
		return nil, nil, fmt.Errorf("feip: encrypt: %w", err)
	}
	combs := mpk.combs()
	mc := p.Mont()
	k := mc.Limbs()
	n := len(idx)
	if sc == nil {
		sc = &EncryptScratch{}
	}
	sc.ensure(n+1, k)
	sc.rl = p.ScalarLimbs(nonce, sc.rl)
	// pos[t] accumulates the ciphertext coordinate; slot n holds ct_0.
	pos, gx := sc.pos, sc.gx
	if n > 0 {
		sc.us = combs[idx[0]].Gather(sc.rl, sc.us)
	}
	for t, i := range idx {
		pt := pos[t*k : (t+1)*k]
		combs[i].PowMontGathered(pt, sc.us)
		// h_i^r·g^0 = h_i^r: a zero coordinate (any of a dense vector's, a
		// pad on a promoted sparse column) needs no payload factor.
		if vals[t] != 0 {
			p.PowGInt64Mont(gx, vals[t])
			mc.MulMont(pt, pt, gx)
		}
	}
	p.PowGMont(pos[n*k:], nonce)
	ct = make([]*big.Int, n)
	for t := range ct {
		ct[t] = mc.FromMont(pos[t*k : (t+1)*k])
	}
	return mc.FromMont(pos[n*k:]), ct, nil
}

// Decrypt recovers ⟨x, y⟩ from a ciphertext of x and the function key for
// y, using solver for the final bounded discrete log. The caller supplies
// the same y that the key was derived for (as in the paper's Decrypt
// signature); a mismatched y yields ErrNotFound from the solver or a wrong
// value, never the plaintext x.
func Decrypt(mpk *MasterPublicKey, ct *Ciphertext, fk *FunctionKey, y []int64, solver *dlog.Solver) (int64, error) {
	if ct == nil || len(ct.Ct) != len(y) {
		return 0, fmt.Errorf("%w: ciphertext dimension", ErrDimension)
	}
	return decrypt(mpk, ct.Ct0, ct.Ct, group.Identity(len(y)), fk, y, solver)
}

// decrypt recovers ⟨x, y⟩ = dlog(Π_t ct[t]^{y[idx[t]]} / ct0^{sk}) for a
// support the caller has checked against ct and y: the one-column, one-row
// case of securemat's column evaluator, with one multi-exponentiation on the
// support as given, one full exponentiation and one inversion per call.
func decrypt(mpk *MasterPublicKey, ct0 *big.Int, ct []*big.Int, idx []int, fk *FunctionKey, y []int64, solver *dlog.Solver) (int64, error) {
	if mpk == nil {
		return 0, fmt.Errorf("%w: nil public key", ErrMalformed)
	}
	if fk == nil || fk.K == nil {
		return 0, fmt.Errorf("%w: empty function key", ErrMalformed)
	}
	p := mpk.Params
	mc := p.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 4*k)
	pos, neg, den, inv := buf[:k], buf[k:2*k], buf[2*k:3*k], buf[3*k:]
	p.MultiExpInt64RowsMontParts(pos, neg, [][]*big.Int{ct}, idx, [][]int64{y}, nil)
	sk := fk.K
	if sk.Sign() < 0 {
		sk = p.ReduceScalar(sk)
	}
	mc.ToMont(den, ct0)
	mc.ExpMont(den, den, sk)
	mc.MulMont(den, den, neg)
	if _, err := mc.BatchInvMont(den, inv); err != nil {
		return 0, fmt.Errorf("feip: decrypt: %w", err)
	}
	mc.MulMont(pos, pos, den)
	v, err := solver.LookupMont(pos)
	if err != nil {
		return 0, fmt.Errorf("feip: recovering ⟨x,y⟩: %w", err)
	}
	return v, nil
}
