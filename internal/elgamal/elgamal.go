// Package elgamal implements exponential (lifted) ElGamal over the same
// DDH group as the FE schemes: an additively homomorphic public-key
// encryption with messages in the exponent.
//
//	Setup:    s ←$ Z_q, sk = s, pk = (g, h = g^s)
//	Encrypt:  r ←$ Z_q, ct = (c1, c2) = (g^r, h^r · g^m)
//	Add:      (c1·c1', c2·c2')         — Enc(m + m')
//	ScalarMul:(c1^k, c2^k)             — Enc(k·m)
//	Decrypt:  g^m = c2 / c1^s, then a bounded discrete log
//
// CryptoNN uses it for the §III-D "confidential predicted label" setting:
// the trained model is plaintext on the server, so the server can compute
// the encrypted class scores Enc(W·x + b) homomorphically from the
// client's Enc(x) — never learning x, the scores, or the predicted label.
// Only the client, holding sk, decrypts. This is the "existing HE-based
// solutions at the prediction phase" integration the paper describes,
// built on the same group substrate as everything else. The limitation is
// inherited from the paper's discussion: only the linear part of a model
// can be evaluated under HE without interaction, so LinearPredict serves
// models whose decision layer is linear (or a distilled linear head).
package elgamal

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"cryptonn/internal/dlog"
	"cryptonn/internal/group"
)

// ErrMalformed reports a structurally invalid key or ciphertext.
var ErrMalformed = errors.New("elgamal: malformed input")

// PublicKey is (group, h = g^s). Like the FE public keys it lazily caches
// a comb table for h, shared read-only across goroutines.
type PublicKey struct {
	Params *group.Params
	H      *big.Int

	combOnce sync.Once
	hComb    *group.FixedBaseComb
}

// Precompute builds the comb for h now instead of on the first Encrypt;
// idempotent and concurrency-safe.
func (k *PublicKey) Precompute() { k.comb() }

func (k *PublicKey) comb() *group.FixedBaseComb {
	k.combOnce.Do(func() { k.hComb = k.Params.NewFixedBaseComb(k.H) })
	return k.hComb
}

// Validate checks group membership; applied to keys received over a
// network boundary.
func (k *PublicKey) Validate() error {
	if k == nil || k.Params == nil || k.H == nil {
		return fmt.Errorf("%w: empty public key", ErrMalformed)
	}
	if err := k.Params.Validate(); err != nil {
		return err
	}
	if !k.Params.IsElement(k.H) {
		return fmt.Errorf("%w: h not a group element", ErrMalformed)
	}
	return nil
}

// SecretKey is s; only the client holds it.
type SecretKey struct {
	S *big.Int
}

// Ciphertext is (c1, c2) = (g^r, h^r·g^m).
type Ciphertext struct {
	C1, C2 *big.Int
}

// Validate checks group membership of both components.
func (c *Ciphertext) Validate(params *group.Params) error {
	if c == nil || c.C1 == nil || c.C2 == nil {
		return fmt.Errorf("%w: empty ciphertext", ErrMalformed)
	}
	if !params.IsElement(c.C1) || !params.IsElement(c.C2) {
		return fmt.Errorf("%w: component not a group element", ErrMalformed)
	}
	return nil
}

// Setup generates a key pair; r may be nil for crypto/rand.
func Setup(params *group.Params, r io.Reader) (*PublicKey, *SecretKey, error) {
	if params == nil {
		return nil, nil, errors.New("elgamal: nil group parameters")
	}
	s, err := params.RandScalar(r)
	if err != nil {
		return nil, nil, fmt.Errorf("elgamal: sampling secret: %w", err)
	}
	return &PublicKey{Params: params, H: params.PowG(s)}, &SecretKey{S: s}, nil
}

// Encrypt encrypts a signed integer message in the exponent. Both
// components run in the Montgomery domain end-to-end (comb limb chains for
// g^r and h^r, the generator's dense slab for g^m) and convert out once
// each.
func Encrypt(pk *PublicKey, m int64, r io.Reader) (*Ciphertext, error) {
	nonce, err := pk.Params.RandScalar(r)
	if err != nil {
		return nil, fmt.Errorf("elgamal: sampling nonce: %w", err)
	}
	p := pk.Params
	mc := p.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 3*k)
	c1, c2, gm := buf[:k], buf[k:2*k], buf[2*k:]
	p.PowGMont(c1, nonce)
	pk.comb().PowMont(c2, nonce)
	p.PowGInt64Mont(gm, m)
	mc.MulMont(c2, c2, gm)
	return &Ciphertext{
		C1: mc.FromMont(c1),
		C2: mc.FromMont(c2),
	}, nil
}

// Add returns Enc(m + m') — the additive homomorphism.
func Add(params *group.Params, a, b *Ciphertext) *Ciphertext {
	return &Ciphertext{
		C1: params.Mul(a.C1, b.C1),
		C2: params.Mul(a.C2, b.C2),
	}
}

// ScalarMul returns Enc(k·m) for a signed plaintext constant k.
func ScalarMul(params *group.Params, a *Ciphertext, k int64) *Ciphertext {
	e := params.ReduceScalar(big.NewInt(k))
	return &Ciphertext{
		C1: params.Exp(a.C1, e),
		C2: params.Exp(a.C2, e),
	}
}

// AddPlain returns Enc(m + k) for a signed plaintext constant k.
func AddPlain(params *group.Params, a *Ciphertext, k int64) *Ciphertext {
	return &Ciphertext{C1: a.C1, C2: params.Mul(a.C2, params.PowGInt64(k))}
}

// EncryptZero returns a fresh Enc(0), the identity for Add chains.
func EncryptZero(pk *PublicKey, r io.Reader) (*Ciphertext, error) {
	return Encrypt(pk, 0, r)
}

// Decrypt recovers the signed message with a bounded discrete-log solver.
func Decrypt(sk *SecretKey, params *group.Params, ct *Ciphertext, solver *dlog.Solver) (int64, error) {
	if err := ct.Validate(params); err != nil {
		return 0, err
	}
	gm := params.Div(ct.C2, params.Exp(ct.C1, sk.S))
	m, err := solver.Lookup(gm)
	if err != nil {
		return 0, fmt.Errorf("elgamal: recovering message: %w", err)
	}
	return m, nil
}

// EncryptVec encrypts every coordinate of x independently.
func EncryptVec(pk *PublicKey, x []int64, r io.Reader) ([]*Ciphertext, error) {
	if len(x) == 0 {
		return nil, errors.New("elgamal: empty vector")
	}
	cts := make([]*Ciphertext, len(x))
	for i, v := range x {
		ct, err := Encrypt(pk, v, r)
		if err != nil {
			return nil, fmt.Errorf("elgamal: coordinate %d: %w", i, err)
		}
		cts[i] = ct
	}
	return cts, nil
}

// LinearPredict computes Enc(W·x + b) homomorphically from Enc(x): the
// server-side of HE-based prediction. W is (classes × features), b has
// one entry per class, cts encrypts x coordinate-wise. The server learns
// nothing — inputs, scores and the arg-max class stay encrypted.
func LinearPredict(pk *PublicKey, w [][]int64, b []int64, cts []*Ciphertext) ([]*Ciphertext, error) {
	if len(w) == 0 {
		return nil, errors.New("elgamal: empty weight matrix")
	}
	if len(b) != len(w) {
		return nil, fmt.Errorf("elgamal: %d biases for %d rows", len(b), len(w))
	}
	params := pk.Params
	for i, ct := range cts {
		if err := ct.Validate(params); err != nil {
			return nil, fmt.Errorf("elgamal: input %d: %w", i, err)
		}
	}
	out := make([]*Ciphertext, len(w))
	for i, row := range w {
		if len(row) != len(cts) {
			return nil, fmt.Errorf("elgamal: row %d has %d weights for %d inputs", i, len(row), len(cts))
		}
		// Enc(Σ_j w_ij·x_j + b_i), accumulated without any fresh
		// randomness: re-randomization comes from the input ciphertexts'
		// own nonces, and the result is decrypted only by the client.
		acc := &Ciphertext{C1: big.NewInt(1), C2: params.PowG(params.ReduceScalar(big.NewInt(b[i])))}
		for j, ct := range cts {
			if row[j] == 0 {
				continue
			}
			acc = Add(params, acc, ScalarMul(params, ct, row[j]))
		}
		out[i] = acc
	}
	return out, nil
}

// DecryptArgMax decrypts the encrypted class scores client-side and
// returns (class, scores).
func DecryptArgMax(sk *SecretKey, params *group.Params, scores []*Ciphertext, solver *dlog.Solver) (int, []int64, error) {
	if len(scores) == 0 {
		return 0, nil, errors.New("elgamal: no scores")
	}
	vals := make([]int64, len(scores))
	best := 0
	for i, ct := range scores {
		v, err := Decrypt(sk, params, ct, solver)
		if err != nil {
			return 0, nil, fmt.Errorf("elgamal: score %d: %w", i, err)
		}
		vals[i] = v
		if v > vals[best] {
			best = i
		}
	}
	return best, vals, nil
}
