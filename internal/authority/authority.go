// Package authority implements the trusted third party of the CryptoNN
// architecture (Fig. 1). The authority generates and holds all master
// secret keys, distributes public keys to clients and servers, and issues
// function-derived keys for the permitted function set F.
//
// The paper's trust model: the authority is honest and colludes with no
// one; the server is honest-but-curious. Accordingly, the master secrets
// never leave this package — only public keys and function keys do — and a
// Policy gate restricts which functions the server may request keys for.
//
// FEIP master keys are per-dimension (an η-dimensional scheme can only
// encrypt η-vectors), so the authority maintains one FEIP key pair per
// requested dimension, generated lazily and cached.
package authority

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"cryptonn/internal/febo"
	"cryptonn/internal/feip"
	"cryptonn/internal/group"
	"cryptonn/internal/par"
	"cryptonn/internal/securemat"
)

// ErrNotPermitted reports a key request for a function outside the policy.
var ErrNotPermitted = errors.New("authority: function not permitted by policy")

// Policy is the permitted function set F. The zero value permits nothing;
// AllowAll covers the full set used by CryptoNN training.
type Policy struct {
	// DotProduct permits inner-product (FEIP) keys.
	DotProduct bool
	// BasicOps permits element-wise FEBO keys per operation.
	BasicOps map[febo.Op]bool
}

// AllowAll permits every function CryptoNN uses: dot products and all four
// basic operations.
func AllowAll() Policy {
	return Policy{
		DotProduct: true,
		BasicOps: map[febo.Op]bool{
			febo.OpAdd: true,
			febo.OpSub: true,
			febo.OpMul: true,
			febo.OpDiv: true,
		},
	}
}

// Stats counts issued keys; the communication-overhead experiment
// (§IV-B2) reads these.
type Stats struct {
	// IPKeys is the number of inner-product function keys issued.
	IPKeys uint64
	// IPKeyScalars is the total number of weight scalars across those keys
	// (the k×n×|w| traffic term of §IV-B2).
	IPKeyScalars uint64
	// BOKeys is the number of basic-op function keys issued.
	BOKeys uint64
}

// Authority is the trusted key authority. It is safe for concurrent use.
type Authority struct {
	params *group.Params
	policy Policy

	mu       sync.Mutex
	feipKeys map[int]*feipPair
	feboPK   *febo.PublicKey
	feboSK   *febo.SecretKey
	stats    Stats
}

type feipPair struct {
	mpk *feip.MasterPublicKey
	msk *feip.MasterSecretKey
}

// New creates an authority over the given group with the given policy.
func New(params *group.Params, policy Policy) (*Authority, error) {
	if params == nil {
		return nil, errors.New("authority: nil group parameters")
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	pk, sk, err := febo.Setup(params, nil)
	if err != nil {
		return nil, fmt.Errorf("authority: FEBO setup: %w", err)
	}
	return &Authority{
		params:   params,
		policy:   policy,
		feipKeys: make(map[int]*feipPair),
		feboPK:   pk,
		feboSK:   sk,
	}, nil
}

// Params returns the group parameters the authority operates over.
func (a *Authority) Params() *group.Params { return a.params }

// Stats returns a snapshot of key-issuance counters.
func (a *Authority) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats zeroes the key-issuance counters (used between benchmark
// phases).
func (a *Authority) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{}
}

func (a *Authority) feipPairFor(eta int) (*feipPair, error) {
	if eta <= 0 {
		return nil, fmt.Errorf("authority: invalid FEIP dimension %d", eta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.feipKeys[eta]; ok {
		return p, nil
	}
	mpk, msk, err := feip.Setup(a.params, eta, nil)
	if err != nil {
		return nil, fmt.Errorf("authority: FEIP setup for η=%d: %w", eta, err)
	}
	p := &feipPair{mpk: mpk, msk: msk}
	a.feipKeys[eta] = p
	return p, nil
}

// FEIPPublic returns (creating on first use) the inner-product master
// public key for dimension eta.
func (a *Authority) FEIPPublic(eta int) (*feip.MasterPublicKey, error) {
	p, err := a.feipPairFor(eta)
	if err != nil {
		return nil, err
	}
	return p.mpk, nil
}

// FEBOPublic returns the basic-operation public key.
func (a *Authority) FEBOPublic() (*febo.PublicKey, error) {
	return a.feboPK, nil
}

// IPKey derives the inner-product function key for weight vector y,
// subject to policy.
func (a *Authority) IPKey(y []int64) (*feip.FunctionKey, error) {
	if !a.policy.DotProduct {
		return nil, fmt.Errorf("%w: dot-product", ErrNotPermitted)
	}
	fk, err := a.ipKey(y)
	if err != nil {
		return nil, err
	}
	a.countIPKeys(1, len(y))
	return fk, nil
}

// ipKey is the derivation behind IPKey and IPKeyBatch, past the policy gate
// and short of the counters, which each entry point handles once per call.
func (a *Authority) ipKey(y []int64) (*feip.FunctionKey, error) {
	p, err := a.feipPairFor(len(y))
	if err != nil {
		return nil, err
	}
	return feip.KeyDerive(a.params, p.msk, y)
}

func (a *Authority) countIPKeys(keys, scalars int) {
	a.mu.Lock()
	a.stats.IPKeys += uint64(keys)
	a.stats.IPKeyScalars += uint64(scalars)
	a.mu.Unlock()
}

// IPKeySparse derives the support-masked inner-product key for the
// η-dimensional weight vector equal to vals on idx and zero elsewhere —
// the securemat.SparseKeyService fast path. The derivation walks only the
// support (feip.KeyDeriveSparse), and the traffic counter accounts only
// the nnz scalars a coordinate-form request actually carries, so the
// communication-overhead measurements see the sparse win too. Note the
// request reveals the support to the authority; docs/SPARSE.md discusses
// the leakage.
func (a *Authority) IPKeySparse(eta int, idx []int, vals []int64) (*feip.FunctionKey, error) {
	if !a.policy.DotProduct {
		return nil, fmt.Errorf("%w: dot-product", ErrNotPermitted)
	}
	p, err := a.feipPairFor(eta)
	if err != nil {
		return nil, err
	}
	fk, err := feip.KeyDeriveSparse(a.params, p.msk, idx, vals)
	if err != nil {
		return nil, err
	}
	a.countIPKeys(1, len(vals))
	return fk, nil
}

// IPKeyBatch derives one inner-product key per weight vector, in order.
// Policy is checked and the counters are bumped once for the batch. The loop
// is sequential: a key costs a few nanoseconds per weight scalar (the 16 keys
// of a 196-8-10 training step are ≈ 13 µs in all), and no workload sends a
// batch large enough to pay for a fork-join. A failing vector fails the batch
// — it is named and no key is counted.
func (a *Authority) IPKeyBatch(ys [][]int64) ([]*feip.FunctionKey, error) {
	if len(ys) == 0 {
		return nil, fmt.Errorf("authority: empty key batch")
	}
	if !a.policy.DotProduct {
		return nil, fmt.Errorf("%w: dot-product", ErrNotPermitted)
	}
	keys := make([]*feip.FunctionKey, len(ys))
	scalars := 0
	for i, y := range ys {
		fk, err := a.ipKey(y)
		if err != nil {
			return nil, fmt.Errorf("authority: batch vector %d: %w", i, err)
		}
		keys[i] = fk
		scalars += len(y)
	}
	a.countIPKeys(len(ys), scalars)
	return keys, nil
}

// BOKeyBatch derives one basic-op key per (commitment, scalar) pair, in
// order, on every core; the in-process counterpart of the wire protocol's
// batched FEBO key request. A key is a membership check and a full-width
// exponentiation (≈ 30 µs at 256 bits), and a training step asks for one per
// output cell. Policy and counters are handled once for the batch, and the
// lowest failing element is the one named.
func (a *Authority) BOKeyBatch(cmts []*big.Int, op febo.Op, ys []int64) ([]*febo.FunctionKey, error) {
	if len(cmts) == 0 || len(cmts) != len(ys) {
		return nil, fmt.Errorf("authority: %d commitments for %d scalars", len(cmts), len(ys))
	}
	if !a.policy.BasicOps[op] {
		return nil, fmt.Errorf("%w: %s", ErrNotPermitted, op)
	}
	if err := febo.CheckOperands(a.params, op, ys); err != nil {
		return nil, fmt.Errorf("authority: %w", err)
	}
	keys := make([]*febo.FunctionKey, len(cmts))
	err := par.ForEachChunk(len(cmts), 1, 0, par.NoScratch, func(i, _ int, _ struct{}) error {
		fk, err := febo.KeyDerive(a.params, a.feboSK, cmts[i], op, ys[i])
		if err != nil {
			return fmt.Errorf("authority: batch element %d: %w", i, err)
		}
		keys[i] = fk
		return nil
	})
	if err != nil {
		return nil, err
	}
	a.countBOKeys(len(cmts))
	return keys, nil
}

// BOKey derives the basic-operation function key bound to commitment cmt,
// subject to policy.
func (a *Authority) BOKey(cmt *big.Int, op febo.Op, y int64) (*febo.FunctionKey, error) {
	if !a.policy.BasicOps[op] {
		return nil, fmt.Errorf("%w: %s", ErrNotPermitted, op)
	}
	fk, err := febo.KeyDerive(a.params, a.feboSK, cmt, op, y)
	if err != nil {
		return nil, err
	}
	a.countBOKeys(1)
	return fk, nil
}

func (a *Authority) countBOKeys(keys int) {
	a.mu.Lock()
	a.stats.BOKeys += uint64(keys)
	a.mu.Unlock()
}

// Interface compliance: the authority is a (batch-capable) key service
// for the secure matrix computation layer.
var (
	_ securemat.KeyService       = (*Authority)(nil)
	_ securemat.BatchKeyService  = (*Authority)(nil)
	_ securemat.SparseKeyService = (*Authority)(nil)
)
