package thresh

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/big"
	"slices"

	"cryptonn/internal/group"
)

// Domain-separation tags for the Fiat–Shamir transcripts, so a proof can
// never be replayed in another protocol role.
const (
	dstRLC  = "CRYPTONN/THRESH/v1/RLC"
	dstDLEQ = "CRYPTONN/THRESH/v1/DLEQ"
)

// ErrProof reports a DLEQ proof that fails verification.
var ErrProof = errors.New("thresh: invalid discrete-log equality proof")

// EqProof is a non-interactive Chaum–Pedersen proof that two group
// elements share a discrete log: log_g(pub) = log_{B}(P) for the batched
// base/output pair (B, P). It proves a partial FEBO key was derived with
// the node's committed secret share, without revealing the share.
type EqProof struct {
	C, Z *big.Int
}

// transcript accumulates Fiat–Shamir challenge input as length-prefixed
// big-endian integers under a domain tag. Each integer is written as its
// minimal big-endian bytes (none for 0) through one reused buffer, which
// grows only for an integer wider than every one before it.
type transcript struct {
	h   hash.Hash
	n   [4]byte
	buf []byte
}

func newTranscript(dst string) *transcript {
	t := &transcript{h: sha256.New()}
	t.bytes([]byte(dst))
	return t
}

func (t *transcript) bytes(b []byte) {
	binary.BigEndian.PutUint32(t.n[:], uint32(len(b)))
	t.h.Write(t.n[:])
	t.h.Write(b)
}

func (t *transcript) ints(xs ...*big.Int) {
	for _, x := range xs {
		t.buf = slices.Grow(t.buf[:0], (x.BitLen()+7)/8)[:(x.BitLen()+7)/8]
		t.bytes(x.FillBytes(t.buf))
	}
}

func (t *transcript) sum() []byte { return t.h.Sum(nil) }

// rlcCoeffs derives the random-linear-combination coefficients that fold
// a batch of (base, out) pairs into one pair. Each coefficient is a
// 128-bit integer bound to the whole batch and the prover's public share
// commitment, so a prover cannot trade an error in one element against
// another. The i-th is the top 16 bytes of SHA-256(seed ‖ i), drawn on one
// reset hasher.
func rlcCoeffs(pub *big.Int, bases, outs []*big.Int) []*big.Int {
	seedT := newTranscript(dstRLC)
	seedT.ints(pub)
	seedT.ints(bases...)
	seedT.ints(outs...)
	seed := seedT.sum()
	coeffs, vals := make([]*big.Int, len(bases)), make([]big.Int, len(bases))
	h := seedT.h
	var buf [sha256.Size]byte
	var n [8]byte
	for i := range coeffs {
		h.Reset()
		h.Write(seed)
		binary.BigEndian.PutUint64(n[:], uint64(i))
		h.Write(n[:])
		h.Sum(buf[:0])
		coeffs[i] = vals[i].SetBytes(buf[:16])
	}
	return coeffs
}

// challenge derives the Chaum–Pedersen challenge scalar mod Q.
func challenge(params *group.Params, pub, base, out, t1, t2 *big.Int) *big.Int {
	tr := newTranscript(dstDLEQ)
	tr.ints(params.P, params.G, pub, base, out, t1, t2)
	c := new(big.Int).SetBytes(tr.sum())
	return c.Mod(c, params.Q)
}

// foldBatch collapses (bases, outs) to the single RLC pair (B, P).
func foldBatch(params *group.Params, pub *big.Int, bases, outs []*big.Int) (b, p *big.Int) {
	if len(bases) == 1 {
		return bases[0], outs[0]
	}
	es := rlcCoeffs(pub, bases, outs)
	return params.MultiExp(bases, es), params.MultiExp(outs, es)
}

// expMont returns x^e mod P for a member x and an exponent e in [0, Q), on
// the group's Montgomery ladder.
func expMont(params *group.Params, x, e *big.Int) *big.Int {
	mc := params.Mont()
	buf := mc.Elem()
	mc.ToMont(buf, x)
	mc.ExpMont(buf, buf, e)
	return mc.FromMont(buf)
}

// powers returns x^e for every e of exps, in [0, Q), on one squaring chain
// of x (group.EphemeralExps) and one batch inversion of the negative halves.
// x must be a member; a zero x can leave a half without an inverse, which
// is reported as an error.
func powers(params *group.Params, x *big.Int, exps []*big.Int) ([]*big.Int, error) {
	mc := params.Mont()
	k := mc.Limbs()
	buf := make([]uint64, 2*len(exps)*k)
	pos, neg := buf[:len(exps)*k], buf[len(exps)*k:]
	params.RecodeSigned(exps, nil).PowRecoded(pos, neg, []*big.Int{x})
	if _, err := mc.BatchInvMont(neg, nil); err != nil {
		return nil, fmt.Errorf("%w: proof base: %v", ErrShare, err)
	}
	out := make([]*big.Int, len(exps))
	for i := range out {
		el := pos[i*k:][:k]
		mc.MulMont(el, el, neg[i*k:][:k])
		out[i] = mc.FromMont(el)
	}
	return out, nil
}

// ProveEqBatch proves that outs[i] = bases[i]^secret for every i, where
// pub = g^secret is the prover's public share commitment. The batch is
// folded into one pair with Fiat–Shamir RLC coefficients; the proof is
// two scalars regardless of batch size. Randomness is drawn from r
// (crypto/rand when nil).
//
// The prover folds only the bases: for honest outputs the folded output
// Π outs[i]^{e_i} is B^secret, and the challenge — which hashes that
// element — is the same, so for a given nonce the proof is too. Outputs
// that are not bases[i]^secret still fail verification, which folds them
// itself. B^secret and the nonce commitment B^k share one squaring chain.
func ProveEqBatch(params *group.Params, secret, pub *big.Int, bases, outs []*big.Int, r io.Reader) (*EqProof, error) {
	if len(bases) == 0 || len(bases) != len(outs) {
		return nil, fmt.Errorf("%w: %d bases for %d outputs", ErrShare, len(bases), len(outs))
	}
	if secret == nil || pub == nil {
		return nil, fmt.Errorf("%w: missing secret or commitment", ErrShare)
	}
	s := params.ReduceScalar(secret)
	k, err := params.RandScalar(r)
	if err != nil {
		return nil, fmt.Errorf("thresh: dleq nonce: %w", err)
	}
	b, p, exps := bases[0], outs[0], []*big.Int{k}
	if len(bases) > 1 {
		b = params.MultiExp(bases, rlcCoeffs(pub, bases, outs))
		exps = append(exps, s)
	}
	pw, err := powers(params, b, exps)
	if err != nil {
		return nil, err
	}
	if len(bases) > 1 {
		p = pw[1]
	}
	t1, t2 := params.PowG(k), pw[0]
	c := challenge(params, pub, b, p, t1, t2)
	z := new(big.Int).Mul(c, s)
	z.Add(z, k)
	return &EqProof{C: c, Z: z.Mod(z, params.Q)}, nil
}

// VerifyEqBatch checks a ProveEqBatch proof: that every outs[i] is
// bases[i] raised to the discrete log of pub. It requires canonical proof
// scalars in [0, Q) — otherwise Z + Q would verify like Z and a proof
// would be malleable on the wire — recomputes the folded pair,
// reconstructs the commitments t1 = g^z·pub^{−c} and t2 = B^z·P^{−c}, the
// latter as one two-base product, and compares the re-derived challenge.
func VerifyEqBatch(params *group.Params, pub *big.Int, bases, outs []*big.Int, proof *EqProof) error {
	if proof == nil || proof.C == nil || proof.Z == nil {
		return fmt.Errorf("%w: empty proof", ErrProof)
	}
	for _, x := range []*big.Int{proof.C, proof.Z} {
		if x.Sign() < 0 || x.Cmp(params.Q) >= 0 {
			return fmt.Errorf("%w: proof scalar outside [0, Q)", ErrProof)
		}
	}
	if len(bases) == 0 || len(bases) != len(outs) {
		return fmt.Errorf("%w: %d bases for %d outputs", ErrProof, len(bases), len(outs))
	}
	if pub == nil || !params.IsElement(pub) {
		return fmt.Errorf("%w: commitment not a group element", ErrProof)
	}
	for i, o := range outs {
		if o == nil || !params.IsElement(o) {
			return fmt.Errorf("%w: output %d not a group element", ErrProof, i)
		}
	}
	b, p := foldBatch(params, pub, bases, outs)
	negC := params.ReduceScalar(new(big.Int).Neg(proof.C))
	t1 := params.Mul(params.PowG(proof.Z), expMont(params, pub, negC))
	t2 := params.MultiExp([]*big.Int{b, p}, []*big.Int{proof.Z, negC})
	if challenge(params, pub, b, p, t1, t2).Cmp(proof.C) != 0 {
		return ErrProof
	}
	return nil
}
